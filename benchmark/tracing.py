"""Spans around the benchmark's own calls into the bosons2d layers.

The traced pass times each public call the benchmark makes (the span's
name is `<module>.<function>`) and, for five public callables that the
library looks up at call time, installs wrappers in place so that calls the
library makes to them are recorded as child spans too. Nothing in `src/`
changes: the untraced pass calls the modules directly, with no wrapper.
"""
from __future__ import annotations

import contextlib
import statistics
import time
from collections import defaultdict
from types import SimpleNamespace
from typing import Any, Callable, Iterator

from bosons2d import diagnostics, fewbody, gp, potentials, quadrature, scattering

LAYERS = {"gp": gp, "fewbody": fewbody, "diagnostics": diagnostics,
          "scattering": scattering, "potentials": potentials}

# Public calls the workloads make, per layer module.
TIMED_CALLS = {
    "gp": ("ground_state", "step", "gp_energy"),
    "fewbody": ("build_hamiltonian", "propagate", "energy_per_particle"),
    "diagnostics": ("mean_field_step", "mean_field_energy", "weight_expectation",
                    "alpha_full", "number_expectations", "gamma1", "trace_distance",
                    "operator_algebra_suite", "ddt_weight_identity"),
    "scattering": ("solve_zero_energy", "integral_I", "scaled_scattering_identity",
                   "build_microscopic", "g_norm_report"),
    "potentials": ("make_scaled", "make_smeared", "smeared_norm_report",
                   "laplacian_residual"),
}


def _simpson_nodes(args: tuple, kwargs: dict) -> int:
    """Integrand samples taken by quadrature.composite_simpson(f, a, b, n)."""
    a, b = args[1], args[2]
    n = int(args[3] if len(args) > 3 else kwargs.get("n", 128))
    return 0 if b <= a else n + n % 2 + 1


def _dense_columns(args: tuple, kwargs: dict) -> int:
    """Columns assembled by diagnostics.dense_operator(fn, lattice, n)."""
    lattice = args[1] if len(args) > 1 else kwargs["lattice"]
    n = args[2] if len(args) > 2 else kwargs["n_particles"]
    return lattice.d ** n


# (span name, owner, attribute, work counter): callables the library itself
# calls through a class or module attribute, so a wrapper set on the owner
# sees the library's inner calls (apply inside propagate, evaluate inside
# step, Simpson passes inside every radial integral).
INNER_CALLS = (
    ("fewbody.apply", fewbody.DiscreteHamiltonian, "apply", None),
    ("gp.field_evaluate", gp.ExternalField, "evaluate", None),
    ("quadrature.simpson_with_halving", quadrature, "simpson_with_halving", None),
    ("quadrature.composite_simpson", quadrature, "composite_simpson", _simpson_nodes),
    ("diagnostics.dense_operator", diagnostics, "dense_operator", _dense_columns),
)

# Calls that also report their median span duration.
HOT_CALLS = ("gp.step", "fewbody.propagate", "diagnostics.operator_algebra_suite",
             "scattering.build_microscopic", "potentials.make_smeared")

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in TIMED_CALLS.items() for fn in fns) \
    + tuple(name for name, *_ in INNER_CALLS)


def plain_api() -> SimpleNamespace:
    """The layer modules themselves: the untraced pass adds no wrapper."""
    return SimpleNamespace(**LAYERS)


class Tracer:
    """In-memory span recorder.

    A span is [name, parent index, start, end, work].
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable,
             work: Callable[[tuple, dict], int] | None = None) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            spans.append([name, stack[-1] if stack else -1, time.perf_counter(), 0.0,
                          work(args, kwargs) if work else 1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][3] = time.perf_counter()

        return traced

    def api(self) -> SimpleNamespace:
        """Layer namespaces whose timed calls record spans."""
        namespaces = {}
        for layer, module in LAYERS.items():
            wrapped = {fn: self.wrap(f"{layer}.{fn}", getattr(module, fn))
                       for fn in TIMED_CALLS[layer]}
            namespaces[layer] = _Overlay(module, wrapped)
        return SimpleNamespace(**namespaces)

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Install the inner-call wrappers; the originals come back on exit."""
        originals = [(owner, attr, owner.__dict__[attr]) for _, owner, attr, _ in INNER_CALLS]
        try:
            for name, owner, attr, work in INNER_CALLS:
                setattr(owner, attr, self.wrap(name, owner.__dict__[attr], work))
            yield self
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)


class _Overlay:
    """A module with some attributes replaced."""

    def __init__(self, module: Any, replaced: dict[str, Callable]) -> None:
        self._module = module
        self.__dict__.update(replaced)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._module, name)


def summarize(spans: list[list]) -> dict[str, tuple[float, str]]:
    """Per-span calls, self time and work, plus the derived ratios.

    Self time is a span's duration minus the durations of its direct
    children, so an `apply` inside `propagate` counts once, under `apply`.
    """
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    child: dict[int, float] = defaultdict(float)
    work: dict[str, int] = defaultdict(int)
    under: dict[tuple[str, str], list[float]] = defaultdict(list)
    for name, parent, start, end, units in spans:
        calls[name] += 1
        total[name] += end - start
        work[name] += units
        if parent >= 0:
            child[parent] += end - start
            under[(name, spans[parent][0])].append(end - start)
    self_s: dict[str, float] = defaultdict(float)
    for index, (name, _, start, end, _) in enumerate(spans):
        self_s[name] += (end - start) - child[index]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        if not name.startswith("quadrature."):
            out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (self_s[name], "s")
    applies = under[("fewbody.apply", "fewbody.propagate")]
    nodes = work["quadrature.composite_simpson"]
    out.update({
        "gp.field_evals_per_step": (ratio(len(under[("gp.field_evaluate", "gp.step")]),
                                          calls["gp.step"]), "ratio"),
        "fewbody.apply_per_propagate": (ratio(len(applies), calls["fewbody.propagate"]), "ratio"),
        "fewbody.apply_share": (ratio(sum(applies), total["fewbody.propagate"]), "ratio"),
        "diagnostics.dense_columns": (work["diagnostics.dense_operator"], "count"),
        "quadrature.integrals": (calls["quadrature.simpson_with_halving"], "count"),
        "quadrature.simpson_passes": (calls["quadrature.composite_simpson"], "count"),
        "quadrature.nodes": (nodes, "count"),
        "quadrature.nodes_per_integral": (ratio(nodes, calls["quadrature.simpson_with_halving"]),
                                          "ratio"),
    })
    return out


def is_timing(name: str) -> bool:
    """Timing metrics vary run to run; every other traced metric is a count
    or a ratio of counts and must repeat exactly for a given seed."""
    return name.endswith("_s") or name == "fewbody.apply_share"


def hot_call_p50_us(span_lists: list[list[list]]) -> dict[str, float]:
    """Median duration of each hot call over all given traced passes."""
    out = {}
    for name in HOT_CALLS:
        durations = [end - start for spans in span_lists
                     for n, _, start, end, _ in spans if n == name]
        out[f"{name}.p50_us"] = statistics.median(durations) * 1e6 if durations else 0.0
    return out
