"""The benchmark binds layer functions by name; a rename or removal in the
package must fail here, not only in a traced benchmark run.

Imports `tracing` and `workloads` from benchmark/ and changes nothing there.
"""
import sys
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(BENCHMARK))
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # no __pycache__ under benchmark/
    try:
        import tracing
        import workloads  # noqa: F401  (its imports from the package must resolve)
    finally:
        sys.dont_write_bytecode = write_bytecode
        sys.path.remove(str(BENCHMARK))
    return tracing


def test_timed_calls_are_callable_on_their_layers(tracing):
    for layer, names in tracing.TIMED_CALLS.items():
        for name in names:
            assert callable(getattr(tracing.LAYERS[layer], name, None)), f"{layer}.{name}"


def test_inner_calls_are_owned_attributes(tracing):
    for span, owner, attr, _ in tracing.INNER_CALLS:
        assert attr in owner.__dict__, span


def test_tracer_installs_and_restores_the_inner_calls(tracing):
    originals = [owner.__dict__[attr] for _, owner, attr, _ in tracing.INNER_CALLS]
    tracer = tracing.Tracer()
    with tracer.installed():
        for (_, owner, attr, _), original in zip(tracing.INNER_CALLS, originals):
            assert owner.__dict__[attr] is not original
    for (_, owner, attr, _), original in zip(tracing.INNER_CALLS, originals):
        assert owner.__dict__[attr] is original
    tracer.api()
