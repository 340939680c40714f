"""Every exported name has a reader: a static guard that keeps the public
surface trimmed to what the lab reaches.

A name in a layer module's `__all__` must appear, as a word, in another
`src/` module (not `__init__`), in the acceptance criteria or in the
benchmark's `workloads.py` or `tracing.py`. A name in the package's
`__all__` must appear in `cli.py`, in the criteria or in those benchmark
files: the package exports what the scenarios, the criteria and the
benchmark use. Result types are exempt, because callers receive them
without naming them; a helper that only its own module and unit tests call
stays importable but leaves `__all__`. The test reads files only.
"""
import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bosons2d"
MODULES = {path.stem: path for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"}
LAB = (ROOT / "tests" / "test_acceptance.py", ROOT / "benchmark" / "workloads.py",
       ROOT / "benchmark" / "tracing.py")
RESULT_TYPES = frozenset({
    "WeightFunction", "NumberExpectations", "AlphaFullResult", "DiagnosticsReport",
    "RateComparison", "CheckResult", "OperatorAlgebraReport", "ScaledPotential",
    "SmearedComparison", "SmearedNorms", "SmearedNormReport", "ScatteringSolution",
    "MicroscopicPair", "RadialPotential",
})


def exports(path: Path) -> list[str]:
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__" for target in node.targets):
            return [ast.literal_eval(element) for element in node.value.elts]
    return []


def unread(names: list[str], readers: list[Path]) -> list[str]:
    texts = [path.read_text() for path in readers]
    return [name for name in names if name not in RESULT_TYPES
            and not any(re.search(rf"\b{re.escape(name)}\b", text) for text in texts)]


@pytest.mark.parametrize("module", [stem for stem, path in MODULES.items() if exports(path)])
def test_module_exports_have_a_reader(module):
    readers = [path for stem, path in MODULES.items() if stem != module] + list(LAB)
    assert unread(exports(MODULES[module]), readers) == []


def test_package_exports_are_the_names_the_lab_uses():
    assert unread(exports(SRC / "__init__.py"), [MODULES["cli"], *LAB]) == []


def test_exempt_names_are_exported_classes():
    classes = {node.name for path in MODULES.values()
               for node in ast.parse(path.read_text()).body if isinstance(node, ast.ClassDef)}
    exported = {name for path in [*MODULES.values(), SRC / "__init__.py"]
                for name in exports(path)}
    assert sorted(RESULT_TYPES - (classes & exported)) == []
