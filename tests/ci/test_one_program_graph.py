"""One value graph and one interval evaluator over cell programs.

A cell program is read as values in one module, :mod:`repro.isa.values`,
and interval reasoning over those values runs in one evaluator,
:func:`repro.static.intervals.evaluate`.  A scan of ``src/`` fails on
a second definition of the graph, and on ``transfer``/``selected``
called anywhere but in that evaluator: a new consumer reads the graph
and calls ``evaluate`` instead of walking the program its own way.
"""

import ast
import pathlib
from typing import Dict, List, Tuple

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

#: The walks the graph and the evaluator replaced, by module.
GONE = {
    "repro/static/absint.py": {"as_linear", "abstract_way"},
    "repro/engine/band.py": {"_cell", "_band_intervals", "_evaluate"},
    "repro/engine/specialize.py": {"_reads", "_cone", "value_graph"},
}


class _Scan(ast.NodeVisitor):
    """Calls of ``transfer``/``selected`` with the function around
    them, and every function definition, in one module."""

    def __init__(self) -> None:
        self.scope: List[str] = []
        self.calls: List[Tuple[str, str]] = []
        self.defined: List[str] = []

    def visit_FunctionDef(self, node) -> None:
        self.defined.append(node.name)
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = getattr(func, "id", getattr(func, "attr", None))
        if name in ("transfer", "selected"):
            self.calls.append((name, ".".join(self.scope)))
        self.generic_visit(node)


def _scans() -> Dict[str, _Scan]:
    scans = {}
    for path in sorted(SRC.rglob("*.py")):
        scan = _Scan()
        scan.visit(ast.parse(path.read_text(), str(path)))
        scans[path.relative_to(SRC).as_posix()] = scan
    return scans


SCANS = _scans()


def test_transfer_and_selected_are_called_only_by_evaluate():
    calls = sorted(
        (module, name, scope)
        for module, scan in SCANS.items()
        for name, scope in scan.calls
    )
    assert calls == [
        ("repro/static/intervals.py", "selected", "evaluate"),
        ("repro/static/intervals.py", "transfer", "evaluate"),
    ]


def test_the_value_graph_is_defined_once():
    for function in ("value_graph", "slot_graph"):
        modules = [
            module for module, scan in SCANS.items() for name in scan.defined
            if name == function
        ]
        assert modules == ["repro/isa/values.py"], function


def test_the_separate_walks_are_gone():
    left = {
        (module, name)
        for module, names in GONE.items()
        for name in SCANS[module].defined
        if name in names
    }
    assert not left
