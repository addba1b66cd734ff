"""Knob census: every config field is turned by some caller.

A field that only its default or a test ever sets is a constant in
disguise: it widens the configuration surface without any caller
needing the choice.  This census walks the source of ``src/``,
``bench/``, ``benchmarks/`` and ``examples/`` with :mod:`ast` and
collects every argument passed to the five config dataclasses'
constructors; a field no such call sets fails the test, by name.
"""

import ast
import dataclasses
import inspect
from pathlib import Path

from repro.cluster.health import ShardHealth
from repro.cluster.router import ClusterConfig
from repro.durable.journal import DurabilityConfig
from repro.engine.dlq import DeadLetterQueue
from repro.engine.service import EngineConfig
from repro.serve.server import ServeConfig
from repro.serve.transport import TransportConfig

REPO = Path(__file__).resolve().parents[1]
CALLER_ROOTS = ("src", "bench", "benchmarks", "examples")
CONFIGS = (
    EngineConfig,
    TransportConfig,
    DurabilityConfig,
    ServeConfig,
    ClusterConfig,
)

#: Fields no caller sets yet, on purpose.
ALLOWED_UNSET: set = set()


def _called_name(call: ast.Call):
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def set_fields():
    """``{"Config.field"}`` for every argument a non-test caller passes."""
    fields = {
        cls.__name__: [field.name for field in dataclasses.fields(cls)]
        for cls in CONFIGS
    }
    found = set()
    for root in CALLER_ROOTS:
        for path in sorted((REPO / root).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                name = _called_name(node)
                if name not in fields:
                    continue
                for index, _arg in enumerate(node.args):
                    found.add(f"{name}.{fields[name][index]}")
                for keyword in node.keywords:
                    if keyword.arg is not None:
                        found.add(f"{name}.{keyword.arg}")
    return found


def test_every_config_field_is_set_outside_tests():
    declared = {
        f"{cls.__name__}.{field.name}"
        for cls in CONFIGS
        for field in dataclasses.fields(cls)
    }
    unset = sorted(declared - set_fields() - ALLOWED_UNSET)
    assert unset == [], (
        f"{len(unset)} config fields are set only by defaults or tests; "
        f"make them module constants: {unset}"
    )


def test_allowlist_names_only_unset_fields():
    # An allowlisted field that gains a caller must leave the list.
    assert not ALLOWED_UNSET & set_fields()


def test_health_and_dead_letters_have_no_policy_knobs():
    assert list(inspect.signature(ShardHealth).parameters) == []
    assert list(inspect.signature(DeadLetterQueue).parameters) == [
        "capacity",
        "metrics",
    ]
