"""The names the benchmark's tracer wraps still exist in ``ucsbound``.

``benchmarks/tracing.py`` patches each of its targets by name, and a
missing one raises only when the traced benchmark runs.  These tests read
its two target tables from the source, without importing or editing it,
so that a rename or deletion fails here first.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _targets() -> dict[str, tuple]:
    """SPAN_TARGETS and COUNT_TARGETS of the tracer, by literal evaluation."""
    tables = {}
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in ("SPAN_TARGETS", "COUNT_TARGETS"):
                    tables[target.id] = ast.literal_eval(node.value)
    return tables


TARGETS = _targets()


def _module(name: str):
    return importlib.import_module(f"ucsbound.{name}")


def test_both_tables_are_read():
    assert TARGETS["SPAN_TARGETS"] and TARGETS["COUNT_TARGETS"]


@pytest.mark.parametrize("module, name", TARGETS["SPAN_TARGETS"])
def test_spanned_name_is_a_callable(module, name):
    assert callable(getattr(_module(module), name))


@pytest.mark.parametrize("caller, module, name", TARGETS["COUNT_TARGETS"])
def test_counted_name_is_the_defining_modules_callable(caller, module, name):
    # The counter patches the caller's reference, so it must be the very
    # function the defining module holds.
    defined = getattr(_module(module), name)
    assert callable(defined)
    assert getattr(_module(caller), name) is defined
