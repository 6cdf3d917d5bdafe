"""perfbench/tracing.py wraps library functions by name; they must stay wrappable."""

import importlib
import importlib.util
import types
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracing", SCRIPT)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def test_every_traced_name_is_a_plain_library_function():
    missing = [
        f"{layer}.{name}"
        for layer, names in tracing.TRACED.items()
        for name in names
        if not isinstance(
            getattr(importlib.import_module(f"starxor.{layer}"), name, None), types.FunctionType
        )
    ]
    assert missing == []


def test_the_tableaux_cell_budget_the_tracer_reads_is_an_int():
    tableaux = importlib.import_module("starxor.tableaux")
    assert isinstance(getattr(tableaux, tracing.BUDGET, None), int)
