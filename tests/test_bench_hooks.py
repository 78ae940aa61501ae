"""The functions that bench/tracing.py wraps must exist under the names it uses."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    pairs = tracing.SPANNED + tracing.COUNTED
    assert pairs
    for mod, name in pairs:
        importlib.import_module(f"sgmindeg.{mod}")
        assert callable(getattr(sys.modules[f"sgmindeg.{mod}"], name)), (mod, name)
