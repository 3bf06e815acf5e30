"""Every library attribute the benchmark's span tracer wraps still exists,
so removing or renaming one fails here and not only in the benchmark."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_target_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for module, owner, attr, *_ in tracer.TARGETS:
        obj = importlib.import_module(module)
        if owner is not None:
            obj = getattr(obj, owner)
        assert callable(getattr(obj, attr, None)), (module, owner, attr)
