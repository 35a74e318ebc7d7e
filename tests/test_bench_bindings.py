"""The benchmark harness wraps package functions by name, and its patcher
skips a name that no longer resolves: a renamed function would read zero
calls in the per-layer metrics without any failure.  This pins every name
the harness binds to a callable of the package."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()
# the certificate probe of `perfbench/run.py` calls this one directly
TARGETS = (*tracing.SPAN_TARGETS, *tracing.COUNT_TARGETS, ("sdp", "binegativity_is_psd"))


@pytest.mark.parametrize("module, attr", TARGETS, ids=[f"{m}.{a}" for m, a in TARGETS])
def test_harness_target_resolves_to_a_callable(module, attr):
    importlib.import_module(f"{tracing.PACKAGE}.{module}")
    owner, leaf = tracing._resolve(module, attr)
    assert callable(getattr(owner, leaf, None))
