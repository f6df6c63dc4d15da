"""The traced benchmark run patches cmtheta functions by name; they must exist."""
from pathlib import Path

from cmtheta import symplectic

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from tracer import Tracer, is_restored

    original = symplectic.sympl_multiplier
    tracer = Tracer()
    try:
        layers.install(tracer)
        assert symplectic.sympl_multiplier is not original
    finally:
        bindings = tracer.remove()
    assert bindings and is_restored(bindings)
    assert symplectic.sympl_multiplier is original
