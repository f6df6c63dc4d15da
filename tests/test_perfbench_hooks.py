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


def test_lazy_package_names_follow_the_tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from tracer import Tracer

    import cmtheta
    from cmtheta import harness, modularity, primgen

    homes = {"make_tower": primgen, "check_family": modularity, "run_suite": harness}
    originals = {name: getattr(module, name) for name, module in homes.items()}
    tracer = Tracer()
    try:
        layers.install(tracer)
        for name, module in homes.items():
            traced = getattr(cmtheta, name)
            assert traced is getattr(module, name) and traced.__wrapped__ is originals[name]
    finally:
        tracer.remove()
    # a copy cached in the package while the tracer was installed would still be the wrapper
    assert all(getattr(cmtheta, name) is original for name, original in originals.items())
    assert not set(homes) & set(vars(cmtheta))
