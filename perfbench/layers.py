"""Which cmtheta functions the traced run wraps, and the per-layer metrics of a pass.

A layer is a package module.  Counts and times are per pass: the traced run
repeats the workload's pass, and the runner reports the median over passes.
Self time is a span's duration minus the time its child spans cover, so the
self times of all layers add up to at most the pass's wall time; the rest is
benchmark glue and program code outside any wrapped call.
"""
from __future__ import annotations

from collections import Counter, defaultdict

from cmtheta import action, cmfield, exact, harness, modularity, primgen, symplectic, theta
from tracer import Tracer, self_times

LAYERS = ("exact", "symplectic", "theta", "modularity", "action", "cmfield", "primgen")
HARNESS_CHECKS = (
    "artin-closed-form",
    "passing-family-invariance",
    "multiplier-cross-validation",
    "random-towers",
)

_FUNCTIONS = {
    exact: ("exact", ("solve_exact", "rel_trace_norm")),
    symplectic: ("symplectic", ("intmat", "sympl_multiplier", "act_siegel")),
    theta: ("theta", ("theta_eval", "phi_eval", "theta_null")),
    modularity: ("modularity", ("check_family", "gamma_multiplier")),
    action: ("action", ("act_phi", "act_power_family")),
    cmfield: ("cmfield", ("build_context", "artin_action", "belong_criterion")),
    primgen: ("primgen", ("make_tower", "combine_trace", "combine_norm", "is_primitive")),
    harness: ("harness", ("run_suite",)),
}


def _actor_key(args):
    _cls, x, p = args
    return (x.coeffs, p)


def install(tracer: Tracer) -> None:
    for name in ("__mul__", "inverse", "galois"):
        tracer.patch_method("exact", exact.CycloElem, name)
    tracer.patch_method("cmfield", cmfield.GaloisActor, "build", key=_actor_key)
    for module, (layer, names) in _FUNCTIONS.items():
        for name in names:
            tracer.patch_function(layer, module, name)
    for registry in harness.CHECKS.values():
        tracer.patch_list("harness", registry, 0, 1)


def pass_metrics(spans, wall: float, with_harness: bool) -> dict[str, float]:
    """Per-layer metrics of one pass from its spans; harness.* only `with_harness`."""
    own = self_times(spans)
    calls: Counter = Counter()
    self_s: dict[str, float] = defaultdict(float)
    name_calls: Counter = Counter()
    name_s: dict[str, float] = defaultdict(float)
    actor_keys = []
    for sid, _parent, layer, name, start, end, key in spans:
        calls[layer] += 1
        self_s[layer] += own[sid]
        name_calls[name] += 1
        name_s[name] += end - start
        if name == "GaloisActor.build":
            actor_keys.append(key)
    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = calls[layer]
        m[f"{layer}.self_s"] = self_s[layer]
    m["exact.mul_calls"] = name_calls["CycloElem.__mul__"]
    m["exact.galois_calls"] = name_calls["CycloElem.galois"]
    m["exact.solve_calls"] = name_calls["solve_exact"]
    m["exact.inverse_calls"] = name_calls["CycloElem.inverse"]
    m["exact.inverse_s"] = name_s["CycloElem.inverse"]
    m["cmfield.actor_builds"] = len(actor_keys)
    m["cmfield.actor_reuse_ratio"] = 1 - len(set(actor_keys)) / len(actor_keys) if actor_keys else 0.0
    m["theta.evals"] = name_calls["theta_eval"]
    m["theta.null_evals"] = name_calls["theta_null"]
    m["theta.evals_per_phi"] = name_calls["theta_eval"] / name_calls["phi_eval"] if name_calls["phi_eval"] else 0.0
    m["symplectic.intmat_calls"] = name_calls["intmat"]
    m["symplectic.act_siegel_calls"] = name_calls["act_siegel"]
    m["primgen.norm_s"] = name_s["combine_norm"]
    if with_harness:
        m["harness.self_s"] = self_s["harness"]
        for check in HARNESS_CHECKS:
            m[f"harness.check_s.{check}"] = name_s[check]
    m["cmfield.context_builds"] = name_calls["build_context"]
    m["trace.self_share"] = sum(self_s.values()) / wall
    return m


def unit(metric: str) -> str:
    if metric.endswith("_s") or ".check_s." in metric:
        return "s"
    if metric.endswith(("calls", "builds", "evals")):
        return "count"
    return "ratio"


def context_durations(spans) -> list[float]:
    return [end - start for _sid, _parent, _layer, name, start, end, _key in spans if name == "build_context"]
