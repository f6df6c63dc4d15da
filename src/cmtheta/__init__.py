"""Exact and certified-numeric tools for theta constants at CM points.

The package combines exact cyclotomic arithmetic, symplectic group machinery,
error-bounded theta series, a modularity criterion for products of theta
constants, group actions on characteristics, the Q(zeta_5) CM apparatus, and
primitive-generator combinators for abelian extensions, together with a
verification harness exposed on the command line as `cmtheta`.

`import cmtheta` loads only the layers the CM context is built from (`exact`,
`symplectic`, `theta`, `action`, `cmfield`); the names from `modularity`,
`primgen` and `harness` resolve on first use, through a PEP 562 `__getattr__`,
and `dir(cmtheta)` lists them through the module `__dir__`.
"""

import importlib

from .exact import CycloElem, RootOfUnity, cyclotomic_coeffs, rel_trace_norm, unit_residues
from .symplectic import (
    SiegelPoint,
    act_siegel,
    blocks,
    identity,
    in_gamma,
    intmat,
    iota,
    is_symplectic,
    jmat,
    special_gamma,
    sympl_multiplier,
)
from .theta import (
    Characteristic,
    EvalSettings,
    all_characteristics,
    phi_eval,
    random_siegel,
    theta_eval,
    theta_null,
    zero_char,
)
from .action import ActionResult, act_iota_inv, act_phi, act_power_family
from .cmfield import (
    CMContext,
    GaloisActor,
    artin_action,
    belong_criterion,
    build_context,
    closed_phase,
    field_norm,
    h_map,
    reflex_norm,
    riemann_form,
    standard_actors,
)

# name -> module, for the names whose modules `import cmtheta` leaves unloaded
_LAZY = {
    name: module
    for module, names in (
        ("modularity", "ThetaProduct check_family eval_product gamma_multiplier parse theta_product"),
        ("primgen", "AbelianTower combine_norm combine_trace is_primitive make_tower stabilizer subgroup_generated"),
        ("harness", "Report SuiteConfig run_suite"),
    )
    for name in names.split()
}


def __getattr__(name: str):
    """A lazy name, read from its module on every access: nothing is cached here, so a rebinding there shows."""
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    """The loaded names and the lazy ones, listed without importing their modules."""
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"

__all__ = [
    "AbelianTower",
    "ActionResult",
    "CMContext",
    "Characteristic",
    "CycloElem",
    "EvalSettings",
    "GaloisActor",
    "Report",
    "RootOfUnity",
    "SiegelPoint",
    "SuiteConfig",
    "ThetaProduct",
    "act_iota_inv",
    "act_phi",
    "act_power_family",
    "act_siegel",
    "all_characteristics",
    "artin_action",
    "belong_criterion",
    "blocks",
    "build_context",
    "check_family",
    "closed_phase",
    "combine_norm",
    "combine_trace",
    "cyclotomic_coeffs",
    "eval_product",
    "field_norm",
    "gamma_multiplier",
    "h_map",
    "identity",
    "in_gamma",
    "intmat",
    "iota",
    "is_primitive",
    "is_symplectic",
    "jmat",
    "make_tower",
    "parse",
    "phi_eval",
    "random_siegel",
    "reflex_norm",
    "rel_trace_norm",
    "riemann_form",
    "run_suite",
    "special_gamma",
    "stabilizer",
    "standard_actors",
    "subgroup_generated",
    "sympl_multiplier",
    "theta_eval",
    "theta_null",
    "theta_product",
    "unit_residues",
    "zero_char",
]
