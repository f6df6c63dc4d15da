"""Exact and certified-numeric tools for theta constants at CM points.

The package combines exact cyclotomic arithmetic, symplectic group machinery,
error-bounded theta series, a modularity criterion for products of theta
constants, group actions on characteristics, the Q(zeta_5) CM apparatus, and
primitive-generator combinators for abelian extensions, together with a
verification harness exposed on the command line as `cmtheta`.
"""

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
    reduce_char,
    theta_eval,
    theta_null,
    zero_char,
)
from .modularity import (
    ThetaProduct,
    check_family,
    eval_product,
    gamma_multiplier,
    parse,
    serialize,
    theta_product,
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
from .primgen import (
    AbelianTower,
    combine_norm,
    combine_trace,
    is_primitive,
    make_tower,
    stabilizer,
    subgroup_generated,
)
from .harness import Report, SuiteConfig, run_suite

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
    "reduce_char",
    "reflex_norm",
    "rel_trace_norm",
    "riemann_form",
    "run_suite",
    "serialize",
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
