"""Finite-precision p-adic arithmetic, the Tate curve, and lattice calculus."""

from .balls import Ball, ball_next, same_ball
from .dual import DualElement
from .errors import PadicError
from .field import (
    FieldDescriptor,
    PadicElement,
    RVClass,
    ValuationResult,
    make_field,
    rv_class,
)
from .lattice import (
    SubgroupLattice,
    atypical,
    dim_image,
    kernel_lattice,
    lemma_vm_bound,
    mult_dependence_mod_kernel,
    persistently_likely,
    relation_search,
    rotund_check,
    smith_normal_form,
)
from .parsing import parse_element
from .series import p_exp, p_log
from .tate import (
    TateCurve,
    TatePoint,
    curve_add,
    curve_coefficients,
    curve_neg,
    j_invariant,
    phi,
    reduce_to_fundamental,
    s_k,
    tate_series_point,
    verify_ode,
)
from .weierstrass import (
    StrictSeries,
    gauss_valuation,
    regular_degree,
    weierstrass_divide,
    weierstrass_prepare,
)

__version__ = "0.1.0"


def __getattr__(name):
    # the harness is imported on first use, not with the package
    if name in ("RunConfig", "run_suite"):
        from . import harness
        return getattr(harness, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
