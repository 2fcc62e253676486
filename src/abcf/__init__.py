"""Two-parameter continued fractions, reduction maps, and attractors."""

__version__ = "0.1.0"

from .attractor import (
    BijectivityReport,
    RectDomain,
    build_attractor,
    compare_with_oracle,
    reduction_scan,
    solve_corners,
    verify_bijectivity,
    verify_connectivity,
)
from .cf import (
    CFExpansion,
    Convergent,
    bounded_digit_interval,
    convergents,
    digit_ab,
    evaluate_minus_cf,
    expand,
)
from .cycles import CycleResult, TruncatedOrbits, detect_cycle, truncated_orbits
from .exceptional import (
    SubstitutionScheme,
    TriangleRegion,
    base_length,
    exceptional_b,
    substitution_step,
    triangle_region,
)
from .mobius import Mobius, NonHyperbolicError, S, T, T_INV
from .natext import (
    Cloud,
    Region,
    rho,
    sample_attractor,
    trapping_region,
)
from .params import ParamError, Params
from .scalars import INF, MixedFieldError, Surd

#: names re-exported from measures, which imports numpy: loaded on first use
_MEASURES = ("entropy_closed", "entropy_rokhlin", "invariance_check")


def __getattr__(name: str):
    if name in _MEASURES:
        from . import measures

        return getattr(measures, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
