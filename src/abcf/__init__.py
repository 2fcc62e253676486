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
    f_hat_step,
    f_step,
)
from .cycles import CycleResult, TruncatedOrbits, detect_cycle, truncated_orbits
from .exceptional import (
    SubstitutionScheme,
    TriangleRegion,
    admissible_prefix,
    base_length,
    exceptional_b,
    substitution_step,
    triangle_region,
)
from .measures import (
    entropy_closed,
    entropy_rokhlin,
    invariance_check,
    mu_density,
    nu_density,
)
from .mobius import Mobius, NonHyperbolicError, S, T, T_INV
from .natext import (
    Cloud,
    F_step,
    Region,
    rho,
    sample_attractor,
    time_to_trap,
    trapping_region,
)
from .params import ParamError, Params
from .scalars import INF, MixedFieldError, Surd
