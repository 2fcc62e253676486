import math

import pytest

from abcf.params import ParamError, Params


# from eps = 1/2 on, digit_float's snapped floor leaves rho's branch:
# x - b = -0.75 snaps to -1 under eps 0.75, and 1 + (-1) gives the digit 0
@pytest.mark.parametrize("eps", [-1.0, -1e-300, math.nan, math.inf, -math.inf, 0.5, 0.75])
def test_bad_eps_rejected(eps):
    with pytest.raises(ParamError, match="eps"):
        Params.make("-7/10", "4/5", eps)
    with pytest.raises(ParamError, match="eps"):
        Params.make(-0.7, 0.8, eps)


@pytest.mark.parametrize("a, b", [(-0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0)])
def test_non_finite_float_entries_rejected(a, b):
    # -a*b is nan at (-0.0, inf), and a nan comparison must not pass the check
    with pytest.raises(ParamError, match="finite"):
        Params(a, b)
