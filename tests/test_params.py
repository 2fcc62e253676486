import math

import pytest

from abcf.params import ParamError, Params


@pytest.mark.parametrize("eps", [-1.0, -1e-300, math.nan, math.inf, -math.inf])
def test_bad_eps_rejected(eps):
    with pytest.raises(ParamError, match="eps"):
        Params.make("-7/10", "4/5", eps)
    with pytest.raises(ParamError, match="eps"):
        Params.make(-0.7, 0.8, eps)
