"""Round trips of the digit recursion: expand followed by
evaluate_expansion gives the input back exactly.

Rationals terminate (b != 0 in every pair here); quadratic surds with
small coefficients become periodic well within the default 200 digits.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abcf.cf import evaluate_finite_minus_cf, evaluate_minus_cf, expand
from abcf.params import Params
from abcf.scalars import Surd


def evaluate_expansion(exp):
    """Value of an expansion as produced by expand."""
    if exp.periodic:
        return evaluate_minus_cf(exp.head(), exp.tail())
    return evaluate_finite_minus_cf(exp.digits)


PAIRS = [("-1/2", "1/2"), ("-4/5", "2/5"), ("-1", "1")]

small = st.integers(-12, 12)
surds = st.builds(
    Surd.make, small, small.filter(bool), st.integers(1, 12), st.sampled_from([2, 3, 5, 6, 7])
)
rationals = st.fractions(min_value=-50, max_value=50, max_denominator=500)


@pytest.mark.parametrize("pair", PAIRS, ids=",".join)
@settings(derandomize=True, max_examples=150, deadline=None)
@given(x=rationals)
def test_rational_round_trip(pair, x):
    exp = expand(x, Params.make(*pair))
    assert exp.terminated and not exp.approximate
    assert evaluate_expansion(exp) == x


@pytest.mark.parametrize("pair", PAIRS, ids=",".join)
@settings(derandomize=True, max_examples=150, deadline=None)
@given(x=surds)
def test_surd_round_trip(pair, x):
    exp = expand(x, Params.make(*pair))
    assert exp.periodic and not exp.approximate
    value = evaluate_expansion(exp)
    assert value == x and isinstance(value, type(x))
