import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from apkit import InvalidArgument, TestFunction
import oracles


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["triangle_bump", "cosine_bump"]),
       st.floats(0.1, 3.0), st.floats(0.1, 2.0),
       st.floats(-2.0, 2.0))
def test_pointwise_values_match_oracle(shape, rho, amp, x):
    f = TestFunction(shape, rho, amp, [0.5])
    got = float(f(np.array([[x]]))[0])
    want = oracles.brute_bump(shape, rho, amp, [x - 0.5])
    assert got == pytest.approx(want, abs=1e-12)


def test_support_is_sharp():
    f = TestFunction("triangle_bump", 1.0, 2.0, [0.0])
    vals = f(np.array([[0.0], [0.999], [1.0], [1.5]]))
    assert vals[0] == pytest.approx(2.0)
    assert vals[1] > 0.0
    assert vals[2] == 0.0 and vals[3] == 0.0


@pytest.mark.parametrize("shape", ["triangle_bump", "cosine_bump"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_integral_matches_quadrature(shape, dim):
    f = TestFunction(shape, 1.3, 0.7, [0.0] * dim)
    want = oracles.brute_bump_integral(shape, 1.3, 0.7, dim)
    assert f.integral() == pytest.approx(want, rel=1e-6)


def test_normalized_has_unit_integral():
    f = TestFunction("cosine_bump", 2.0, 3.0, [0.0]).normalized()
    assert f.integral() == pytest.approx(1.0, rel=1e-12)


def test_support_bound_includes_center_offset():
    f = TestFunction("triangle_bump", 0.5, 1.0, [3.0, 4.0])
    assert f.support_bound() == pytest.approx(5.5)


def test_json_round_trip():
    f = TestFunction("triangle_bump", 0.4, 2.0, [1.0])
    assert TestFunction.from_json(f.to_json()).to_json() == f.to_json()


def test_unknown_shape_rejected():
    with pytest.raises(ValueError):
        TestFunction("step", 1.0, 1.0, [0.0])
    with pytest.raises(InvalidArgument, match="shape"):
        TestFunction("step", 1.0, 1.0, [0.0])


@pytest.mark.parametrize("rho, amp, center", [
    (math.nan, 1.0, [0.0]), (math.inf, 1.0, [0.0]), (0.0, 1.0, [0.0]),
    (-1.0, 1.0, [0.0]), (1.0, math.nan, [0.0]), (1.0, -math.inf, [0.0]),
    (1.0, 1.0, [math.nan]), (1.0, 1.0, [0.0, math.inf]),
])
def test_bad_numbers_rejected(rho, amp, center):
    with pytest.raises(InvalidArgument, match="finite"):
        TestFunction("cosine_bump", rho, amp, center)
