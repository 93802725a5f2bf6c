"""The SciPy-free normal distribution function and quantile equal ``scipy.special``'s bit for bit."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy import special

from rankpc._normal import EXPM2, MAXLOG, ndtr, ndtri
from rankpc.experiment import DEFAULT_ALPHA_LOG10


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


def around(*points) -> list[float]:
    """Each point and its two neighbouring floats."""
    return [v for x in points for v in (np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf))]


# NaN, signed zeros, subnormals, and each branch boundary of a: +-1 (the erf centre, |x| = sqrt(1/2)),
# +-sqrt(2) (erfc's own erf part), +-8 sqrt(2) (its second pair of polynomials), +-sqrt(2 MAXLOG) (the
# underflow to 0), then the far tails
NDTR_EDGES = [math.nan, 0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308] + around(
    1.0, -1.0, math.sqrt(2.0), -math.sqrt(2.0), 8.0 * math.sqrt(2.0), -8.0 * math.sqrt(2.0),
    math.sqrt(2.0 * MAXLOG), -math.sqrt(2.0 * MAXLOG), 38.0, -38.0, 1e300, -1e300,
) + [math.inf, -math.inf]

# 0 and 1, the ends of the central branch at exp(-2) and 1 - exp(-2), the switch of tail polynomials
# at exp(-32), the least subnormal, values outside [0, 1], and the quantile of each default alpha
NDTRI_EDGES = [0.0, 1.0, 5e-324, -0.0, -5e-324, -1.0, 1.0 + 2.0**-52, 2.0, math.inf, -math.inf, math.nan] + around(
    EXPM2, 1.0 - EXPM2, math.exp(-32.0)
) + [1.0 - 10.0**a / 2.0 for a in DEFAULT_ALPHA_LOG10]


def test_ndtr_edges_match_scipy():
    edges = np.array(NDTR_EDGES)
    assert np.array_equal(bits(ndtr(edges)), bits(special.ndtr(edges)))


def test_ndtri_edges_match_scipy():
    assert [bits(ndtri(y)) for y in NDTRI_EDGES] == [bits(special.ndtri(y)) for y in NDTRI_EDGES]


@settings(max_examples=100, deadline=None)
@given(
    a=arrays(
        np.float64,
        array_shapes(min_dims=0, max_dims=2, max_side=40),
        elements=st.one_of(st.floats(), st.floats(-40.0, 40.0), st.floats(-1.5, 1.5)),
    )
)
def test_ndtr_matches_scipy(a):
    got = ndtr(a)
    assert got.shape == a.shape
    assert np.array_equal(bits(got), bits(special.ndtr(a)))


@settings(max_examples=300, deadline=None)
@given(y=st.one_of(st.floats(), st.floats(0.0, 1.0), st.floats(0.0, 1e-14)))
def test_ndtri_matches_scipy(y):
    got = ndtri(y)
    assert isinstance(got, float)
    assert bits(got) == bits(special.ndtri(y))
