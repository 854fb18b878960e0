import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su2strata import su2
from su2strata.errors import AntipodeError

import oracles


def unit_quaternions():
    return st.lists(
        st.floats(-1, 1, allow_nan=False, allow_infinity=False),
        min_size=4, max_size=4,
    ).filter(lambda v: np.linalg.norm(v) > 1e-3).map(
        lambda v: np.array(v) / np.linalg.norm(v))


def algebra_vectors(scale=2.0):
    return st.lists(
        st.floats(-scale, scale, allow_nan=False), min_size=3, max_size=3,
    ).map(np.array)


@given(unit_quaternions(), unit_quaternions())
def test_multiply_matches_matrix_oracle(a, b):
    assert np.allclose(su2.multiply(a, b), oracles.quat_mul(a, b), atol=1e-12)


@given(unit_quaternions(), unit_quaternions(), unit_quaternions())
def test_multiply_associative(a, b, c):
    left = su2.multiply(su2.multiply(a, b), c)
    right = su2.multiply(a, su2.multiply(b, c))
    assert np.allclose(left, right, atol=1e-12)


@given(unit_quaternions())
def test_inverse(a):
    assert np.allclose(su2.multiply(a, su2.inverse(a)), su2.identity(),
                       atol=1e-12)


@given(algebra_vectors())
def test_exp_matches_oracle(v):
    assert np.allclose(su2.exp(v), oracles.quat_exp(v), atol=1e-12)


@given(algebra_vectors(scale=0.9))
def test_exp_log_roundtrip(v):
    # |v| < pi keeps us on the principal branch
    assert np.allclose(su2.log(su2.exp(v)), v, atol=1e-9)


def test_exp_small_angle_smooth():
    for t in (1e-12, 1e-10, 1e-8):
        v = np.array([t, 0.0, 0.0])
        q = su2.exp(v)
        assert abs(np.linalg.norm(q) - 1.0) < 1e-15
        assert np.allclose(su2.log(q), v, atol=1e-15)


def test_log_near_antipode_uses_stable_branch():
    # w < 0 with a tiny imaginary part: theta/s is still the value
    s = 1e-10
    q = np.array([-np.sqrt(1 - s * s), s, 0.0, 0.0])
    x = su2.log(q)
    theta = np.arctan2(s, q[0])
    assert np.allclose(x, [theta, 0.0, 0.0], atol=1e-12)
    assert np.linalg.norm(x) < np.pi


def test_log_antipode_error():
    with pytest.raises(AntipodeError):
        su2.log(np.array([-1.0, 0.0, 0.0, 0.0]))


def test_log_branch_magnitude():
    rng = np.random.default_rng(3)
    for _ in range(200):
        q = su2.random_element(rng)
        assert np.linalg.norm(su2.log(q)) < np.pi


@given(unit_quaternions())
def test_ad_matches_conjugation_oracle(q):
    assert np.allclose(su2.ad(q), oracles.adjoint_matrix(q), atol=1e-10)


@given(unit_quaternions(), unit_quaternions())
def test_ad_is_homomorphism(a, b):
    assert np.allclose(su2.ad(su2.multiply(a, b)), su2.ad(a) @ su2.ad(b),
                       atol=1e-10)


@pytest.mark.parametrize("q", [
    np.array([-1.0, 0.0, 0.0, 0.0]),
    np.array([-0.6, 0.0, 0.8, 0.0]),
    np.array([-0.9, 0.1, -0.3, 0.2]) / np.linalg.norm([-0.9, 0.1, -0.3, 0.2]),
])
def test_multiply_and_ad_with_negative_w(q):
    # w < 0 is a distinct group element: no hemisphere flip anywhere
    r = su2.exp(np.array([0.3, -1.1, 0.5]))
    assert np.allclose(su2.multiply(q, r), oracles.quat_mul(q, r), atol=1e-14)
    assert np.allclose(su2.multiply(r, q), oracles.quat_mul(r, q), atol=1e-14)
    assert np.allclose(su2.ad(q), oracles.adjoint_matrix(q), atol=1e-14)


def test_minus_identity_is_central():
    minus = np.array([-1.0, 0.0, 0.0, 0.0])
    r = su2.exp(np.array([0.3, -1.1, 0.5]))
    assert np.array_equal(su2.multiply(minus, r), -r)
    assert np.array_equal(su2.multiply(minus, minus), su2.identity())
    assert np.array_equal(su2.ad(minus), np.eye(3))


@given(unit_quaternions())
def test_ad_is_rotation(q):
    A = su2.ad(q)
    assert np.allclose(A.T @ A, np.eye(3), atol=1e-10)
    assert abs(np.linalg.det(A) - 1.0) < 1e-10


def test_ad_of_axis_rotation():
    # exp(theta e1) rotates the (e2, e3) plane by 2 theta
    theta = 0.37
    A = su2.ad(su2.exp(theta * np.array([1.0, 0.0, 0.0])))
    c, s = np.cos(2 * theta), np.sin(2 * theta)
    expected = np.array([[1, 0, 0], [0, c, -s], [0, s, c]], dtype=float)
    assert np.allclose(A, expected, atol=1e-12)


def test_trace():
    assert su2.trace(su2.identity()) == 2.0
    assert su2.trace(np.array([-1.0, 0, 0, 0])) == -2.0
    theta = 1.1
    q = su2.exp(theta * np.array([0, 1.0, 0]))
    assert abs(su2.trace(q) - 2 * np.cos(theta)) < 1e-12


def test_trace_pairing_is_trace_derivative():
    rng = np.random.default_rng(5)
    for _ in range(50):
        q = su2.random_element(rng)
        x = rng.normal(size=3)
        f = lambda t: su2.trace(su2.multiply(su2.exp(t * x), q))
        fd = oracles.central_difference(f, 1e-6)
        assert abs(su2.trace_pairing(x, q) - fd) < 1e-7


@given(unit_quaternions(), unit_quaternions())
def test_conjugate(a, b):
    expected = oracles.quat_mul(oracles.quat_mul(b, a),
                                np.array([b[0], -b[1], -b[2], -b[3]]))
    assert np.allclose(su2.conjugate(a, b), expected, atol=1e-12)


def test_haar_sampler_is_deterministic_and_unit():
    a = su2.random_element(np.random.default_rng(7))
    b = su2.random_element(np.random.default_rng(7))
    assert np.array_equal(a, b)
    assert abs(np.linalg.norm(a) - 1.0) < 1e-12


@pytest.mark.parametrize("g", [2, 5, 48])
def test_a_stacked_draw_is_that_many_lone_draws(g):
    # a (n, g) stack takes the stream n * g lone draws take, each lone
    # draw a Gaussian 4-vector over its np.linalg.norm, bit for bit
    for seed in range(4):
        stack = su2.random_element(np.random.default_rng(seed), (7, g))
        rng, lone = np.random.default_rng(seed), np.random.default_rng(seed)
        for q in stack.reshape(-1, 4):
            v = rng.normal(size=4)
            assert q.tobytes() == (v / np.linalg.norm(v)).tobytes()
            assert q.tobytes() == su2.random_element(lone).tobytes()


@settings(max_examples=25)
@given(unit_quaternions(), algebra_vectors())
def test_ad_moves_exp(q, v):
    # q exp(v) q^-1 = exp(Ad(q) v)
    left = su2.conjugate(su2.exp(v), q)
    right = su2.exp(su2.ad(q) @ v)
    assert np.allclose(left, right, atol=1e-10)


# exact rows: ±identity, axis quaternions, signed zeros, and a row with
# w w - y y = 0 and x x subnormal, where (2 x) x differs from 2 (x x)
EXACT_UNITS = [np.array(v) for v in (
    [1.0, 0.0, 0.0, 0.0], [-1.0, -0.0, 0.0, -0.0], [0.0, 1.0, 0.0, 0.0],
    [-0.0, 0.0, -1.0, 0.0], [0.0, -0.0, 0.0, 1.0], [0.6, -0.0, 0.8, -0.0],
    [-0.0, -0.6, 0.0, -0.8], [0.5 ** 0.5, 1e-159, 0.5 ** 0.5, 0.0])]
EXACT_VECTORS = [np.array(v) for v in (
    [0.0, 0.0, 0.0], [-0.0, 0.0, -0.0], [1e-12, 0.0, -0.0],
    [0.0, np.pi / 2, 0.0], [-0.0, 0.0, -np.pi])]


@st.composite
def stacks(draw, rows, exact, shape=None):
    """An (N, w) or (N, k, w) stack of drawn and exact rows, or one of
    the given shape."""
    if shape is None:
        shape = draw(st.sampled_from([(), (1,), (3,)]))
        shape = (draw(st.integers(1, 5)),) + shape + (len(exact[0]),)
    count = int(np.prod(shape[:-1]))
    row = st.one_of(rows, st.sampled_from(exact))
    return np.array(draw(st.lists(row, min_size=count, max_size=count)),
                    dtype=float).reshape(shape)


def assert_rows_are_lone(f, *args):
    """Each row of f over stacks is f over that row, bit for bit (signed
    zeros too); a (4,) argument is broadcast against every row."""
    out = f(*args)
    for i in np.ndindex(np.broadcast_shapes(*(a.shape[:-1] for a in args))):
        lone = f(*(a if a.ndim == 1 else a[i] for a in args))
        assert out[i].tobytes() == lone.tobytes()


def strided_views(q):
    """q and, for an (N, k, w) stack, its columns q[..., j, :]."""
    columns = [q[..., j, :] for j in range(q.shape[1])] if q.ndim == 3 else []
    return [q] + columns


@settings(max_examples=60)
@given(stacks(unit_quaternions(), EXACT_UNITS))
def test_stacked_ad_rows_are_lone_calls(q):
    for view in strided_views(q):
        assert_rows_are_lone(su2.ad, view)


@settings(max_examples=60)
@given(st.data())
def test_stacked_multiply_rows_are_lone_calls(data):
    a = data.draw(stacks(unit_quaternions(), EXACT_UNITS))
    b = data.draw(stacks(unit_quaternions(), EXACT_UNITS, a.shape))
    lone = data.draw(st.one_of(unit_quaternions(), st.sampled_from(EXACT_UNITS)))
    for u, v in zip(strided_views(a), strided_views(b)):
        assert_rows_are_lone(su2.multiply, u, v)
        assert_rows_are_lone(su2.multiply, u, lone)
        assert_rows_are_lone(su2.multiply, lone, v)


@settings(max_examples=60)
@given(stacks(algebra_vectors(), EXACT_VECTORS))
def test_stacked_exp_rows_are_lone_calls(x):
    for view in strided_views(x):
        assert_rows_are_lone(su2.exp, view)


@settings(max_examples=60)
@given(stacks(unit_quaternions(), EXACT_UNITS))
def test_running_product_is_the_left_fold_of_multiply(q):
    # an (N, 4) array is one sequence; an (N, k, 4) stack holds N of them
    stacked = su2.running_product(q)
    for i, seq in enumerate([q] if q.ndim == 2 else q):
        want = [seq[0]]
        for b in seq[1:]:
            want.append(su2.multiply(want[-1], b))
        lone = su2.running_product(seq)
        assert lone.tobytes() == np.array(want).tobytes()
        if q.ndim == 3:
            assert stacked[i].tobytes() == lone.tobytes()
