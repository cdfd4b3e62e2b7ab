import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from herdquad.kernels import (
    CandidatePool,
    NormalizedFeatureKernel,
    RBFKernel,
    ZeroNormFeature,
    unit_diagonal,
)
from tests.conftest import PrecomputedKernel, unchecked_matrix_kernel


def pool_is_standardized(kern, pool):
    return unit_diagonal(kern.diagonal(kern.prepare(pool.points)))


def test_rbf_diagonal_is_one(rbf_unit):
    x = np.array([0.3, -1.7])
    assert rbf_unit.gram(x, x)[0, 0] == 1.0


def test_rbf_known_value(rbf_unit):
    assert rbf_unit.gram(np.array([0.0]), np.array([2.0]))[0, 0] == pytest.approx(np.exp(-2.0),
                                                                                  rel=1e-15)


def test_rbf_rejects_nonpositive_bandwidth():
    with pytest.raises(ValueError):
        RBFKernel(0.0)
    with pytest.raises(ValueError):
        RBFKernel(-1.5)


def test_rbf_dimension_mismatch(rbf_unit):
    with pytest.raises(ValueError):
        rbf_unit.gram(np.zeros((2, 2)), np.zeros((2, 3)))


def test_gram_row_matches_full_gram(rbf_unit, rng):
    pts = rng.normal(size=(7, 3))
    x = rng.normal(size=3)
    row = rbf_unit.gram(x, pts)[0]
    full = rbf_unit.gram(np.vstack([x, pts]), pts)[0]
    np.testing.assert_allclose(row, full, rtol=0, atol=0)


def test_gram_row_empty_subset(rbf_unit):
    assert rbf_unit.gram(np.array([1.0, 2.0]), np.zeros((0, 2)))[0].shape == (0,)


points_strategy = hnp.arrays(
    dtype=float,
    shape=st.tuples(st.integers(2, 12), st.integers(1, 4)),
    elements=st.floats(-5, 5, allow_nan=False, allow_infinity=False),
)


@given(X=points_strategy, bw=st.floats(0.2, 4.0))
def test_rbf_gram_symmetric_psd_bounded(X, bw):
    kern = RBFKernel(bw)
    K = kern.gram(X, X)
    assert np.max(np.abs(K - K.T)) <= 1e-14
    assert np.min(np.linalg.eigvalsh(K)) >= -1e-8
    assert np.all(K <= 1.0 + 1e-12) and np.all(K >= -1.0 - 1e-12)


@given(X=points_strategy)
def test_normalized_feature_gram_symmetric_psd(X):
    # shift away from the origin so no feature row can have zero norm
    X = X + 10.0
    kern = NormalizedFeatureKernel()
    K = kern.gram(X, X)
    assert np.max(np.abs(K - K.T)) <= 1e-14
    assert np.min(np.linalg.eigvalsh(K)) >= -1e-8
    np.testing.assert_allclose(np.diag(K), 1.0, atol=1e-12)


def test_normalized_feature_cosine_value():
    kern = NormalizedFeatureKernel()
    v = kern.gram(np.array([1.0, 0.0]), np.array([1.0, 1.0]))[0, 0]
    assert v == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-14)


def test_normalized_feature_zero_norm_rejected():
    kern = NormalizedFeatureKernel()
    with pytest.raises(ZeroNormFeature):
        kern.gram(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([[1.0, 0.0]]))


def test_precomputed_requires_symmetry():
    with pytest.raises(ValueError, match="symmetric"):
        PrecomputedKernel(np.array([[1.0, 0.2], [0.3, 1.0]]))


def test_precomputed_requires_unit_diag_by_default():
    M = np.array([[2.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="diagonal"):
        PrecomputedKernel(M)


def test_precomputed_lookup_and_pool():
    M = np.array([[1.0, 0.0], [0.0, 1.0]])
    kern = PrecomputedKernel(M)
    pool = kern.index_pool()
    assert len(pool) == 2
    assert kern.gram(pool.points[0], pool.points[1])[0, 0] == 0.0
    with pytest.raises(IndexError):
        kern.gram(np.array([5.0]), np.array([0.0]))


def test_pool_ids_survive_take():
    pool = CandidatePool.from_points(np.arange(10.0).reshape(-1, 2))
    sub = pool.take(np.array([1, 4]))
    np.testing.assert_array_equal(sub.ids, [1, 4])
    np.testing.assert_array_equal(sub.point_by_id(4), pool.points[4])
    with pytest.raises(IndexError):
        pool.take(np.array([99]))
    with pytest.raises(ValueError, match="increasing"):
        pool.take(np.array([4, 1]))


def test_pool_rejects_duplicate_ids():
    for ids in ([3, 3], [1, 0]):
        with pytest.raises(ValueError, match="unique"):
            CandidatePool(points=np.zeros((2, 1)), ids=np.array(ids))


def test_pool_rejects_nonfinite_points():
    with pytest.raises(ValueError, match="finite"):
        CandidatePool.from_points(np.array([[np.nan], [0.0]]))


def test_unit_diagonal_accepts_rbf(rbf_unit, rng):
    pool = CandidatePool.from_points(rng.normal(size=(6, 2)))
    assert pool_is_standardized(rbf_unit, pool)


def test_unit_diagonal_flags_bad_diagonal():
    M = np.array([[1.0, 0.1], [0.1, 0.5]])
    kern = unchecked_matrix_kernel(M)
    pool = kern.index_pool()
    assert not pool_is_standardized(kern, pool)


def _squares_map(X):
    return np.hstack([X, X**2, np.ones((X.shape[0], 1))])


def _kernels_and_pools():
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(30, 5))
    U = pts / np.linalg.norm(pts, axis=1)[:, None]
    M = U @ U.T
    M = (M + M.T) / 2.0
    np.fill_diagonal(M, 1.0)
    precomputed = PrecomputedKernel(M)
    return [
        (RBFKernel(0.8), pts),
        (NormalizedFeatureKernel(), pts),
        (NormalizedFeatureKernel(), _squares_map(pts)),  # a feature map's kernel
        (precomputed, precomputed.index_pool().points),
    ]


@pytest.mark.parametrize("kern, pts", _kernels_and_pools(),
                         ids=["rbf", "feature", "feature_map", "precomputed"])
def test_prepared_rows_equal_gram_rows_bit_for_bit(kern, pts):
    P = kern.prepare(pts)
    order = np.random.default_rng(3).permutation(len(pts))
    np.testing.assert_array_equal(kern.cross(P, kern.prepare(pts)), kern.gram(pts, pts))
    for row in range(len(pts)):
        np.testing.assert_array_equal(kern.cross(P[row:row + 1], P)[0], kern.gram(pts[row], pts)[0])
        np.testing.assert_array_equal(kern.cross(P[row:row + 1], P[order[:row]])[0],
                                      kern.gram(pts[row], pts[order[:row]])[0])
    empty = pts[:0]
    for got, want in ((kern.cross(kern.prepare(empty), P), kern.gram(empty, pts)),
                      (kern.cross(P[:1], kern.prepare(empty)), kern.gram(pts[:1], empty))):
        assert got.shape == want.shape
        np.testing.assert_array_equal(got, want)
