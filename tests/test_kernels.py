import json
import os
import subprocess
import sys
from pathlib import Path

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
from herdquad.state import BLOCK_ALIGN, BLOCK_MIN_COLUMNS
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


def test_a_pool_equals_and_hashes_as_itself_only():
    pool = CandidatePool.from_points(np.arange(12.0).reshape(-1, 2))
    sub, twin = pool.take([0, 1, 2]), CandidatePool(points=pool.points, ids=pool.ids)
    assert pool == pool and pool != sub and pool != twin and not pool != pool
    assert {pool: "pool", sub: "sub", twin: "twin"}[pool] == "pool"


def test_pool_owns_read_only_copies_of_its_arrays():
    points, ids = np.arange(10.0).reshape(-1, 2), np.arange(5)
    pool = CandidatePool(points=points, ids=ids)
    sub = pool.take(np.array([1, 4]))
    for arr in (pool.points, pool.ids, sub.points, sub.ids):
        assert not np.shares_memory(arr, points) and not np.shares_memory(arr, ids)
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0
    assert not np.shares_memory(sub.points, pool.points)
    points[:] = -1.0  # the caller's arrays stay the caller's
    ids[:] = 0
    np.testing.assert_array_equal(pool.points, np.arange(10.0).reshape(-1, 2))
    np.testing.assert_array_equal(pool.ids, np.arange(5))


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


# ------------------------------------------ kernel rows over parts of a pool
# A blocked WKH/SBQ step (state.PoolScores) computes each block's columns of
# a pick's kernel row on their own and, under an entrywise kernel, takes the
# entries add_atom needs from one cross of the pick against the atoms.


def test_only_the_rbf_kernel_computes_its_entries_pair_by_pair():
    assert RBFKernel(0.8).entrywise
    assert not NormalizedFeatureKernel().entrywise
    assert not PrecomputedKernel(np.eye(2)).entrywise  # the base class's default


@pytest.mark.parametrize("dim", [1, 2, 8, 33])
def test_an_rbf_row_over_any_subset_equals_those_entries_of_the_whole_row(dim):
    """Ascending subsets, and the same rows in any order, of 1 to n points."""
    rng = np.random.default_rng(dim)
    kern = RBFKernel(0.9)
    P = kern.prepare(rng.normal(size=(5 * BLOCK_ALIGN + 7, dim)))
    for row in rng.choice(len(P), size=8, replace=False):
        whole = kern.cross(P[row:row + 1], P)[0]
        for size in (1, 2, 7, BLOCK_ALIGN, 101, len(P)):
            subset = np.sort(rng.choice(len(P), size=size, replace=False))
            np.testing.assert_array_equal(kern.cross(P[row:row + 1], P[subset])[0], whole[subset])
            shuffled = rng.permutation(subset)
            np.testing.assert_array_equal(kern.cross(P[row:row + 1], P[shuffled])[0],
                                          whole[shuffled])


def _aligned_ranges(n: int, rng) -> list:
    """Column ranges [start, stop) with both ends multiples of BLOCK_ALIGN or
    n: the blocks of 2 to 4 CPUs, as PoolScores bounds them, and 30 more."""
    ranges = []
    for blocks in (2, 3, 4):
        bounds = [0] + [n * b // blocks // BLOCK_ALIGN * BLOCK_ALIGN
                        for b in range(1, blocks)] + [n]
        ranges += list(zip(bounds, bounds[1:]))
    edges = list(range(0, n, BLOCK_ALIGN)) + [n]
    for _ in range(30):
        a, b = np.sort(rng.choice(len(edges), size=2, replace=False))
        ranges.append((edges[a], edges[b]))
    return ranges


def _aligned_mismatches(kern, dim: int) -> list:
    """(row, start, stop) of every aligned range where a row of a pool of
    6 * BLOCK_MIN_COLUMNS + 77 points differs from that slice of the whole row."""
    rng = np.random.default_rng(dim)
    n = 6 * BLOCK_MIN_COLUMNS + 77
    P = kern.prepare(rng.normal(size=(n, dim)))
    ranges = _aligned_ranges(n, rng)
    mismatches = []
    for row in rng.choice(n, size=4, replace=False).tolist():
        whole = kern.cross(P[row:row + 1], P)[0]
        mismatches += [(row, start, stop) for start, stop in ranges
                       if not np.array_equal(kern.cross(P[row:row + 1], P[start:stop])[0],
                                             whole[start:stop])]
    return mismatches


@pytest.mark.parametrize("dim", [2, 8])
def test_an_rbf_row_over_an_aligned_column_range_equals_that_slice_of_the_whole_row(dim):
    assert _aligned_mismatches(RBFKernel(0.9), dim) == []


@pytest.mark.parametrize("dim", [33, 64])
def test_a_feature_row_over_an_aligned_column_range_equals_that_slice_under_one_blas_thread(dim):
    """The feature kernel's BLAS product rounds an entry with the batch's
    length, but one BLAS thread groups aligned columns alike.  Checked in a
    fresh interpreter pinned to one BLAS thread: under two OpenBLAS threads
    the whole row's product splits at column n // 2, which is not aligned,
    and entries next to the split round otherwise; so a feature-kernel
    pool never splits into blocks."""
    root = Path(__file__).resolve().parent.parent
    code = ("import json, sys; from herdquad.kernels import NormalizedFeatureKernel; "
            "from tests.test_kernels import _aligned_mismatches; "
            "print(json.dumps(_aligned_mismatches(NormalizedFeatureKernel(), int(sys.argv[1]))))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]),
               OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", code, str(dim)], cwd=root, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout.splitlines()[-1]) == []
