import contextlib
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from scipy.linalg import lu_factor, lu_solve

from herdquad.kernels import STANDARDIZATION_TOL, CandidatePool, Kernel, as_point_matrix
from herdquad.selectors import run_greedy, setup_pool
from herdquad.state import PoolScores

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=40,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def rng():
    return np.random.default_rng(2026)


@pytest.fixture(params=[2, 3], ids=["2cores", "3cores"])
def cores(request, monkeypatch):
    """The CPU count ``PoolScores`` reads, pinned so a large pool blocks on any host."""
    from herdquad import state

    monkeypatch.setattr(state, "usable_cpus", lambda: request.param)
    return request.param


@pytest.fixture
def rbf_unit():
    from herdquad.kernels import RBFKernel

    return RBFKernel(1.0)


@pytest.fixture
def two_point_discrete(rbf_unit):
    """Uniform discrete target on {(0), (2)} under the unit RBF kernel."""
    from herdquad.targets import DiscreteTarget

    support = np.array([[0.0], [2.0]])
    return DiscreteTarget.uniform(support, rbf_unit)


@pytest.fixture
def std_normal_target(rbf_unit):
    from herdquad.targets import GaussianMixtureTarget

    return GaussianMixtureTarget(
        weights=np.array([1.0]),
        means=np.zeros((1, 1)),
        covs=np.ones((1, 1, 1)),
        kernel=rbf_unit,
    )


@dataclass(frozen=True)
class PrecomputedKernel(Kernel):
    """Explicit symmetric similarity matrix, for test fixtures.

    Points for this kernel are 1-d index vectors: entry i of the matrix is
    addressed by the point ``[i]``.  ``index_pool`` builds the matching
    candidate pool.  The matrix must be symmetric with a unit diagonal.
    Two instances are equal when their matrices are.
    """

    matrix: np.ndarray

    def __post_init__(self):
        M = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", M)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError("similarity matrix must be square")
        if not np.allclose(M, M.T, atol=1e-12, rtol=0.0):
            raise ValueError("similarity matrix must be symmetric")
        if np.max(np.abs(np.diag(M) - 1.0)) > STANDARDIZATION_TOL:
            raise ValueError("similarity matrix diagonal must equal 1")

    def __eq__(self, other):
        if not isinstance(other, PrecomputedKernel):
            return NotImplemented
        return np.array_equal(self.matrix, other.matrix)

    def prepare(self, X) -> np.ndarray:
        """The integer matrix indices of a batch of index points."""
        X = as_point_matrix(X)
        if X.shape[1] != 1:
            raise ValueError("precomputed kernels take 1-d index points")
        idx = np.rint(X[:, 0]).astype(int)
        if np.any(np.abs(X[:, 0] - idx) > 1e-9):
            raise ValueError("index points must be integral")
        n = self.matrix.shape[0]
        if idx.size and (idx.min() < 0 or idx.max() >= n):
            raise IndexError(f"index point out of range for a {n} x {n} matrix")
        return idx

    def cross(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        return self.matrix[np.ix_(A, B)]

    def diagonal(self, A: np.ndarray) -> np.ndarray:
        return self.matrix[A, A]

    def index_pool(self) -> CandidatePool:
        n = self.matrix.shape[0]
        return CandidatePool.from_points(np.arange(n, dtype=float)[:, None])


def unchecked_matrix_kernel(matrix):
    """A ``PrecomputedKernel`` built without its unit-diagonal check: a
    deliberately non-standardized fixture."""

    class UncheckedMatrixKernel(PrecomputedKernel):
        def __post_init__(self):
            object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=float))

    return UncheckedMatrixKernel(matrix)


def random_mixture(rng, components=3, dim=2):
    from herdquad.kernels import RBFKernel
    from herdquad.targets import GaussianMixtureTarget

    weights = rng.dirichlet(np.ones(components))
    means = rng.uniform(-2.0, 2.0, size=(components, dim))
    covs = np.stack([np.diag(rng.uniform(0.1, 0.6, size=dim)) for _ in range(components)])
    return GaussianMixtureTarget(weights, means, covs, RBFKernel(1.0))


def dense_scores(state, X):
    """Residual correlations r and Schur complements s of points X, from LU
    solves on K = k(atoms, atoms): an oracle that uses no triangular factor.

    r = z - k_x^T K^{-1} z and s = k(x, x) - k_x^T K^{-1} k_x per point.
    """
    kern = state.kernel
    X = as_point_matrix(X)
    z = state.target.mean_embed_many(X)
    diag = kern.diagonal(kern.prepare(X))
    if state.size == 0:
        return z, diag
    lu = lu_factor(kern.gram(state.atoms, state.atoms))
    C = kern.gram(state.atoms, X)
    return z - C.T @ lu_solve(lu, state.embeds), diag - np.einsum("ij,ij->j", C, lu_solve(lu, C))


def assert_dense_scores(state, X, resid, schur, overwritten=None):
    """r and s of points X agree with the dense oracle's LU solves to 1e-10
    plus the oracle's own round-off, which grows with the condition number
    of K: over 300 seeds of ``test_state.py``'s hypothesis runs it stayed
    under 1.6 eps cond(K), against the 4.5 eps cond(K) allowed here.  Points
    marked in the bool array ``overwritten`` are left out of s."""
    atol = 1e-10 + (1e-15 * np.linalg.cond(state.gram) if state.size else 0.0)
    dense_resid, dense_schur = dense_scores(state, X)
    kept = slice(None) if overwritten is None else ~overwritten
    np.testing.assert_allclose(resid, dense_resid, rtol=0.0, atol=atol)
    np.testing.assert_allclose(schur[kept], dense_schur[kept], rtol=0.0, atol=atol)


def assert_step_backward_errors(scores, row, overwritten):
    """The backward errors of the step that made pool row ``row`` the m-th
    atom are at most 4 m eps: of the newest row of L against its row of
    K = k(atoms, atoms), of the newest row of Y against the atom's kernel
    row k(x, pool), and of s and r against diag - colsum(Y^2) and
    z - Y^T alpha over the stored Y.  Rows in ``overwritten`` were given s
    by the caller, as ``run_greedy`` gives a rejected candidate its own
    Schur complement, and are left out of s.

    Derived as ``test_differential.assert_orthogonal`` derives its bound.
    Kernel values lie in [-1, 1] and every kernel here has a unit diagonal,
    so the rows of L and the columns of Y have norm at most 1, and so has
    alpha, whose squared norm is c - g.  A sum of m products of such
    vectors rounds by at most m eps, whether it is one of the forward
    substitutions that made a row of L or of Y, one of the m updates that
    made s or r, or the recomputation here.  Backward errors of
    backward-stable steps, these bounds do not grow with cond(K), which
    ``assert_dense_scores`` must allow for.  Over the differential
    instances the largest error was 2 m eps, in s at one atom.
    """
    st, setup = scores.state, CheckedScores.setup
    m = st.size
    L, Y = st.chol, np.hstack([block[:m] for block in scores.proj])
    k_atoms = st.kernel.gram(st.atoms[m - 1], st.atoms)[0]
    k_pool = st.kernel.cross(setup.prepared[row:row + 1], setup.prepared)[0]
    errors = {
        "L L^T = K": L[-1] @ L.T - k_atoms,
        "L Y = k(atoms, pool)": L[-1] @ Y - k_pool,
        "s = diag - colsum(Y^2)":
            (scores.schur - setup.diag + np.einsum("ij,ij->j", Y, Y))[~overwritten],
        "r = z - Y^T alpha": scores.resid - setup.embeds + Y.T @ st.alpha,
    }
    in_m_eps = {name: float(np.max(np.abs(e))) / (m * np.finfo(float).eps)
                for name, e in errors.items()}
    assert max(in_m_eps.values()) <= 4, in_m_eps


class CheckedScores(PoolScores):
    """PoolScores that, after every step, checks the step's backward errors
    and compares its r and s with the state's from-scratch ``scores`` on
    the pool's setup and with the dense oracle.  Rows whose s the caller
    overwrote between steps, as ``run_greedy`` does on a rejection, are left
    out of every s comparison from then on; r is compared on every row."""

    setup = points = None  # the pool's setup and points, set by the test
    checked = 0
    blocks = 0

    @contextlib.contextmanager
    def steps(self):
        CheckedScores.blocks = len(self.bounds) - 1
        setup = CheckedScores.setup
        stepped = self.schur.copy()  # s as the last step left it
        overwritten = np.zeros(len(stepped), dtype=bool)
        with super().steps() as step:
            def checked_step(row):
                overwritten[self.schur != stepped] = True
                step(row)
                stepped[:] = self.schur
                assert_step_backward_errors(self, row, overwritten)
                resid, schur = self.state.scores(setup.prepared, setup.embeds, setup.diag)
                np.testing.assert_allclose(self.resid, resid, rtol=0.0, atol=1e-10)
                np.testing.assert_allclose(self.schur[~overwritten], schur[~overwritten],
                                           rtol=0.0, atol=1e-10)
                assert_dense_scores(self.state, CheckedScores.points, self.resid, self.schur,
                                    overwritten)
                CheckedScores.checked += 1
            yield checked_step


def assert_pool_scores_match_from_scratch(method, pool, target, k, checked=CheckedScores):
    """Run ``run_greedy`` with ``checked``, ``CheckedScores`` or a subclass,
    in place of ``PoolScores``; every accepted step must have been checked.
    Returns the trace."""
    CheckedScores.setup = setup_pool(pool, target, target.kernel)  # the one run_greedy reuses
    CheckedScores.points = pool.points
    CheckedScores.checked = 0
    with mock.patch("herdquad.selectors.PoolScores", checked):
        _, trace = run_greedy(method, pool, target, target.kernel, k)
    assert CheckedScores.checked == len(trace.rows) > 0
    return trace


def assert_same_distributed(a, b):
    """Two ``DistributedResult``s agree bit for bit: the winner, each
    solution's label, ids, g and weight bytes, and each trace's chosen ids,
    stop reason and g bytes."""
    assert a.winner_index == b.winner_index
    for x, y in zip(a.solutions, b.solutions, strict=True):
        assert (x.label, x.ids, x.mmd_sq) == (y.label, y.ids, y.mmd_sq)
        assert x.weights.tobytes() == y.weights.tobytes()
    for x, y in zip(a.traces, b.traces, strict=True):
        assert x.chosen_ids == y.chosen_ids and x.stop_reason == y.stop_reason
        assert x.mmd_values.tobytes() == y.mmd_values.tobytes()
