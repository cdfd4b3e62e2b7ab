"""WKH/SBQ runs on pools split into column blocks, one per core.

Under the RBF kernel, a pool of at least twice ``BLOCK_MIN_COLUMNS`` rows
splits into blocks whose products run on helper threads; a feature-kernel
pool stays one block at any size.  Every test here pins the usable CPU
count, so the pools block on any host, and compares with the same run kept
in one block on a worker thread started with ``share_cores``, the
initializer ``run_distributed`` gives its concurrent workers.
"""

import multiprocessing
import os
import sys
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest

from herdquad import selectors, state
from herdquad.distributed import run_distributed
from herdquad.kernels import CandidatePool, NormalizedFeatureKernel, RBFKernel
from herdquad.selectors import run_greedy, setup_pool
from herdquad.state import (
    BLOCK_ALIGN,
    BLOCK_MIN_COLUMNS,
    NearDependentAtom,
    PoolScores,
    QuadratureState,
    share_cores,
)
from herdquad.targets import DiscreteTarget, GaussianMixtureTarget
from tests.conftest import random_mixture

N = 3 * BLOCK_MIN_COLUMNS + 100  # three blocks at most, and a remainder


class _Spy(PoolScores):
    """PoolScores that records itself for the test."""

    seen: list = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        _Spy.seen.append(self)


class Run:
    """One run_greedy call: its result, trace, pool-wide scores and the
    number of block helper threads it started."""

    def __init__(self, method, pool, target, k, one_block=False):
        _Spy.seen = []
        helpers = []
        start = threading.Thread.start

        def counting_start(thread):
            if thread.name == "herdquad-block":
                helpers.append(thread)
            return start(thread)

        with (mock.patch.object(selectors, "PoolScores", _Spy),
              mock.patch.object(threading.Thread, "start", counting_start)):
            if one_block:
                with ThreadPoolExecutor(1, initializer=share_cores) as worker:
                    self.state, self.trace = worker.submit(
                        run_greedy, method, pool, target, target.kernel, k).result()
            else:
                self.state, self.trace = run_greedy(method, pool, target, target.kernel, k)
        (self.core,) = _Spy.seen
        self.bounds = self.core.bounds
        self.helpers = len(helpers)


def assert_same_bits(a: Run, b: Run):
    """Picks, g, weights and the factor, and also r and s over the whole
    pool, which only a pick they flip would carry into the state."""
    assert a.trace.chosen_ids == b.trace.chosen_ids
    assert a.trace.mmd_values.tobytes() == b.trace.mmd_values.tobytes()
    assert a.state.weights.tobytes() == b.state.weights.tobytes()
    assert a.state.chol.tobytes() == b.state.chol.tobytes()
    assert a.trace.stop_reason == b.trace.stop_reason
    assert a.core.resid.tobytes() == b.core.resid.tobytes()
    assert a.core.schur.tobytes() == b.core.schur.tobytes()


def blocked_and_one_block(method, pool, target, k, blocks) -> Run:
    """A plain run, in ``blocks`` blocks with a helper thread for each but
    the first, matching a ``share_cores`` worker's one-block run bit for bit."""
    blocked = Run(method, pool, target, k)
    one = Run(method, pool, target, k, one_block=True)
    assert len(blocked.bounds) == blocks + 1 and blocked.helpers == blocks - 1
    assert one.bounds == [0, len(pool)] and one.helpers == 0
    assert_same_bits(blocked, one)
    return blocked


def rbf_problem(dim, n=N, seed=3):
    rng = np.random.default_rng(seed)
    target = random_mixture(rng, components=4, dim=dim)
    return CandidatePool.from_points(target.sample(n, rng)), target


def feature_problem(n=N, dim=64, seed=4):
    rng = np.random.default_rng(seed)
    kern = NormalizedFeatureKernel()
    target = DiscreteTarget.uniform(rng.normal(size=(40, dim)), kern)
    return CandidatePool.from_points(rng.normal(size=(n, dim))), target


def saturating_problem(n=N, seed=5):
    """Wide kernel, pool drawn from the target: g reaches round-off."""
    rng = np.random.default_rng(seed)
    kern = RBFKernel(3.0)
    target = GaussianMixtureTarget(
        rng.dirichlet(np.ones(3)), rng.uniform(-2.0, 2.0, size=(3, 2)),
        np.stack([np.diag(rng.uniform(0.1, 0.6, size=2)) for _ in range(3)]), kern)
    return CandidatePool.from_points(target.sample(n, rng)), target


# problem: (pool and target, blocks at the pinned CPU count).  n // BLOCK_MIN_COLUMNS
# caps the threshold pools at 2 blocks on 2 and 3 CPUs; the feature kernel never blocks.
PROBLEMS = {
    "rbf_d2": (lambda: rbf_problem(2), lambda cores: cores),
    "rbf_d8": (lambda: rbf_problem(8), lambda cores: cores),
    "feature_discrete": (feature_problem, lambda cores: 1),
    "rbf_below_threshold": (lambda: rbf_problem(2, n=2 * BLOCK_MIN_COLUMNS - 1),
                            lambda cores: 1),
    "rbf_at_threshold": (lambda: rbf_problem(2, n=2 * BLOCK_MIN_COLUMNS), lambda cores: 2),
    "rbf_past_threshold": (lambda: rbf_problem(2, n=2 * BLOCK_MIN_COLUMNS + BLOCK_ALIGN + 1),
                           lambda cores: 2),
    "feature_at_threshold": (lambda: feature_problem(n=2 * BLOCK_MIN_COLUMNS), lambda cores: 1),
}


@pytest.mark.parametrize("method", ["WKH", "SBQ"])
@pytest.mark.parametrize("problem", list(PROBLEMS))
def test_blocked_runs_match_one_block_bit_for_bit(method, problem, cores):
    """A pool blocks only under the RBF kernel and from 2 * BLOCK_MIN_COLUMNS
    rows, and its run matches a one-block run bit for bit; a feature pool
    runs in one block, with no helper thread, at any size."""
    make, blocks = PROBLEMS[problem]
    pool, target = make()
    blocked = blocked_and_one_block(method, pool, target, 40, blocks(cores))
    assert len(blocked.trace.rows) == 40
    assert all(b % BLOCK_ALIGN == 0 for b in blocked.bounds[1:-1])
    assert min(np.diff(blocked.bounds)) >= BLOCK_MIN_COLUMNS - BLOCK_ALIGN


@pytest.mark.parametrize("method", ["WKH", "SBQ"])
def test_objective_floor_stop_matches_one_block(method, cores):
    pool, target = saturating_problem()
    trace = blocked_and_one_block(method, pool, target, 200, cores).trace
    assert trace.stop_reason == "objective_floor"


@pytest.mark.parametrize("method", ["WKH", "SBQ"])
def test_a_callers_raising_errstate_leaves_the_run_unchanged(method, cores):
    """SBQ divides by the zero s of every atom's row, and past the floor by
    tiny and negative ones; the run's own errstate keeps a caller's
    ``all="raise"`` from turning that into an error or another pick."""
    pool, target = saturating_problem()
    plain = Run(method, pool, target, 200)
    with np.errstate(all="raise"):
        strict = Run(method, pool, target, 200)
    assert strict.trace.stop_reason == "objective_floor"
    assert_same_bits(strict, plain)


@pytest.mark.parametrize("method", ["WKH", "SBQ"])
def test_all_dependent_pool_matches_one_block(method, cores):
    """Eight distinct points, each repeated across every block."""
    rng = np.random.default_rng(6)
    target = random_mixture(rng, components=2)
    distinct = rng.normal(size=(8, 2), scale=2.0)
    pool = CandidatePool.from_points(distinct[np.arange(N) % 8])
    trace = blocked_and_one_block(method, pool, target, 20, cores).trace
    assert trace.stop_reason == "all_dependent"
    assert sorted(trace.chosen_ids) == list(range(8))


@pytest.mark.parametrize("one_block", [False, True], ids=["blocked", "one_block"])
def test_each_pick_attempt_scores_the_whole_pool_once(one_block, cores, monkeypatch):
    """One scoring call per ``add_atom`` attempt, a rejected one included,
    over the pool's own r and s, into the same two buffers."""
    pool, target = rbf_problem(2)
    calls, attempts = [], []
    score, add_atom = selectors._scores, QuadratureState.add_atom

    def counting_score(method, resid, schur, out, mask):
        calls.append((resid, schur, out, mask))
        return score(method, resid, schur, out, mask)

    def counting_add_atom(self, x, pool_id, *args, **kwargs):
        attempts.append(pool_id)
        if len(attempts) == 2:
            raise NearDependentAtom(pool_id, 0.0)
        return add_atom(self, x, pool_id, *args, **kwargs)

    monkeypatch.setattr(selectors, "_scores", counting_score)
    monkeypatch.setattr(QuadratureState, "add_atom", counting_add_atom)
    run = Run("WKH", pool, target, 20, one_block=one_block)
    assert len(run.bounds) == (2 if one_block else cores + 1)
    assert len(calls) == len(attempts) == len(run.trace.rows) + 1 == 21
    first = calls[0]
    assert first[0] is run.core.resid and first[1] is run.core.schur
    assert first[2].shape == first[3].shape == (len(pool),)
    assert all(all(a is b for a, b in zip(call, first)) for call in calls)


@pytest.mark.parametrize("method", ["WKH", "SBQ"])
def test_rejected_picks_in_any_block_match_one_block(method, cores):
    """add_atom's own Schur complement rejects the 2nd pick and the first
    pick from a block after the first."""
    pool, target = rbf_problem(2)
    original = QuadratureState.add_atom
    bounds = PoolScores(state.new_state(target, target.kernel), pool.points, np.zeros(N),
                        np.ones(N), 1).bounds
    rejected = []

    def add_atom(self, x, pool_id, *args, **kwargs):
        if (self.size == 1 and not rejected) or (len(rejected) == 1 and pool_id >= bounds[1]):
            rejected.append(pool_id)
            raise NearDependentAtom(pool_id, 0.0)
        return original(self, x, pool_id, *args, **kwargs)

    with mock.patch.object(QuadratureState, "add_atom", add_atom):
        blocked = Run(method, pool, target, 40)
        first_rejections = list(rejected)
        rejected.clear()
        one = Run(method, pool, target, 40, one_block=True)
    assert len(first_rejections) == 2 and first_rejections[1] >= bounds[1]
    assert rejected == first_rejections
    assert not set(rejected) & set(blocked.trace.chosen_ids)
    assert_same_bits(blocked, one)


@pytest.mark.parametrize("method", ["WKH", "SBQ"])
def test_a_tie_across_a_block_boundary_goes_to_the_lower_row(method, cores):
    """The best point sits on both sides of the first boundary: block 0's
    last row and block 1's first row tie for the first pick."""
    pool, target = rbf_problem(2)
    bound = PoolScores(state.new_state(target, target.kernel), pool.points, np.zeros(N),
                        np.ones(N), 1).bounds[1]
    z = target.mean_embed_many(pool.points)
    best = int(np.argmax(z))
    points = np.array(pool.points)
    points[[best, bound - 1]] = points[[bound - 1, best]]
    points[bound] = points[bound - 1]
    pool = CandidatePool.from_points(points)
    z = target.mean_embed_many(pool.points)
    assert z[bound - 1] == z[bound] == z.max()
    trace = blocked_and_one_block(method, pool, target, 10, cores).trace
    assert trace.chosen_ids[0] == bound - 1
    assert bound not in trace.chosen_ids


def _record_crosses(kernel_cls):
    """Patch ``kernel_cls.cross`` and ``QuadratureState.add_atom`` to record
    every cross call's (A, B), copied, and B itself, and every pick's pool id."""
    original_cross, original_add = kernel_cls.cross, QuadratureState.add_atom
    calls, picks = [], []

    def cross(self, A, B):
        calls.append((A.copy(), B.copy(), B))
        return original_cross(self, A, B)

    def add_atom(self, x, pool_id, *args, **kwargs):
        picks.append(pool_id)
        return original_add(self, x, pool_id, *args, **kwargs)

    patches = (mock.patch.object(kernel_cls, "cross", cross),
               mock.patch.object(QuadratureState, "add_atom", add_atom))
    return patches, calls, picks


def _first_row(B: np.ndarray, prepared: np.ndarray) -> int:
    """The row of ``prepared`` where its view ``B`` starts."""
    offset = B.__array_interface__["data"][0] - prepared.__array_interface__["data"][0]
    return offset // prepared.strides[0]


@pytest.mark.parametrize("method", ["WKH", "SBQ"])
def test_one_kernel_row_per_pick_on_a_blocked_pool(method, cores):
    """Per add_atom call, a blocked RBF run computes one kernel row of the
    pick, in pieces: first one cross against the atoms' prepared rows and
    its own, whose i + 1 entries add_atom takes, then one cross per block
    over the block's columns of the prepared pool, which together compute
    every pool column's entry exactly once."""
    pool, target = rbf_problem(2)
    prepared = setup_pool(pool, target, target.kernel).prepared
    (patch_cross, patch_add), calls, picks = _record_crosses(RBFKernel)
    with patch_cross, patch_add:
        blocked = Run(method, pool, target, 30)
    assert len(blocked.bounds) == cores + 1
    assert len(picks) == len(blocked.trace.rows) == 30
    assert len(calls) == len(picks) * (1 + cores)
    rows = np.searchsorted(pool.ids, picks)
    for i, row in enumerate(rows):
        (A, atoms, _), *block_calls = calls[i * (1 + cores):(i + 1) * (1 + cores)]
        assert np.array_equal(A, prepared[[row]])
        assert np.array_equal(atoms, prepared[rows[:i + 1]])
        computed = np.zeros(N, dtype=int)
        for A, B, view in block_calls:
            assert np.array_equal(A, prepared[[row]])
            assert np.shares_memory(view, prepared)
            first = _first_row(view, prepared)
            assert np.array_equal(B, prepared[first:first + len(B)])
            computed[first:first + len(B)] += 1
        assert np.all(computed == 1)


@pytest.mark.parametrize("problem", ["feature_discrete", "rbf_one_block"])
def test_one_whole_kernel_row_per_pick_where_blocks_take_no_rows(problem, cores):
    """A kernel that is not entrywise, on a pool the RBF kernel would block,
    and any kernel on a ``share_cores`` worker run in one block: they
    compute the pick's whole kernel row in one cross per add_atom call, and
    read add_atom's entries from it.  The feature run is a plain call, and
    matches the worker's run bit for bit."""
    pool, target = feature_problem() if problem == "feature_discrete" else rbf_problem(2)
    one_block = problem == "rbf_one_block"
    setup_pool(pool, target, target.kernel)
    target.self_energy()  # kept on the target: a discrete one takes it from a cross
    kernel_cls = type(target.kernel)
    (patch_cross, patch_add), calls, picks = _record_crosses(kernel_cls)
    with patch_cross, patch_add:
        run = Run("SBQ", pool, target, 30, one_block=one_block)
    assert run.bounds == [0, N] and run.helpers == 0
    assert len(picks) == len(run.trace.rows) == 30
    assert [B.shape[0] for _, B, _ in calls] == [N] * len(picks)
    if not one_block:
        assert_same_bits(run, Run("SBQ", pool, target, 30, one_block=True))


def test_blocked_runs_keep_their_bits_under_fast_thread_switching(monkeypatch):
    """Three blocks, so more threads than cores on a 2-core host, with the
    interpreter asked to switch threads every microsecond."""
    monkeypatch.setattr(state, "usable_cpus", lambda: 3)
    pool, target = rbf_problem(8)
    one = Run("SBQ", pool, target, 40, one_block=True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runs = [Run("SBQ", pool, target, 40) for _ in range(3)]
    finally:
        sys.setswitchinterval(interval)
    for blocked in runs:
        assert len(blocked.bounds) == 4
        assert_same_bits(blocked, one)


# ------------------------------------------------------- helper threads

def _helpers_started(monkeypatch) -> list:
    """Record the name of every block helper thread started from now on."""
    started = []
    original = threading.Thread.start

    def start(self):
        if self.name == "herdquad-block":
            started.append(self.name)
        return original(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    return started


def test_helper_threads_are_joined_when_a_run_returns(cores, monkeypatch):
    pool, target = rbf_problem(2)
    started = _helpers_started(monkeypatch)
    before = threading.active_count()
    run_greedy("SBQ", pool, target, target.kernel, 20)
    assert len(started) == cores - 1
    assert threading.active_count() == before


def test_an_exception_on_a_helper_propagates_out_of_run_greedy(cores):
    """A helper's product raises at the fifth atom: run_greedy re-raises it,
    joins its helpers, and hangs on nothing."""
    pool, target = rbf_problem(2)
    original = PoolScores._project

    def project(self, b):
        if threading.current_thread().name == "herdquad-block" and self.state.size == 5:
            raise RuntimeError("helper failed")
        return original(self, b)

    outcome = []

    def call():
        try:
            run_greedy("WKH", pool, target, target.kernel, 20)
        except RuntimeError as err:
            outcome.append(err)

    before = threading.active_count()
    with mock.patch.object(PoolScores, "_project", project):
        runner = threading.Thread(target=call)
        runner.start()
        runner.join(timeout=60)
    assert not runner.is_alive(), "run_greedy hung after a helper raised"
    assert [str(err) for err in outcome] == ["helper failed"]
    assert threading.active_count() == before


def test_an_exception_on_the_caller_joins_the_helpers(cores):
    pool, target = rbf_problem(2)
    original = PoolScores._fold

    def fold(self, b, row, project=False):
        if self.state.size == 3:
            raise ValueError("caller failed")
        return original(self, b, row, project)

    before = threading.active_count()
    with mock.patch.object(PoolScores, "_fold", fold), pytest.raises(ValueError, match="caller"):
        run_greedy("SBQ", pool, target, target.kernel, 20)
    assert threading.active_count() == before


def test_small_pools_start_no_helper_threads(cores):
    pool, target = rbf_problem(2, n=2 * BLOCK_MIN_COLUMNS - 1)
    run = Run("WKH", pool, target, 10)
    assert run.bounds == [0, len(pool)] and run.helpers == 0


def test_blocks_count_the_cpus_this_process_may_run_on(monkeypatch):
    """A cpuset or taskset allowing 2 of the host's 64 CPUs gives 2 blocks."""
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert state.usable_cpus() == 2
    assert state._block_count(64 * BLOCK_MIN_COLUMNS) == 2


def test_without_an_affinity_call_blocks_count_the_hosts_cpus(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert state.usable_cpus() == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert state.usable_cpus() == 1


@pytest.mark.parametrize("executor", ["thread", "process"])
def test_concurrent_distributed_workers_start_no_helper_threads(executor, cores, monkeypatch):
    """Shards of 2 * BLOCK_MIN_COLUMNS rows and more would block on their own.

    A helper thread started in a worker raises there, and the worker's
    exception fails run_distributed; process workers see the patch only
    when forked.
    """
    if executor == "process" and multiprocessing.get_start_method() != "fork":
        pytest.skip("process workers inherit the patched Thread.start only when forked")
    pool, target = rbf_problem(2, n=4 * BLOCK_MIN_COLUMNS + 600)
    original = threading.Thread.start

    def start(self):
        if self.name == "herdquad-block":
            raise AssertionError("a concurrent worker started a helper thread")
        return original(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    res = run_distributed("WKH", pool, target, target.kernel, 5, s=2, seed=0,
                          executor=executor, max_workers=2)
    assert all(len(sol.ids) == 5 for sol in res.solutions)


def test_a_lone_distributed_worker_starts_helper_threads(cores, monkeypatch):
    pool, target = rbf_problem(2)
    started = _helpers_started(monkeypatch)
    before = threading.active_count()
    res = run_distributed("WKH", pool, target, target.kernel, 5, s=1, seed=0)
    assert len(started) == cores - 1
    assert threading.active_count() == before
    single, _ = run_greedy("WKH", pool, target, target.kernel, 5)
    assert res.solutions[0].ids == single.atom_ids


def _blocks_of_a_large_pool() -> int:
    """Column blocks this thread would give a pool of ``4 * BLOCK_MIN_COLUMNS``
    on four usable CPUs."""
    with mock.patch.object(state, "usable_cpus", lambda: 4):
        return state._block_count(4 * BLOCK_MIN_COLUMNS)


@pytest.mark.parametrize("executor", ["thread", "spawn"])
def test_workers_started_with_share_cores_count_one_block(executor):
    assert _blocks_of_a_large_pool() == 4
    if executor == "thread":
        workers = ThreadPoolExecutor(1, initializer=share_cores)
    else:
        workers = ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn"),
                                      initializer=share_cores)
    with workers:
        assert workers.submit(_blocks_of_a_large_pool).result(timeout=60) == 1
    assert _blocks_of_a_large_pool() == 4


def test_the_caller_keeps_its_blocks_after_a_thread_executor_run(cores):
    pool, target = rbf_problem(2, n=400)
    run_distributed("WKH", pool, target, target.kernel, 5, s=2, seed=0, executor="thread",
                    max_workers=2)
    assert state._block_count(4 * BLOCK_MIN_COLUMNS) == cores
