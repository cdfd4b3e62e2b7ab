import pickle
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest

from herdquad import distributed
from herdquad.datasets import synthetic_blob_dataset
from herdquad.distributed import (
    PoolTooSmall,
    partition,
    run_distributed,
)
from herdquad.kernels import CandidatePool, Kernel, NormalizedFeatureKernel, RBFKernel
from herdquad.selectors import Method, run_greedy, setup_pool
from herdquad.state import G_ROUNDOFF, KernelMismatch
from herdquad.summarization import summarize
from herdquad.targets import DiscreteTarget
from tests.conftest import assert_same_distributed, random_mixture


def make_problem(seed, n=60, dim=2):
    rng = np.random.default_rng(seed)
    target = random_mixture(rng, components=2, dim=dim)
    pool = CandidatePool.from_points(rng.normal(size=(n, dim), scale=2.0))
    return pool, target, target.kernel


def test_partition_is_disjoint_cover_and_deterministic():
    pool, _, _ = make_problem(seed=1)
    assignment = partition(pool, 4, seed=9)
    np.testing.assert_array_equal(assignment, partition(pool, 4, seed=9))
    # one worker index per pool row covers the pool with disjoint shards
    assert assignment.shape == (len(pool),)
    assert np.issubdtype(assignment.dtype, np.integer)
    assert np.all(np.bincount(assignment, minlength=4) > 0)
    assert assignment.min() >= 0 and assignment.max() < 4


def test_partition_rebalances_empty_workers():
    pool, _, _ = make_problem(seed=2, n=6)
    # with s close to n some assignments leave a worker empty before rebalance
    for seed in range(30):
        assert np.all(np.bincount(partition(pool, 5, seed=seed), minlength=5) > 0)


def quadratic_partition(n, s, seed):
    """The rebalancing loop ``partition`` ran before it kept shard stacks and a
    size heap: one whole-pool ``bincount`` and ``flatnonzero`` per empty worker."""
    assignment = np.random.default_rng(seed).integers(0, s, size=n)
    sizes = np.bincount(assignment, minlength=s)
    while np.any(sizes == 0):
        empty = int(np.flatnonzero(sizes == 0)[0])
        donor = int(np.argmax(sizes))
        donor_rows = np.flatnonzero(assignment == donor)
        assignment[donor_rows[-1]] = empty
        sizes = np.bincount(assignment, minlength=s)
    return assignment


def test_partition_matches_the_whole_pool_loop():
    rng = np.random.default_rng(0)
    cases = [(n, s) for n in range(1, 13) for s in range(1, n + 1)]
    cases += [(int(n), int(rng.integers(1, n + 1))) for n in rng.integers(13, 400, size=40)]
    cases += [(n, n) for n in (50, 257, 1000)]
    for n, s in cases:
        pool = CandidatePool.from_points(np.zeros((n, 1)))
        for seed in range(5):
            np.testing.assert_array_equal(partition(pool, s, seed), quadratic_partition(n, s, seed))


def test_partition_of_one_point_per_worker_is_fast():
    n = 100_000
    pool = CandidatePool.from_points(np.zeros((n, 1)))
    start = time.perf_counter()
    assignment = partition(pool, n, seed=0)
    # the whole-pool loop took 14.7 s at this size on 2 cores
    assert time.perf_counter() - start < 5.0
    np.testing.assert_array_equal(np.bincount(assignment, minlength=n), np.ones(n))


def test_partition_rejects_more_workers_than_points():
    pool, _, _ = make_problem(seed=3, n=4)
    with pytest.raises(PoolTooSmall):
        partition(pool, 5, seed=0)
    with pytest.raises(ValueError):
        partition(pool, 0, seed=0)


def test_winner_is_exact_minimum():
    pool, target, kern = make_problem(seed=5)
    result = run_distributed(Method.WKH, pool, target, kern, k=6, s=3, seed=7)
    values = result.mmd_values
    assert result.winner_index == int(np.argmin(values))
    assert result.winner.mmd_sq == values.min()
    assert len(result.solutions) == 4  # 3 workers + aggregator
    assert result.winner.mmd_sq <= min(values[:3])


def test_single_worker_matches_plain_greedy_objective():
    pool, target, kern = make_problem(seed=6)
    result = run_distributed(Method.SBQ, pool, target, kern, k=5, s=1, seed=11)
    worker = result.solutions[0]
    # the lone shard is the whole pool, so the worker solves the full problem;
    # the aggregator then re-selects from the worker's atoms and cannot improve
    state, trace = run_greedy(Method.SBQ, pool, target, kern, 5, seed=0)
    # seeds differ, but SBQ does not read its seed
    assert worker.ids == state.atom_ids
    np.testing.assert_array_equal(worker.weights, state.weights)
    assert worker.mmd_sq == state.mmd_sq
    np.testing.assert_array_equal(result.traces[0].mmd_values, trace.mmd_values)
    assert result.winner.mmd_sq <= worker.mmd_sq + 1e-15


def test_rejects_uniform_and_random_methods():
    pool, target, kern = make_problem(seed=8)
    for method in (Method.KH_UNIFORM, Method.MC_RANDOM):
        with pytest.raises(ValueError):
            run_distributed(method, pool, target, kern, k=4, s=2, seed=0)
    with pytest.raises(ValueError):
        run_distributed(Method.WKH, pool, target, kern, k=4, s=2, seed=0, executor="mpi")


def test_rejects_another_kernel():
    pool, target, _ = make_problem(seed=6)
    with pytest.raises(KernelMismatch):
        run_distributed(Method.SBQ, pool, target, RBFKernel(0.3), 5, 2, seed=0)


def test_executors_agree_bit_for_bit():
    pool, target, kern = make_problem(seed=10)
    kwargs = dict(k=5, s=3, seed=13)
    serial = run_distributed(Method.WKH, pool, target, kern, **kwargs, executor="serial")
    for executor in ("thread", "process"):
        assert_same_distributed(serial, run_distributed(Method.WKH, pool, target, kern, **kwargs,
                                                        executor=executor))


def test_default_pool_has_one_worker_per_core(monkeypatch):
    requested = []

    def recording_pool(max_workers, **kwargs):
        requested.append(max_workers)
        return ThreadPoolExecutor(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(distributed, "ThreadPoolExecutor", recording_pool)
    monkeypatch.setattr(distributed, "usable_cpus", lambda: 2)
    pool, target, kern = make_problem(seed=14)
    kwargs = dict(k=5, s=5, seed=15)
    default = run_distributed(Method.WKH, pool, target, kern, **kwargs)
    one_per_shard = run_distributed(Method.WKH, pool, target, kern, **kwargs, max_workers=5)
    assert requested == [2, 5]
    assert_same_distributed(one_per_shard, default)


@pytest.mark.parametrize("executor", ["serial", "thread", "process"])
@pytest.mark.parametrize("max_workers", [0, -1, 1.5, 2.0, "2", True])
def test_bad_max_workers_is_rejected_before_partitioning(executor, max_workers, monkeypatch):
    def no_partition(*args):
        raise AssertionError("partition ran")

    monkeypatch.setattr(distributed, "partition", no_partition)
    pool, target, kern = make_problem(seed=16)
    with pytest.raises(ValueError, match="max_workers"):
        run_distributed(Method.WKH, pool, target, kern, k=3, s=3, seed=0,
                        executor=executor, max_workers=max_workers)


@pytest.mark.parametrize("max_workers", [1, np.int64(2)])
def test_integer_max_workers_is_accepted(max_workers):
    pool, target, kern = make_problem(seed=17)
    kwargs = dict(k=3, s=3, seed=0)
    serial = run_distributed(Method.WKH, pool, target, kern, **kwargs, executor="serial")
    assert_same_distributed(serial, run_distributed(Method.WKH, pool, target, kern, **kwargs,
                                                    max_workers=max_workers))


def test_distributed_reproducible_across_calls():
    pool, target, kern = make_problem(seed=12)
    first = run_distributed(Method.SBQ, pool, target, kern, k=4, s=4, seed=21)
    second = run_distributed(Method.SBQ, pool, target, kern, k=4, s=4, seed=21)
    assert first.winner.ids == second.winner.ids
    np.testing.assert_array_equal(first.mmd_values, second.mmd_values)
    assert first.phase_seconds.keys() == {"partition", "workers", "aggregate"}


def criterion_6_problem(seed):
    """3-component 2-d mixture and an 80-point pool, as in acceptance criterion 6."""
    target = random_mixture(np.random.default_rng(seed), components=3, dim=2)
    pool = CandidatePool.from_points(
        np.random.default_rng(seed + 100).normal(size=(80, 2), scale=2.0))
    return pool, target


@pytest.mark.parametrize("method", ["WKH", "SBQ"])
def test_aggregator_reproduces_the_lone_worker_bit_for_bit(method):
    # With s = 1 the aggregator re-picks the worker's atoms from a pool of
    # k points.  The state's factor must not depend on the pool's length,
    # or round-off lets the aggregator "win" with another g.
    for seed in range(50):
        pool, target = criterion_6_problem(seed)
        res = run_distributed(method, pool, target, target.kernel, k=6, s=1, seed=seed)
        worker, aggregator = res.solutions
        assert aggregator.mmd_sq == worker.mmd_sq, seed
        state, _ = run_greedy(method, pool, target, target.kernel, 6, seed=0)
        assert res.winner.mmd_sq == state.mmd_sq, seed


@pytest.mark.parametrize("method", ["WKH", "SBQ"])
def test_trace_does_not_depend_on_the_pool_length(method):
    agreeing = 0
    for seed in range(50):
        pool, target = criterion_6_problem(seed)
        _, full = run_greedy(method, pool, target, target.kernel, 6)
        _, sub = run_greedy(method, pool.take(np.sort(full.chosen_ids)), target, target.kernel, 6)
        for a, b in zip(full.rows, sub.rows):
            if a.chosen_id != b.chosen_id:
                break
            assert a.mmd_sq == b.mmd_sq, seed
            agreeing += 1
    assert agreeing >= 250  # of 300 steps; the prefixes are not vacuous


@pytest.mark.parametrize("method", ["WKH", "SBQ"])
def test_lone_worker_under_the_feature_kernel_agrees_to_round_off(method):
    # NormalizedFeatureKernel's Gram entries and DiscreteTarget's embedding
    # are BLAS products that round with the pool's length, so here the
    # aggregator matches the worker only to round-off, not bit for bit.
    for seed in range(20):
        rng = np.random.default_rng(seed)
        target = DiscreteTarget.uniform(rng.normal(size=(60, 33)), NormalizedFeatureKernel())
        pool = CandidatePool.from_points(rng.normal(size=(80, 33)))
        res = run_distributed(method, pool, target, target.kernel, k=6, s=1, seed=seed)
        worker, aggregator = res.solutions
        assert sorted(aggregator.ids) == sorted(worker.ids), seed
        assert abs(aggregator.mmd_sq - worker.mmd_sq) <= 1e-14, seed


def union_problem(kernel: str, seed: int):
    """s = 3 workers of k = 5 on 90 points, whose atoms' union has 15."""
    rng = np.random.default_rng(seed)
    if kernel == "rbf":
        target = random_mixture(rng, components=3, dim=2)
        return CandidatePool.from_points(rng.normal(size=(90, 2), scale=2.0)), target
    target = DiscreteTarget.uniform(rng.normal(size=(40, 33)), NormalizedFeatureKernel())
    return CandidatePool.from_points(rng.normal(size=(90, 33))), target


@pytest.mark.parametrize("executor", ["serial", "thread", "process"])
@pytest.mark.parametrize("kernel", ["rbf", "feature"])
@pytest.mark.parametrize("method", ["WKH", "SBQ"])
def test_the_aggregator_selects_from_the_union_of_every_workers_atoms(method, kernel, executor):
    """The aggregator equals run_greedy on a fresh pool of the union's points
    and ids: bit for bit under RBF, where a fresh setup equals the sliced
    one, and to round-off under the feature kernel, whose discrete
    embedding rounds with the pool's length."""
    k = 5
    for seed in range(3):
        pool, target = union_problem(kernel, seed)
        res = run_distributed(method, pool, target, target.kernel, k, s=3, seed=seed,
                              executor=executor, max_workers=2)
        *workers, aggregator = res.solutions
        union = sorted({i for sol in workers for i in sol.ids})
        # the atoms of worker 0 alone, or the first k of the union, are another pool
        assert len(union) == 3 * k and not set(aggregator.ids) <= set(workers[0].ids)
        assert aggregator.ids != union[:k]
        rows = np.searchsorted(pool.ids, union)
        fresh = CandidatePool(points=pool.points[rows], ids=pool.ids[rows])
        state, trace = run_greedy(method, fresh, target, target.kernel, k)
        assert aggregator.ids == state.atom_ids == trace.chosen_ids
        assert res.traces[-1].chosen_ids == aggregator.ids
        if kernel == "rbf":
            assert aggregator.mmd_sq == state.mmd_sq
            assert aggregator.weights.tobytes() == state.weights.tobytes()
            assert res.traces[-1].mmd_values.tobytes() == trace.mmd_values.tobytes()
        else:
            assert abs(aggregator.mmd_sq - state.mmd_sq) <= 1e-14
            np.testing.assert_allclose(aggregator.weights, state.weights, rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("method", [Method.WKH, Method.SBQ])
def test_a_target_at_the_floor_gives_empty_solutions(method):
    # symmetric signs cancel in the mean embedding, so c = 0 and every
    # worker stops before its first atom
    pts = np.linspace(-1.0, 1.0, 10).reshape(-1, 1)
    kern = NormalizedFeatureKernel()
    target = DiscreteTarget.uniform(pts, kern)
    assert target.self_energy() <= G_ROUNDOFF
    result = run_distributed(method, CandidatePool.from_points(pts), target, kern, 3, 2, seed=0)
    assert [sol.ids for sol in result.solutions] == [[], [], []]
    assert result.winner.label == "worker-0"
    assert [t.stop_reason for t in result.traces] == ["objective_floor"] * 3
    aggregator = result.solutions[-1]
    assert aggregator.label == "aggregator"
    assert isinstance(aggregator.weights, np.ndarray) and aggregator.weights.shape == (0,)
    assert aggregator.mmd_sq == target.self_energy()
    assert result.traces[-1] is not result.traces[0]


@pytest.mark.parametrize("entry", ["run_greedy", "run_distributed"])
def test_a_budget_below_one_is_rejected_before_any_setup(entry):
    pool, target, kern = make_problem(seed=18, n=400)
    run = {"run_greedy": lambda: run_greedy(Method.WKH, pool, target, kern, 0),
           "run_distributed": lambda: run_distributed(Method.WKH, pool, target, kern, 0, 2, 0)}
    with mock.patch.object(type(target), "mean_embed_many",
                           autospec=True, side_effect=type(target).mean_embed_many) as embed:
        with pytest.raises(ValueError, match="k must be at least 1"):
            run[entry]()
    assert embed.call_count == 0
    assert pool._setup is None


COUNT_ENTRIES = [("run_greedy", "k"), ("summarize", "k"), ("partition", "s")] + [
    (executor, name) for executor in ("serial", "thread", "process") for name in ("k", "s")]


@pytest.mark.parametrize("entry, name", COUNT_ENTRIES)
@pytest.mark.parametrize("bad", [2.5, 2.0, np.float64(2.0), True, "2"],
                         ids=["float", "whole_float", "numpy_float", "bool", "str"])
def test_a_count_that_is_not_an_int_is_rejected_where_it_enters(entry, name, bad):
    pool, target, kern = make_problem(seed=18)
    data = synthetic_blob_dataset(n=60, dim=2, seed=0)
    counts = {"k": 2, "s": 2, name: bad}
    run = {"run_greedy": lambda: run_greedy(Method.WKH, pool, target, kern, counts["k"]),
           "summarize": lambda: summarize(data, Method.WKH, counts["k"]),
           "partition": lambda: partition(pool, counts["s"], seed=0)}.get(
        entry, lambda: run_distributed(Method.WKH, pool, target, kern, counts["k"], counts["s"], 0,
                                       executor=entry))
    with pytest.raises(ValueError, match=f"{name} must be at least 1 and an int"):
        run()
    assert pool._setup is None and data._fit is None


def test_numpy_int_counts_are_accepted():
    pool, target, kern = make_problem(seed=19)
    assert_same_distributed(
        run_distributed(Method.WKH, pool, target, kern, np.int64(3), np.int64(2), 0),
        run_distributed(Method.WKH, pool, target, kern, 3, 2, 0))
    data = synthetic_blob_dataset(n=60, dim=2, seed=0)
    assert summarize(data, Method.WKH, np.int64(3)).selected_indices.size == 3


def assert_same_setup(expected, other):
    for name in ("prepared", "diag", "embeds"):
        assert getattr(other, name).tobytes() == getattr(expected, name).tobytes(), name


@pytest.mark.parametrize("s", [2, 5, 32])
def test_rbf_shard_slices_equal_the_shards_own_setups_bit_for_bit(s):
    pool, target, kern = make_problem(seed=16, n=400, dim=8)
    setup_pool(pool, target, kern)
    assignment = partition(pool, s, seed=17)
    shards = [np.flatnonzero(assignment == w) for w in range(s)]
    # the aggregator's union: a few rows of every shard; and a lone row
    union = np.sort(np.concatenate([rows[:3] for rows in shards]))
    for rows in shards + [union, shards[0][:1]]:
        fresh = CandidatePool(points=pool.points[rows], ids=pool.ids[rows])
        shard = pool.take(rows)
        assert shard.points.tobytes() == fresh.points.tobytes()
        np.testing.assert_array_equal(shard.ids, fresh.ids)
        assert_same_setup(setup_pool(fresh, target, kern), shard._setup)
        assert setup_pool(shard, target, kern) is shard._setup
        # under RBF the prepared rows are the shard's points, held once
        assert shard._setup.prepared is shard.points


def feature_pool_problem(seed=18, n=120, dim=24):
    rng = np.random.default_rng(seed)
    kern = NormalizedFeatureKernel()
    pool = CandidatePool.from_points(rng.normal(size=(n, dim)))
    return pool, DiscreteTarget.uniform(rng.normal(size=(40, dim)), kern), kern


@pytest.mark.parametrize("problem", ["mixture", "feature"])
def test_one_pool_is_prepared_and_embedded_once_across_runs(problem):
    pool, target, kern = make_problem(seed=19, n=120) if problem == "mixture" \
        else feature_pool_problem()
    target_cls = type(target)
    prepare_owner = NormalizedFeatureKernel if problem == "feature" else Kernel
    # a target that prepared the rows again would show a second full-pool prepare
    with mock.patch.object(target_cls, "mean_embed_many", autospec=True,
                           side_effect=target_cls.mean_embed_many) as embed, \
            mock.patch.object(prepare_owner, "prepare", autospec=True,
                              side_effect=prepare_owner.prepare) as prepare:
        for method in (Method.WKH, Method.SBQ):
            run_greedy(method, pool, target, kern, 6)
            for s in (2, 5):
                for executor in ("serial", "thread"):
                    run_distributed(method, pool, target, kern, 6, s, seed=s, executor=executor)
    assert [len(c.args[1]) for c in embed.call_args_list] == [len(pool)]
    assert [len(c.args[1]) for c in prepare.call_args_list
            if len(c.args[1]) == len(pool)] == [len(pool)]


@pytest.mark.parametrize("executor", ["serial", "thread"])
def test_every_worker_and_the_aggregator_is_one_run_greedy_call(executor):
    """The workers and the aggregator call ``run_greedy`` as looked up in
    ``herdquad.distributed``, so a wrapper installed there sees every
    selection; on a pool already set up none of them embeds a point."""
    pool, target, kern = make_problem(seed=24, n=120)
    setup_pool(pool, target, kern)
    for s, calls in ((1, 2), (2, 3), (5, 6)):
        with mock.patch.object(distributed, "run_greedy", wraps=run_greedy) as greedy, \
                mock.patch.object(type(target), "mean_embed_many", autospec=True,
                                  side_effect=type(target).mean_embed_many) as embed:
            result = run_distributed(Method.SBQ, pool, target, kern, 6, s, seed=s,
                                     executor=executor)
        assert greedy.call_count == calls, s
        assert embed.call_count == 0, s
        assert all(sol.ids for sol in result.solutions)


@pytest.mark.parametrize("problem", ["mixture", "feature"])
def test_a_pickled_shard_keeps_its_setup(problem):
    """What the process executor sends a worker: the shard and the target in
    one pickle.  The shard arrives set up and embeds nothing again."""
    pool, target, kern = make_problem(seed=25, n=120) if problem == "mixture" \
        else feature_pool_problem()
    setup_pool(pool, target, kern)
    shard = pool.take(np.flatnonzero(partition(pool, 3, seed=26) == 1))
    sent, sent_target = pickle.loads(pickle.dumps((shard, target)))
    target_cls = type(target)
    with mock.patch.object(target_cls, "mean_embed_many", autospec=True,
                           side_effect=target_cls.mean_embed_many) as embed:
        setup = setup_pool(sent, sent_target, sent_target.kernel)
        _, trace = run_greedy(Method.WKH, sent, sent_target, sent_target.kernel, 6)
    assert embed.call_count == 0
    assert setup.target is sent_target
    assert_same_setup(shard._setup, setup)
    _, expected = run_greedy(Method.WKH, shard, target, kern, 6)
    assert trace.chosen_ids == expected.chosen_ids
    assert trace.mmd_values.tobytes() == expected.mmd_values.tobytes()


def test_threads_sharing_one_pool_between_two_targets_agree_with_serial_runs():
    """The pool's setup is replaced whenever the target changes; no thread may
    read one target's setup for the other."""
    pool, first, kern = make_problem(seed=22, n=300)
    second = random_mixture(np.random.default_rng(23), components=2, dim=2)
    calls = [(target, s) for target in (first, second) for s in (1, 3)] * 6
    expected = {(id(target), s): run_distributed(
        Method.SBQ, CandidatePool.from_points(pool.points), target, kern, 5, s, seed=1)
        for target, s in calls[:4]}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as ex:
            futures = [(key, ex.submit(run_distributed, Method.SBQ, pool, key[0], kern, 5, key[1],
                                       seed=1, executor="serial")) for key in calls]
            results = [(key, f.result(timeout=60)) for key, f in futures]
    finally:
        sys.setswitchinterval(interval)
    for (target, s), result in results:
        assert_same_distributed(expected[(id(target), s)], result)


@pytest.mark.parametrize("entry", ["partition", "serial", "thread", "process"])
@pytest.mark.parametrize("seed", [None, 1.5, np.float64(1.0), True, -1, "1"],
                         ids=["none", "float", "numpy_float", "bool", "negative", "str"])
def test_run_distributed_and_partition_check_seed_where_it_enters(entry, seed):
    """``None`` would draw fresh entropy, so two equal calls would pick different winners."""
    pool, target, kern = make_problem(seed=20)
    run = {"partition": lambda: partition(pool, 2, seed)}.get(
        entry, lambda: run_distributed(Method.WKH, pool, target, kern, 3, 2, seed, executor=entry))
    with pytest.raises(ValueError, match="seed must be at least 0 and an int"):
        run()
    assert pool._setup is None
    np.testing.assert_array_equal(partition(pool, 2, 0), partition(pool, 2, np.uint8(0)))
