"""Where ``run_distributed``'s workers keep Y, the pool's projected Gram rows.

Under ``executor="thread"`` the caller allocates one flat buffer per worker
thread, sized for the largest shard, and the pool's initializer
``share_cores`` hands each thread one; every ``PoolScores`` the thread builds
carves Y from it.  The serial and process executors, a lone worker and the
aggregator allocate Y per run, as does a thread whose buffer is missing or
too small.  Every executor returns the same bits.
"""

import concurrent.futures
import platform
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from herdquad import distributed, selectors
from herdquad.distributed import run_distributed
from herdquad.kernels import CandidatePool, NormalizedFeatureKernel
from herdquad.selectors import run_greedy
from herdquad.state import PoolScores, share_cores
from herdquad.targets import DiscreteTarget
from tests.conftest import assert_same_distributed, random_mixture
from tests.test_load_points import run_fresh


class _Spy(PoolScores):
    """PoolScores that records the thread that built it and its Y."""

    seen: list = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        (Y,) = self.proj
        _Spy.seen.append((threading.current_thread(), Y))


@pytest.fixture
def spy(monkeypatch):
    """The (thread, Y) of every PoolScores built, and under ``"buffers"`` the
    initializer's buffers with the thread that allocated them, recorded as
    each thread or process pool is built."""
    _Spy.seen = []
    record = {"buffers": [], "initargs": []}

    def recording(cls):
        class Recording(cls):
            def __init__(self, *args, initargs=(), **kwargs):
                record["initargs"].append(initargs)
                for buf in initargs[0] if initargs else ():
                    record["buffers"].append((threading.current_thread(), buf))
                super().__init__(*args, initargs=initargs, **kwargs)
        return Recording

    monkeypatch.setattr(selectors, "PoolScores", _Spy)
    monkeypatch.setattr(distributed, "ThreadPoolExecutor", recording(ThreadPoolExecutor))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        recording(concurrent.futures.ProcessPoolExecutor))
    record["seen"] = _Spy.seen
    return record


def rbf_problem(n=500, seed=3):
    rng = np.random.default_rng(seed)
    target = random_mixture(rng, components=3, dim=2)
    return CandidatePool.from_points(target.sample(n, rng)), target


def feature_problem(n=300, seed=4):
    rng = np.random.default_rng(seed)
    target = DiscreteTarget.uniform(rng.normal(size=(40, 33)), NormalizedFeatureKernel())
    return CandidatePool.from_points(rng.normal(size=(n, 33))), target


def _shares_any(Y, buffers) -> bool:
    return any(np.shares_memory(Y, buf) for _, buf in buffers)


@pytest.mark.parametrize("s, max_workers", [(2, 2), (5, 2)])
def test_thread_workers_carve_y_from_one_buffer_per_thread_the_caller_allocated(
        spy, s, max_workers):
    pool, target = rbf_problem()
    k = 12
    res = run_distributed("WKH", pool, target, target.kernel, k, s, seed=0,
                          executor="thread", max_workers=max_workers)
    buffers = spy["buffers"]
    caller = threading.current_thread()
    m = max(np.bincount(distributed.partition(pool, s, seed=0)))
    assert len(buffers) == max_workers
    assert all(thread is caller and buf.shape == (min(k, m) * m,) for thread, buf in buffers)
    *workers, aggregator = spy["seen"]
    assert len(workers) == s and all(thread is not caller for thread, _ in workers)
    # each worker thread's Y is the front of its one buffer, whichever shard it runs
    taken = {}
    for thread, Y in workers:
        (buf,) = [buf for _, buf in buffers if Y.base is buf]
        assert taken.setdefault(thread, buf) is buf
    assert len({id(buf) for buf in taken.values()}) == len(taken) <= max_workers
    if s > max_workers:
        assert any(sum(t is thread for t, _ in workers) > 1 for thread in taken)
    # the aggregator runs in the caller and allocates its own
    assert aggregator[0] is caller and not _shares_any(aggregator[1], buffers)
    assert len(res.solutions) == s + 1


@pytest.mark.parametrize("executor", ["serial", "process"])
def test_serial_and_process_workers_and_a_lone_worker_allocate_their_own_y(spy, executor):
    pool, target = rbf_problem()
    run_distributed("WKH", pool, target, target.kernel, 12, 3, seed=0, executor=executor,
                    max_workers=2)
    run_distributed("WKH", pool, target, target.kernel, 12, 1, seed=0, executor="thread")
    assert spy["buffers"] == []
    # a process pool's initializer takes no buffer, which it would pickle to each child
    assert spy["initargs"] == ([()] if executor == "process" else [])
    caller = threading.current_thread()
    seen = spy["seen"]
    assert all(thread is caller for thread, _ in seen)
    # the caller's runs: 3 serial workers, the aggregators, and the lone worker
    assert len(seen) == (3 if executor == "process" else 6)
    assert all(Y.base.size == Y.size for _, Y in seen)


@pytest.mark.parametrize("buffers", ["undersized", "missing", "fits"])
def test_a_worker_without_a_large_enough_buffer_allocates_its_own_y(spy, buffers):
    pool, target = rbf_problem(n=300)
    k = 10
    handed = {"undersized": [np.empty(k * len(pool) - 1)], "missing": [],
              "fits": [np.empty(k * len(pool) + 7)]}[buffers]
    kept = list(handed)
    expected, _ = run_greedy("SBQ", pool, target, target.kernel, k)
    with ThreadPoolExecutor(1, initializer=share_cores, initargs=(handed,)) as worker:
        result, _ = worker.submit(run_greedy, "SBQ", pool, target, target.kernel, k).result()
    assert handed == []  # the worker took the buffer, if there was one
    (_, Y_caller), (_, Y) = spy["seen"]
    assert any(Y.base is buf for buf in kept) == (buffers == "fits")
    if buffers != "fits":
        assert Y.base.size == Y.size == k * len(pool)
    assert Y_caller.base.size == Y_caller.size
    assert result.atom_ids == expected.atom_ids
    assert result.weights.tobytes() == expected.weights.tobytes()


def test_threads_take_distinct_buffers_under_fast_thread_switching(spy):
    """Eight threads on two cores pop the shared buffer list while the
    interpreter switches threads every microsecond: a buffer taken twice
    would put two concurrent shards in one Y."""
    pool, target = rbf_problem(n=800)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        res = run_distributed("SBQ", pool, target, target.kernel, 10, 8, seed=1,
                              executor="thread", max_workers=8)
    finally:
        sys.setswitchinterval(interval)
    *workers, _ = spy["seen"]
    taken = {}
    for thread, Y in workers:
        assert any(Y.base is buf for _, buf in spy["buffers"])
        taken.setdefault(thread, set()).add(id(Y.base))
    assert all(len(bases) == 1 for bases in taken.values())
    assert len(set.union(*taken.values())) == len(taken)
    serial = run_distributed("SBQ", pool, target, target.kernel, 10, 8, seed=1, executor="serial")
    for a, b in zip(serial.solutions, res.solutions, strict=True):
        assert a.ids == b.ids and a.weights.tobytes() == b.weights.tobytes()


@pytest.mark.parametrize("problem", [rbf_problem, feature_problem])
@pytest.mark.parametrize("method", ["WKH", "SBQ"])
def test_the_three_executors_agree_bit_for_bit(problem, method):
    """Five shards on two threads: a thread's second shard runs in the Y
    buffer its first one left behind."""
    pool, target = problem()
    runs = {executor: run_distributed(method, pool, target, target.kernel, 15, 5, seed=2,
                                      executor=executor, max_workers=2)
            for executor in ("serial", "thread", "process")}
    serial = runs.pop("serial")
    for res in runs.values():
        assert_same_distributed(serial, res)


@pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                    reason="the peak RSS reading and the heap behaviour are glibc's on Linux")
def test_a_distributed_call_after_greedy_runs_keeps_its_peak_rss():
    """The bench's d8 round in a fresh interpreter: a k = 3 warm-up, WKH and
    SBQ on the whole pool, then s = 2 on two threads.  glibc maps the first
    16 MB Y and unmaps it at the run's end, which raises its mmap threshold,
    so the second Y stays in the caller's heap after its run.  The threads'
    Ys fit into that freed memory; in arenas of the threads' own they would
    raise the peak by about one Y (14-17 MB here)."""
    out = run_fresh("""
        import json, resource
        import numpy as np
        from herdquad.distributed import partition, run_distributed
        from herdquad.kernels import CandidatePool, RBFKernel
        from herdquad.selectors import run_greedy
        from herdquad.targets import GaussianMixtureTarget

        rng = np.random.default_rng(0)
        d, n, k, s = 8, 20_000, 100, 2
        means = rng.uniform(-5.0, 5.0, size=(10, d))
        covs = np.stack([np.diag(rng.uniform(0.05, 0.5, size=d)) for _ in range(10)])
        target = GaussianMixtureTarget(rng.dirichlet(np.ones(10)), means, covs, RBFKernel(3.0))
        pool = CandidatePool.from_points(target.sample(n, rng))
        run_distributed("WKH", pool, target, target.kernel, 3, s, 0, max_workers=2)
        for method in ("WKH", "SBQ"):
            run_greedy(method, pool, target, target.kernel, k)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        run_distributed("WKH", pool, target, target.kernel, k, s, 0, max_workers=2)
        after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        m = int(np.bincount(partition(pool, s, 0)).max())
        print(json.dumps({"rise_kb": after - before, "shard_y_kb": min(k, m) * m * 8 / 1024}))
    """)
    assert out["rise_kb"] < out["shard_y_kb"] / 4, out
