"""Spans around the public functions of herdquad's layers, recorded from outside.

``Tracer`` replaces each traced function or method with a wrapper wherever
callers look it up: on its class for methods, and in every ``herdquad``
module namespace that holds the function object for module-level functions.
Leaving the ``with`` block restores the originals, so untraced rounds run
the program exactly as shipped.

A span is (id, name, start, end, parent id, thread id, size, failed,
self seconds).  Parents are tracked per thread, so spans opened in the
worker threads of ``run_distributed`` are roots of their own thread.  A
span's self time is its duration minus the durations of its direct
children, which nest strictly inside it on the same thread.
"""

from __future__ import annotations

import csv
import functools
import gzip
import itertools
import statistics
import sys
import threading
import time
from collections import defaultdict


def _rows(a) -> int:
    # attribute access, not np.ndim: this runs on every traced kernel call
    return a.shape[0] if getattr(a, "ndim", 0) == 2 else 1


def _gram_entries(self, X, Y, *rest, **kw) -> int:
    return _rows(X) * _rows(Y)


def _points(self, X, *rest, **kw) -> int:
    return _rows(X)


def traced_layers(herdquad):
    """(span name, owner, attribute, size function) for every traced layer.

    ``owner`` is a class for methods and a module for functions.  Every
    target class that defines its own ``mean_embed_many`` / ``self_energy``
    is wrapped, so all target families report under one name.
    """
    from herdquad import distributed, kernels, selectors, state, summarization, targets

    layers = [
        ("kernels.rbf.gram", kernels.RBFKernel, "gram", _gram_entries),
        ("kernels.feature.gram", kernels.NormalizedFeatureKernel, "gram", _gram_entries),
        ("state.add_atom", state.QuadratureState, "add_atom", None),
        ("state.schur_complements", state.QuadratureState, "schur_complements", _points),
        ("state.residual_correlations", state.QuadratureState, "residual_correlations", _points),
        ("selectors.run_greedy", selectors, "run_greedy", None),
        ("distributed.partition", distributed, "partition", None),
        ("distributed.run_distributed", distributed, "run_distributed", None),
        ("summarization.train_logistic", summarization, "train_logistic", None),
        ("summarization.fisher_embed_many", summarization, "fisher_embed_many", None),
        ("summarization.summarize", summarization, "summarize", None),
    ]
    for cls in vars(targets).values():
        if isinstance(cls, type) and issubclass(cls, targets.TargetEmbedding):
            if "mean_embed_many" in vars(cls) and cls is not targets.TargetEmbedding:
                layers.append(("targets.mean_embed_many", cls, "mean_embed_many", _points))
            if "self_energy" in vars(cls) and cls is not targets.TargetEmbedding:
                layers.append(("targets.self_energy", cls, "self_energy", None))
    return layers


class Tracer:
    """Context manager that records spans while the wrappers are installed."""

    def __init__(self, layers):
        self.layers = layers
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, size):
        spans, ids = self.spans, self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            frame = [next(ids), 0.0]
            parent = stack[-1][0] if stack else -1
            n = size(*args, **kwargs) if size is not None else 0
            stack.append(frame)
            failed = False
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                spans.append((frame[0], name, t0, t1, parent, threading.get_ident(),
                              n, failed, dur - frame[1]))

        return wrapper

    def __enter__(self):
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "herdquad" or k.startswith("herdquad."))]
        for name, owner, attr, size in self.layers:
            original = vars(owner)[attr]
            wrapper = self._wrap(name, original, size)
            if isinstance(owner, type):
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        return False


class _Probe:
    ndim, shape = 2, (1, 1)

    def call(self, X):
        return X


def span_cost(calls: int = 20_000, repeats: int = 5) -> float:
    """Seconds one span adds to a call, at least 0.

    A no-op method with a size function is called ``calls`` times bare and
    ``calls`` times wrapped; the median over ``repeats`` of the difference,
    divided by ``calls``, is the cost of the wrapper and of recording one span.
    """
    probe = _Probe()
    layer = [("probe", _Probe, "call", _points)]

    def loop() -> float:
        t0 = time.perf_counter()
        for _ in range(calls):
            probe.call(probe)
        return time.perf_counter() - t0

    diffs = []
    for _ in range(repeats):
        bare = loop()
        with Tracer(layer):
            diffs.append(loop() - bare)
    return max(statistics.median(diffs), 0.0) / calls


def summarize_spans(spans, main_thread: int) -> dict:
    """Per span name: calls, summed size, failed calls, self seconds.

    ``shard_s`` collects the durations of ``selectors.run_greedy`` spans
    outside the main thread, i.e. the distributed workers' selections.
    """
    agg = defaultdict(lambda: {"calls": 0, "size": 0, "failed": 0, "self_s": 0.0})
    shard_s = 0.0
    for _sid, name, t0, t1, _parent, tid, n, failed, self_s in spans:
        a = agg[name]
        a["calls"] += 1
        a["size"] += n
        a["failed"] += failed
        a["self_s"] += self_s
        if name == "selectors.run_greedy" and tid != main_thread:
            shard_s += t1 - t0
    out = dict(agg)
    out["shard_s"] = shard_s
    return out


def write_spans(path, spans) -> None:
    """Write spans as gzip CSV, one row per span, times relative to the first."""
    base = min((s[2] for s in spans), default=0.0)
    with gzip.open(path, "wt", newline="", compresslevel=1) as fh:
        w = csv.writer(fh)
        w.writerow(["id", "name", "start_s", "end_s", "parent", "thread", "size", "failed", "self_s"])
        for sid, name, t0, t1, parent, tid, n, failed, self_s in spans:
            w.writerow([sid, name, f"{t0 - base:.9f}", f"{t1 - base:.9f}", parent, tid, n,
                        int(failed), f"{self_s:.9f}"])
