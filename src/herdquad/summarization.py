"""Data summarization for logistic models via gradient-space matching.

Pipeline: fit a regularized logistic model on the training split, embed
every example by its unit-normalized per-example log-likelihood gradient
(the score vector, with the information matrix taken as the identity),
then greedily pick the training subset whose weighted embedding best
matches the validation split's embedding distribution, and finally retrain
on the chosen subset.  Reported quality is the mean negative log-likelihood
on the held-out test split.

A grid of ``summarize`` calls on one dataset shares the full-data fit, the
embeddings, target and pool (and so the pool's ``selectors.PoolSetup``),
and the random baseline of each (seed, size): the dataset keeps them in
its fit, computed on its first call.  Its arrays are read-only, so the
fit is never checked against them.  Every fit uses the ridge strength
``LAM``.  WKH and SBQ on one machine (``s = 1``) never read ``seed``, so
the fit also keeps their per-cell result, keyed by (method, k), and
serves it to every other seed.  MC_RANDOM and ``s > 1``, where the seed
drives the draws or the partition, are computed in every call.

So a call costs what its dataset's fit leaves to do.  A seed-free WKH or
SBQ cell served from the fit costs a lookup and copies of its trace row
list and selected rows.  An MC_RANDOM cell draws k rows and takes one
kernel row per draw against the draws so far, O(k^2 d) for d-dimensional
embeddings; it then retrains on the k rows, O(k d) per objective
evaluation over some tens of evaluations, and scores the test split
through the design matrix the fit keeps.  Its trace and rows go to its
report uncopied, since nothing else holds them.  ``s > 1`` adds the
distributed run.  At a grid's sizes (k up to 50, d + 1 = 129 on the
benchmark's blobs) a numpy call costs more in its Python wrapper than in
arithmetic, so these paths make few calls, each through its leanest entry
for the same arithmetic: sums and maxima are ``np.add.reduce`` and
``np.maximum.reduce``, the reductions ``ndarray.sum``, ``max`` and
``mean`` delegate to; products are ``ndarray.dot``, the BLAS call (gemv or
ddot) that ``@`` makes, without matmul's dispatch; the descent forms the
transposed design matrix once per fit and takes its first trial step as
theta - grad, which is exactly theta - 1.0 * grad.  The split rows are
found once per dataset and the test design matrix is built once per fit.
So every result keeps its bits.

``import herdquad`` does not load ``scipy.special``: ``_gradient`` and
``fisher_embed_many`` reach ``expit`` as ``scipy.special.expit`` when they
run, so the submodule loads at a process's first fit.  Summarization uses
the feature kernel only, so it never loads ``scipy.spatial`` either.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
import scipy

from .datasets import LabeledDataset
from .distributed import run_distributed
from .kernels import CandidatePool, NormalizedFeatureKernel, check_count
from .selectors import OPTIMAL_WEIGHT_METHODS, Method, RunTrace, run_greedy
from .targets import DiscreteTarget

log = logging.getLogger(__name__)

# train_logistic's iteration cap and the gradient infinity-norm that counts as converged
MAX_ITERS = 6000
GRAD_TOL = 1e-6
LAM = 1.0  # the ridge strength of every fit summarize makes


class BothClassesRequired(ValueError):
    """Training data contains a single class."""


class NonConvergence(UserWarning):
    """Gradient descent stopped before reaching the tolerance."""


def _design(X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return np.hstack([X, np.ones((X.shape[0], 1))])


def _mean_nll(theta, Xd, y) -> float:
    """Mean logistic loss of the design matrix ``Xd`` and float labels ``y`` at ``theta``."""
    t = Xd.dot(theta)
    return float(np.add.reduce(np.logaddexp(0.0, t) - y * t)) / t.size


@dataclass
class LogisticModel:
    """Fitted logistic model; theta carries the bias in its last slot."""

    theta: np.ndarray


def _objective(theta, Xd, y, lam, wts):
    """Training objective at ``theta`` and the logits t = Xd theta it was computed from."""
    t = Xd.dot(theta)
    loss = float(np.add.reduce(wts * (np.logaddexp(0.0, t) - y * t)))
    return loss + 0.5 * lam * float(theta.dot(theta)), t


def _gradient(theta, t, XdT, y, lam, wts):
    """Gradient of ``_objective`` at ``theta`` from its logits ``t``; ``XdT``
    is the transposed design matrix."""
    return XdT.dot(wts * (scipy.special.expit(t) - y)) + lam * theta


def train_logistic(X, y, lam: float = LAM) -> LogisticModel:
    """Deterministic full-batch gradient descent with backtracking.

    Minimizes the mean logistic loss plus (lam/2) ||theta||^2
    (bias included), starting from zero.  A trial step of the backtracking
    search evaluates the objective alone; the gradient is taken once per
    accepted step, from that step's logits.  Converged means the gradient
    infinity-norm fell to ``GRAD_TOL`` within ``MAX_ITERS`` steps;
    otherwise a ``NonConvergence`` warning is issued.
    """
    Xd = _design(X)
    y = np.asarray(y, dtype=float)
    if y.shape[0] != Xd.shape[0]:
        raise ValueError("need one label per example")
    if np.unique(y).size < 2:
        raise BothClassesRequired("training data must contain both classes")
    if lam < 0:
        raise ValueError("regularization strength must be nonnegative")
    wts = np.full(y.shape[0], 1.0 / y.shape[0])

    theta, XdT = np.zeros(Xd.shape[1]), Xd.T
    obj, t = _objective(theta, Xd, y, lam, wts)
    grad = _gradient(theta, t, XdT, y, lam, wts)
    for _ in range(MAX_ITERS):
        if float(np.maximum.reduce(np.abs(grad))) <= GRAD_TOL:
            return LogisticModel(theta=theta)
        gsq = float(grad.dot(grad))
        # at most 60 trial steps, halving from 1; the first is theta - 1.0 * grad,
        # which is theta - grad exactly
        step, candidate = 1.0, theta - grad
        cand_obj, cand_t = _objective(candidate, Xd, y, lam, wts)
        for _ in range(59):
            if cand_obj <= obj - 1e-4 * step * gsq:
                break
            step *= 0.5
            candidate = theta - step * grad
            cand_obj, cand_t = _objective(candidate, Xd, y, lam, wts)
        theta, obj = candidate, cand_obj
        grad = _gradient(theta, cand_t, XdT, y, lam, wts)
    gnorm = float(np.maximum.reduce(np.abs(grad)))
    if gnorm > GRAD_TOL:
        warnings.warn(f"gradient descent stopped at grad norm {gnorm:.3e} "
                      f"after {MAX_ITERS} iterations", NonConvergence)
    return LogisticModel(theta=theta)


def fisher_embed_many(model: LogisticModel, X, y):
    """Unit-normalized embeddings for a batch; returns (embeddings, kept_row_indices).

    Degenerate (zero-gradient) rows are dropped and counted in the log.
    """
    Xd = _design(X)
    y = np.asarray(y, dtype=float)
    G = (y - scipy.special.expit(Xd @ model.theta))[:, None] * Xd
    norms = np.linalg.norm(G, axis=1)
    kept = np.flatnonzero(norms > 0.0)
    dropped = Xd.shape[0] - kept.size
    if dropped:
        log.info("dropped %d degenerate embeddings", dropped)
    return G[kept] / norms[kept][:, None], kept


@dataclass
class SummarizeReport:
    method: str
    trace: RunTrace
    final_mmd_sq: float
    selected_indices: np.ndarray
    test_nll: float
    random_nll: float
    full_nll: float
    n_degenerate: int


def _draw_baseline_rows(rng, train_rows, labels, size: int) -> np.ndarray:
    """Uniform draw of ``size`` training rows that contains both classes.

    A single-class subset cannot be retrained, so such draws are rejected
    and the generator advances to the next one.  For a fixed seed the
    accepted subset is deterministic, and draws whose first attempt already
    covers both classes are unaffected by the rejection step.
    """
    if size < 2 or np.unique(labels[train_rows]).size < 2:
        raise BothClassesRequired("baseline subset cannot contain both classes")
    for _ in range(1000):
        rows = rng.choice(train_rows, size=size, replace=False)
        if np.unique(labels[rows]).size == 2:
            return rows
    raise BothClassesRequired("no two-class baseline subset found after 1000 draws")


@dataclass
class _DatasetFit:
    """The part of ``summarize`` that depends on the dataset alone.

    ``test`` holds the test split's design matrix and float labels, the
    arguments of ``_mean_nll`` after theta.  ``random_nll`` maps (seed,
    subset size) to the random baseline's test NLL, and ``cells`` maps
    (method, k) to the seed-free part of a WKH or SBQ
    report at ``s = 1``: the trace, the final g, the selected rows and the
    test NLL.
    """

    test: tuple
    full_nll: float
    kept_tr: np.ndarray
    pool: CandidatePool
    target: DiscreteTarget
    random_nll: dict = field(default_factory=dict)
    cells: dict = field(default_factory=dict)


def _fit_dataset(data: LabeledDataset) -> _DatasetFit:
    """The dataset's fit, computed on first use and kept in ``data._fit``.

    Two threads that both find the slot empty both fit, bit for bit
    alike, and the later fit stays.  A fit that raises stores nothing.
    """
    fit = data._fit  # read once: another thread may set it
    if fit is None:
        Xtr, ytr = data.subset("train")
        full_model = train_logistic(Xtr, ytr)
        E_tr, kept_tr = fisher_embed_many(full_model, Xtr, ytr)
        E_val, _ = fisher_embed_many(full_model, *data.subset("validation"))
        Xte, yte = data.subset("test")
        test = (_design(Xte), yte.astype(float))
        fit = _DatasetFit(test, _mean_nll(full_model.theta, *test), kept_tr,
                          CandidatePool.from_points(E_tr),
                          DiscreteTarget.uniform(E_val, NormalizedFeatureKernel()))
        object.__setattr__(data, "_fit", fit)
    return fit


def summarize(data: LabeledDataset, method, k: int, *, s: int = 1,
              seed: int = 0) -> SummarizeReport:
    """Select ``k`` training examples whose score embeddings match validation.

    The selection pool holds the training examples' embeddings under the
    full-data model; the target is the uniform discrete distribution over
    the validation embeddings.  ``s > 1`` routes the selection through the
    distributed driver (WKH / SBQ only); ``k`` and ``s`` must be ints of at
    least 1 and ``seed`` one of at least 0.  The size-matched random baseline
    rejects single-class draws, see :func:`_draw_baseline_rows`; a selection
    of one class raises ``BothClassesRequired`` naming the method, ``k`` and
    ``seed``.

    The dataset keeps its full-data fit and random baselines, see
    :func:`_fit_dataset`, so a grid of calls on one dataset fits it once,
    and calls on another dataset leave that fit in place.  It also keeps
    the selection and retraining of WKH and SBQ at ``s = 1``, which do not
    read ``seed``: the first call for a (method, k) computes it and every
    later call, with any seed, is served a copy, bit for bit the same report
    with its own ``selected_indices`` and trace row list.  Such a report
    carries the trace of the call that computed it, wall-clock
    ``elapsed_ms`` included.  MC_RANDOM and ``s > 1`` select afresh in every
    call.
    """
    method = Method(method)
    if method is Method.KH_UNIFORM:
        raise ValueError("summarize supports WKH, SBQ and MC_RANDOM")
    check_count("k", k)
    check_count("s", s)
    check_count("seed", seed, least=0)
    train_rows = data.indices("train")
    if k > train_rows.size:
        raise ValueError(f"k must lie in [1, {train_rows.size}]")
    fit = _fit_dataset(data)
    if fit.kept_tr.size < k:
        raise ValueError(f"only {fit.kept_tr.size} nondegenerate training embeddings for k={k}")

    # WKH and SBQ on one machine read no seed: one call per (method, k)
    # serves every seed
    cell_key = (method, k) if s == 1 and method in OPTIMAL_WEIGHT_METHODS else None
    cell = fit.cells.get(cell_key)
    if cell is None:
        if s == 1:
            result, trace = run_greedy(method, fit.pool, fit.target, fit.target.kernel, k, seed)
        else:
            dist = run_distributed(method, fit.pool, fit.target, fit.target.kernel, k, s, seed)
            result, trace = dist.winner, dist.traces[dist.winner_index]

        # the winner's trace lists its atoms, like a single run's
        selected_indices = train_rows[fit.kept_tr[np.asarray(trace.chosen_ids, dtype=int)]]
        try:
            summary_model = train_logistic(data.features[selected_indices],
                                           data.labels[selected_indices])
        except BothClassesRequired as exc:
            raise BothClassesRequired(f"{method.value} at k={k}, seed {seed} selected "
                                      "a single class") from exc
        cell = (trace, float(result.mmd_sq), selected_indices,
                _mean_nll(summary_model.theta, *fit.test))
    trace, final_mmd_sq, selected_indices, test_nll = cell
    size = selected_indices.size

    random_nll = fit.random_nll.get((seed, size))
    if random_nll is None:
        rng = np.random.default_rng(seed)
        rand_rows = _draw_baseline_rows(rng, train_rows, data.labels, size)
        random_model = train_logistic(data.features[rand_rows], data.labels[rand_rows])
        random_nll = _mean_nll(random_model.theta, *fit.test)

    # stored only now, so that a call that raises stores nothing
    fit.random_nll[(seed, size)] = random_nll
    if cell_key is not None:
        fit.cells[cell_key] = cell

    # each report owns its row list and indices, so editing one edits no other;
    # only a cell the fit keeps is shared, a fresh one is this report's alone
    if cell_key is not None:
        trace, selected_indices = replace(trace, rows=list(trace.rows)), selected_indices.copy()
    return SummarizeReport(
        method=method.value, trace=trace,
        final_mmd_sq=final_mmd_sq, selected_indices=selected_indices,
        test_nll=test_nll, random_nll=random_nll, full_nll=float(fit.full_nll),
        n_degenerate=int(train_rows.size - fit.kept_tr.size),
    )
