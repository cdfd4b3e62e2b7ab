"""Workload inputs, the timed selections, and their checks.

Each workload fixes one problem instance, drawn from ``INSTANCE_SEED``, and
the run's ``--seed`` moves it by an isometry: the pool rows (or feature
coordinates) are permuted, coordinates are permuted and sign-flipped, and
mixtures are translated.  Kernel values, and so the selections and the work
they take, stay the same up to round-off, while every number the program
reads differs from seed to seed.  Redrawing the instance instead makes the
work itself vary: on fresh 2-d mixtures WKH at n = 20 000, k = 100 takes
anywhere from 5 to 17 s, because the number of near-dependent rejections
after the objective reaches round-off swings with the draw.

A workload's ``run`` performs one round: the same list of operations every
time.  ``check`` returns one list of problems per operation (an empty list
is a pass) and the round's atoms-to-epsilon count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

import checks

INSTANCE_SEED = 0
MAX_WORKERS = 2  # thread-executor workers for the distributed runs: nproc here
MIXTURE_COMPONENTS = 20
SUMMARY_N, SUMMARY_DIM = 500, 128
SUMMARY_METHODS = ("WKH", "SBQ", "MC_RANDOM")


def atoms_to_eps(g, eps: float, budget: int) -> int:
    """1-based step at which g first falls to eps; budget + 1 if never."""
    hit = np.flatnonzero(np.asarray(g) <= eps)
    return int(hit[0]) + 1 if hit.size else budget + 1


# ---------------------------------------------------------------- mixtures

@dataclass
class MixtureRef:
    """The benchmark's own copy of a mixture problem, for the checks."""

    points: np.ndarray
    pis: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    bandwidth: float
    energy: float = 0.0


@dataclass
class MixtureInputs:
    ref: MixtureRef
    pool: object
    target: object
    kernel: object


@dataclass
class MixtureWorkload:
    """20-component Gaussian mixture, median-bandwidth RBF, closed-form target.

    The instance follows the ``herdquad mixture`` defaults: Dirichlet(1)
    weights, means uniform on [-5, 5]^d, diagonal variances uniform on
    [0.05, 0.5], the pool drawn from the mixture, and the bandwidth the
    median pairwise distance of 500 pool points.
    """

    name: str
    dim: int
    eps: float
    n: int = 20_000
    k: int = 100
    shards: tuple = ()

    def make_inputs(self, hq, seed: int) -> MixtureInputs:
        from herdquad import cli
        rng = np.random.default_rng(INSTANCE_SEED)
        d = self.dim
        pis, means, covs = cli.sample_mixture_params(
            rng, MIXTURE_COMPONENTS, d, -5.0, 5.0, 0.05, 0.5, 1.0)
        variances = np.diagonal(covs, axis1=1, axis2=2)
        comps = rng.choice(MIXTURE_COMPONENTS, size=self.n, p=pis)
        points = means[comps] + np.sqrt(variances[comps]) * rng.standard_normal((self.n, d))
        bandwidth = cli.median_bandwidth(points, seed=INSTANCE_SEED)

        move = np.random.default_rng(seed)
        order, axes = move.permutation(self.n), move.permutation(d)
        signs, shift = move.choice([-1.0, 1.0], size=d), move.uniform(-5.0, 5.0, size=d)
        points = points[order][:, axes] * signs + shift
        means = means[:, axes] * signs + shift
        variances = variances[:, axes]

        ref = MixtureRef(points, pis, means, variances, bandwidth)
        kernel = hq.RBFKernel(bandwidth)
        covs = np.stack([np.diag(v) for v in variances])
        target = hq.GaussianMixtureTarget(pis, means, covs, kernel)
        target.self_energy()
        pool = hq.CandidatePool.from_points(points)
        return MixtureInputs(ref, pool, target, kernel)

    def _ops(self, hq, inp: MixtureInputs, k: int):
        ops = [(m, 1) for m in ("WKH", "SBQ")] + [(m, s) for m in ("WKH", "SBQ") for s in self.shards]
        for method, s in ops:
            if s == 1:
                yield (method, s), lambda m=method: hq.run_greedy(m, inp.pool, inp.target, inp.kernel, k)
            else:
                yield (method, s), lambda m=method, s=s: hq.run_distributed(
                    m, inp.pool, inp.target, inp.kernel, k, s, seed=0,
                    executor="thread", max_workers=MAX_WORKERS)

    def warm_up(self, hq, inp: MixtureInputs) -> None:
        for _, call in self._ops(hq, inp, k=3):
            call()

    def run(self, hq, inp: MixtureInputs) -> list:
        return [(key, _attempt(call)) for key, call in self._ops(hq, inp, self.k)]

    def check(self, hq, inp: MixtureInputs, results) -> tuple[list, int]:
        ref = inp.ref
        if not ref.energy:
            ref.energy = checks.mixture_energy(ref.pis, ref.means, ref.variances, ref.bandwidth)
        problems, count = [], 0
        for (method, s), out in results:
            if isinstance(out, Exception):
                problems.append([f"{method} s={s} raised {out!r}"])
                count += self.k + 1
                continue
            if s == 1:
                state, trace = out
                problems.append(checks.check_state(ref, state, trace))
            else:
                problems.append(checks.check_distributed(ref, out, s))
                trace = out.traces[out.winner_index]
            count += atoms_to_eps(trace.mmd_values, self.eps, self.k)
        return problems, count


# ---------------------------------------------------------- summarization

@dataclass
class SummaryRef:
    embeddings: np.ndarray
    u_bar: np.ndarray
    train_rows: np.ndarray


@dataclass
class SummaryInputs:
    data: object
    ref: SummaryRef | None = None


@dataclass
class SummarizeWorkload:
    """Logistic-model summarization on two 128-d Gaussian blobs.

    Shaped like ``scripts/configs/summarize_blobs.cfg``: n = 500 points,
    class means 2.5 apart along a diagonal, unit spread, 10% validation and
    20% test.  One round is the full grid: every method at every budget for
    every inner seed.
    """

    name: str
    eps: float
    budgets: tuple = (10, 25, 50)
    seeds: tuple = (0, 1, 2, 3, 4)

    def make_inputs(self, hq, seed: int) -> SummaryInputs:
        from herdquad.datasets import synthetic_blob_dataset
        data = synthetic_blob_dataset(SUMMARY_N, SUMMARY_DIM, seed=INSTANCE_SEED)
        move = np.random.default_rng(seed)
        X = data.features[:, move.permutation(SUMMARY_DIM)] * move.choice([-1.0, 1.0], size=SUMMARY_DIM)
        return SummaryInputs(replace(data, features=X))

    def _ops(self, hq, inp: SummaryInputs, budgets, seeds):
        for method in SUMMARY_METHODS:
            for k in budgets:
                for s in seeds:
                    yield (method, k, s), lambda m=method, k=k, s=s: hq.summarize(inp.data, m, k, seed=s)

    def warm_up(self, hq, inp: SummaryInputs) -> None:
        for _, call in self._ops(hq, inp, self.budgets[:1], self.seeds[:1]):
            call()

    def run(self, hq, inp: SummaryInputs) -> list:
        return [(key, _attempt(call)) for key, call in self._ops(hq, inp, self.budgets, self.seeds)]

    def _reference(self, hq, inp: SummaryInputs) -> SummaryRef:
        # The full-data fit is the program's own train_logistic; the score
        # embeddings, their normalization and the MMD are recomputed here.
        data = inp.data
        Xtr, ytr = data.subset("train")
        theta = hq.train_logistic(Xtr, ytr, lam=1.0).theta
        E = checks.score_embeddings(theta, data.features, data.labels.astype(float))
        return SummaryRef(E, E[data.indices("validation")].mean(axis=0), data.indices("train"))

    def check(self, hq, inp: SummaryInputs, results) -> tuple[list, int]:
        if inp.ref is None:
            inp.ref = self._reference(hq, inp)
        problems, count, reports = [], 0, {}
        for key, out in results:
            method, k, _ = key
            if isinstance(out, Exception):
                problems.append([f"{key} raised {out!r}"])
                count += (k + 1) * (method != "MC_RANDOM")
                continue
            problems.append(checks.check_summary(inp.ref, out, k))
            reports[key] = out
            if method != "MC_RANDOM":
                count += atoms_to_eps(out.trace.mmd_values, self.eps, k)
        grid = checks.check_summary_grid(reports) if len(reports) == len(results) else {}
        for i, (key, _) in enumerate(results):
            if key[0] in ("WKH", "SBQ"):
                problems[i] = problems[i] + grid.get(key[1], [])
        return problems, count


def _attempt(call):
    try:
        return call()
    except Exception as exc:  # an operation that raises counts as failed
        return exc


WORKLOADS = {
    w.name: w for w in (
        MixtureWorkload("mixture_d2_saturating", dim=2, eps=1e-8),
        MixtureWorkload("mixture_d8_distributed", dim=8, eps=1e-5, shards=(2, 5)),
        SummarizeWorkload("summarize_d128", eps=1.3e-2),
    )
}
