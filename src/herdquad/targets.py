"""Target-distribution functionals consumed by the quadrature objective.

A target couples a distribution p with a standardized kernel and exposes
the two quantities every selection algorithm reads:

* the mean-embedding function  z(x) = E_{x'~p}[k(x, x')], and
* the self-energy              c = E_{x,y~p}[k(x, y)].

Closed forms are implemented for Gaussian mixtures with diagonal
covariances under an RBF kernel and for discrete targets under any
kernel.  ``mc_mean_embed`` / ``mc_self_energy`` are the sampling oracles
used to verify the mixture's closed forms; a discrete target's closed
form is a finite sum, so it has no sampler.  A target equals and hashes
as itself only, since its fields are arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import Kernel, RBFKernel, as_point_matrix, check_count

EMBED_CHUNK_BYTES = 1 << 19  # one (J, rows, d) float block of mean_embed_many


class UnsupportedKernel(TypeError):
    """The target's closed form does not exist for this kernel family."""


class SamplerUnavailable(TypeError):
    """The target variant cannot draw samples."""


class TargetEmbedding:
    """Base class; subclasses implement ``self_energy`` and ``mean_embed_many``,
    which reads X as rows already ``kernel.prepare``-d when ``prepared``."""

    kernel: Kernel

    def mean_embed_many(self, X, prepared: bool = False) -> np.ndarray:
        raise NotImplementedError

    def mean_embed(self, x) -> float:
        return float(self.mean_embed_many(as_point_matrix(x))[0])

    def self_energy(self) -> float:
        raise NotImplementedError

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        raise SamplerUnavailable(f"{type(self).__name__} cannot draw samples")


@dataclass(eq=False)
class GaussianMixtureTarget(TargetEmbedding):
    """Gaussian mixture p = sum_j pi_j N(m_j, diag(v_j)) under an RBF kernel.

    ``covs`` is a (J, d, d) array of diagonal covariances with positive
    variances v_j on the diagonal.  With bandwidth sigma the Gaussian
    convolution identity gives

        z(x) = sum_j pi_j prod_i (sigma / sd_ji)
                      exp(-||(x - m_j) / sd_j||^2 / 2),   sd_j = sqrt(v_j + sigma^2)

        c    = sum_{j,l} pi_j pi_l prod_i (sigma / r_jli)
                      exp(-||(m_j - m_l) / r_jl||^2 / 2),  r_jl = sqrt(v_j + v_l + sigma^2)

    with the products taken in log space.  ``mean_embed_many`` whitens
    every component at once with the diagonal matrices diag(1 / sd_j),
    formed once per target, in chunks of points whose (J, rows, d)
    intermediates stay near ``EMBED_CHUNK_BYTES``, and never sums a
    one-row block, so a point's z is the same bits in every batch;
    ``self_energy`` takes the J pairs of each j as one (J, d) block.
    """

    weights: np.ndarray
    means: np.ndarray
    covs: np.ndarray
    kernel: RBFKernel

    def __post_init__(self):
        if not isinstance(self.kernel, RBFKernel):
            raise UnsupportedKernel("Gaussian-mixture closed forms require an RBF kernel")
        w = np.asarray(self.weights, dtype=float)
        m = np.asarray(self.means, dtype=float)
        S = np.asarray(self.covs, dtype=float)
        for name, arr in (("weights", w), ("means", m), ("covs", S)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"mixture {name} must be finite (found NaN or inf)")
        if m.ndim != 2:
            raise ValueError("means must form a (components, dim) array")
        k, d = m.shape
        if w.shape != (k,) or S.shape != (k, d, d):
            raise ValueError("weights, means and covs disagree on the component count")
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("mixture weights must be nonnegative and sum to 1")
        v = np.diagonal(S, axis1=1, axis2=2)
        # every variance positive and no nonzero entry off the diagonal
        valid = np.all(v > 0, axis=1) & (np.count_nonzero(S, axis=(1, 2)) == d)
        if not valid.all():
            raise ValueError(f"covariance {int(np.argmin(valid))} must be diagonal "
                             "with positive variances")
        self.weights, self.means, self.covs = w, m, S
        self._variances = v
        sd = np.sqrt(v + self.kernel.bandwidth**2)
        log_sigma_d = d * np.log(self.kernel.bandwidth)
        self._coefs = (w * np.exp(log_sigma_d - np.log(sd).sum(axis=1)))[:, None]
        # rows u = (x - m_j) diag(1 / sd_j), so ||u||^2 is the quadratic form
        # of z(x).  A product with the diagonal matrix rather than an
        # elementwise (x - m_j) / sd_j, which rounds z otherwise; the
        # division, and a product with 1 / sd_j, took 1.1-1.7x as long on
        # 20 000 points (d = 2 and 8, one BLAS thread, 2 cores)
        self._whiten_t = (1.0 / sd)[:, :, None] * np.eye(d)
        self._chunk_rows = max(1, EMBED_CHUNK_BYTES // (8 * k * d))
        self._self_energy: float | None = None

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def mean_embed_many(self, X, prepared: bool = False) -> np.ndarray:
        X = as_point_matrix(X)  # RBFKernel.prepare: the points as they are
        if X.shape[1] != self.dim:
            raise ValueError(f"dimension mismatch: points have {X.shape[1]}, target has {self.dim}")
        out = np.empty(X.shape[0])
        step = self._chunk_rows
        for s in range(0, X.shape[0], step):
            chunk = X[s:s + step]
            # numpy sums a (J, 1) block over components pairwise, not in order,
            # which rounds otherwise from J = 8 on, so a lone row goes as two copies
            rows = np.repeat(chunk, 2, axis=0) if len(chunk) == 1 else chunk
            u = (rows[None] - self.means[:, None]) @ self._whiten_t
            q = np.einsum("jnd,jnd->jn", u, u)
            # summed over components in order, row by row, so a point's value
            # does not depend on the other rows of the batch
            out[s:s + len(chunk)] = (self._coefs * np.exp(-0.5 * q)).sum(axis=0)[:len(chunk)]
        return out

    def self_energy(self) -> float:
        if self._self_energy is None:
            sigma = self.kernel.bandwidth
            v, m = self._variances, self.means
            terms = np.empty((len(m), len(m)))
            # the pairs of one j at a time: O(J d) memory
            for j in range(len(m)):
                r = np.sqrt(v[j] + v + sigma**2)
                y = (m[j] - m) / r
                amp = np.exp(self.dim * np.log(sigma) - np.log(r).sum(axis=1))
                terms[j] = amp * np.exp(-0.5 * np.einsum("ld,ld->l", y, y))
            self._self_energy = float(self.weights @ terms @ self.weights)
        return self._self_energy

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        comps = rng.choice(len(self.weights), size=n, p=self.weights)
        normals = rng.standard_normal((n, self.dim))
        return self.means[comps] + np.sqrt(self._variances)[comps] * normals


@dataclass(eq=False)
class DiscreteTarget(TargetEmbedding):
    """Discrete target sum_i q_i delta(y_i) under any standardized kernel.

    The support is prepared for the kernel (``Kernel.prepare``) once, on
    first use, and ``mean_embed_many`` and ``self_energy`` both read it.
    """

    support: np.ndarray
    probs: np.ndarray
    kernel: Kernel

    def __post_init__(self):
        pts = as_point_matrix(self.support)
        q = np.asarray(self.probs, dtype=float)
        for name, arr in (("support", pts), ("probs", q)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"discrete {name} must be finite (found NaN or inf)")
        if q.ndim != 1 or q.shape[0] != pts.shape[0]:
            raise ValueError("need one probability per support point")
        if np.any(q < 0) or abs(q.sum() - 1.0) > 1e-12:
            raise ValueError("probabilities must be nonnegative and sum to 1")
        self.support, self.probs = pts, q
        self._prepared_support: np.ndarray | None = None
        self._self_energy: float | None = None

    @classmethod
    def uniform(cls, points, kernel: Kernel) -> "DiscreteTarget":
        pts = as_point_matrix(points)
        return cls(support=pts, probs=np.full(pts.shape[0], 1.0 / pts.shape[0]), kernel=kernel)

    def _support(self) -> np.ndarray:
        if self._prepared_support is None:
            self._prepared_support = self.kernel.prepare(self.support)
        return self._prepared_support

    def mean_embed_many(self, X, prepared: bool = False) -> np.ndarray:
        P = X if prepared else self.kernel.prepare(X)
        return self.kernel.cross(P, self._support()) @ self.probs

    def self_energy(self) -> float:
        if self._self_energy is None:
            S = self._support()
            # S @ S.T on one buffer would take BLAS's symmetric product, which
            # rounds otherwise than gram(support, support); the copy keeps c
            # equal to that bit for bit
            G = self.kernel.cross(S, S.copy())
            self._self_energy = float(self.probs @ G @ self.probs)
        return self._self_energy


def mc_mean_embed(target: TargetEmbedding, x, n_samples: int, seed: int) -> tuple[float, float]:
    """Monte Carlo estimate of z(x) with its standard error.

    Draws ``n_samples`` points from the target's sampler under the given
    seed and averages k(x, draw); a target without a sampler raises
    ``SamplerUnavailable``.  With a single sample the standard error is
    reported as ``inf`` (no spread information).
    """
    check_count("n_samples", n_samples)
    draws = target.sample(n_samples, np.random.default_rng(seed))
    vals = target.kernel.gram(as_point_matrix(x), draws)[0]
    est = float(vals.mean())
    if n_samples == 1:
        return est, float("inf")
    return est, float(vals.std(ddof=1) / np.sqrt(n_samples))


def mc_self_energy(target: TargetEmbedding, n_pairs: int, seed: int) -> tuple[float, float]:
    """Monte Carlo estimate of the self-energy from independent sample pairs."""
    check_count("n_pairs", n_pairs)
    draws = target.sample(2 * n_pairs, np.random.default_rng(seed))
    vals = target.kernel.pairwise(draws[:n_pairs], draws[n_pairs:])
    est = float(vals.mean())
    if n_pairs == 1:
        return est, float("inf")
    return est, float(vals.std(ddof=1) / np.sqrt(n_pairs))
