"""Standardized similarity kernels and candidate pools.

Every kernel here is standardized, meaning k(x, x) = 1 on valid inputs.
That keeps the squared-MMD objective of the selection algorithms inside
[0, 1] and makes the Schur-complement independence test used by the
quadrature state meaningful.  ``unit_diagonal`` verifies the property on
a kernel diagonal; ``run_greedy`` applies it to every pool it selects from.

Each kernel splits into a per-point part and a cross product.
``prepare(X)`` does the per-point work once per batch: the RBF kernel
keeps the points as they are and the feature kernel scales them to unit
length.  ``cross(A, B)`` is the Gram matrix between two
prepared batches (cdist and exp, or ``A @ B.T``) and ``diagonal(A)`` is
k(x, x) at each prepared point.  ``gram(X, Y)`` equals
``cross(prepare(X), prepare(Y))``.  A caller that needs many kernel rows
of one pool, like ``run_greedy``, prepares the pool once and takes each
row from a slice of it, bit for bit equal to the ``gram`` row.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial.distance import cdist

STANDARDIZATION_TOL = 1e-10


class ZeroNormFeature(ValueError):
    """A feature vector with zero norm has no defined cosine similarity."""


class StandardizationError(ValueError):
    """Kernel diagonal deviates from 1 on the given pool."""


def as_point_matrix(X) -> np.ndarray:
    """Coerce a point or a batch of points to a float (n, d) array."""
    A = np.asarray(X, dtype=float)
    if A.ndim == 1:
        A = A.reshape(1, -1)
    if A.ndim != 2:
        raise ValueError(f"points must be a vector or a 2-d array, got shape {A.shape}")
    return A


def _check_same_dim(X: np.ndarray, Y: np.ndarray) -> None:
    if X.shape[1] != Y.shape[1]:
        raise ValueError(f"dimension mismatch: {X.shape[1]} vs {Y.shape[1]}")


class Kernel:
    """Base class for standardized kernels.

    Subclasses implement ``cross`` (the Gram matrix of two prepared
    batches) and ``gram`` (the cross Gram matrix of two raw batches,
    ``cross(prepare(X), prepare(Y))``).  By default ``prepare`` (the
    per-point part of a batch) only coerces the points to a matrix and
    ``diagonal`` (k(x, x) per prepared point) is 1.
    """

    def prepare(self, X) -> np.ndarray:
        return as_point_matrix(X)

    def cross(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def diagonal(self, A: np.ndarray) -> np.ndarray:
        return np.ones(A.shape[0])

    def gram(self, X, Y) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class RBFKernel(Kernel):
    """Gaussian kernel exp(-||x - y||^2 / (2 * bandwidth^2))."""

    bandwidth: float

    def __post_init__(self):
        if not (np.isfinite(self.bandwidth) and self.bandwidth > 0):
            raise ValueError(f"bandwidth must be a positive finite number, got {self.bandwidth}")

    def cross(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        _check_same_dim(A, B)
        if A.shape[0] == 0 or B.shape[0] == 0:
            return np.zeros((A.shape[0], B.shape[0]))
        sq = cdist(A, B, "sqeuclidean")
        np.divide(sq, -2.0 * self.bandwidth**2, out=sq)  # in place: the same bits as -sq / (2 h^2)
        return np.exp(sq, out=sq)

    def gram(self, X, Y) -> np.ndarray:
        return self.cross(self.prepare(X), self.prepare(Y))

    def pairwise(self, X, Y) -> np.ndarray:
        """k(x_i, y_i) for two equal-length batches, the pairs of ``mc_self_energy``."""
        X, Y = as_point_matrix(X), as_point_matrix(Y)
        _check_same_dim(X, Y)
        if X.shape[0] != Y.shape[0]:
            raise ValueError("pairwise needs equal-length batches")
        sq = np.sum((X - Y) ** 2, axis=1)
        return np.exp(-sq / (2.0 * self.bandwidth**2))


@dataclass(frozen=True)
class NormalizedFeatureKernel(Kernel):
    """Cosine similarity of the points, read as finite-dimensional features.

    The kernel of a feature map phi is this kernel on the points phi(X).
    ``prepare`` scales the points to unit length, so the cross product is
    ``A @ B.T`` and the diagonal is 1 by construction.  A zero-norm point
    raises ``ZeroNormFeature``.
    """

    def prepare(self, X) -> np.ndarray:
        X = as_point_matrix(X)
        if X.shape[0] == 0:
            return X
        norms = np.linalg.norm(X, axis=1)
        if np.any(norms == 0.0):
            raise ZeroNormFeature("zero-norm feature vector: cosine similarity undefined")
        return X / norms[:, None]

    def cross(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        if A.shape[0] == 0 or B.shape[0] == 0:
            return np.zeros((A.shape[0], B.shape[0]))
        _check_same_dim(A, B)
        return A @ B.T

    def gram(self, X, Y) -> np.ndarray:
        return self.cross(self.prepare(X), self.prepare(Y))


@dataclass(frozen=True, eq=False)
class CandidatePool:
    """A finite indexed candidate set: (n, d) coordinates plus integer ids.

    Freshly built pools number their points 0..n-1; sub-pools made by
    ``take``, like the shards and the aggregator's pool of
    ``run_distributed``, keep the original ids so that selections remain
    traceable across shards.  Rows are listed by strictly increasing id.
    The pool owns read-only arrays: the constructor copies its inputs once
    and ``take`` keeps the fresh rows it gathers.  The pool keeps the
    ``selectors.PoolSetup`` of its latest target in ``_setup``, and
    ``take`` hands a sub-pool its rows of it.  The read-only flags hold in
    the calling process only: a process worker of ``run_distributed``
    unpickles writeable copies, and nothing writes into them.  A pool
    equals and hashes as itself only, since its fields are arrays.
    """

    points: np.ndarray
    ids: np.ndarray

    def __post_init__(self):
        self._own(np.array(self.points, dtype=float), np.array(self.ids, dtype=int))

    def _own(self, pts: np.ndarray, ids: np.ndarray) -> None:
        if pts.ndim != 2:
            raise ValueError("pool points must form a 2-d array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("pool points must be finite")
        if ids.ndim != 1 or ids.shape[0] != pts.shape[0]:
            raise ValueError("need exactly one id per pool point")
        if np.any(ids[1:] <= ids[:-1]):
            raise ValueError("pool ids must be unique and strictly increasing")
        pts.flags.writeable = ids.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "_setup", None)

    @classmethod
    def from_points(cls, points) -> "CandidatePool":
        pts = np.asarray(points, dtype=float)
        return cls(points=pts, ids=np.arange(pts.shape[0]))

    def __len__(self) -> int:
        return self.points.shape[0]

    def take(self, rows) -> "CandidatePool":
        """Sub-pool of the given rows, which must ascend so that the ids do.

        The rows of this pool's setup need no kernel or target call; they are
        the sub-pool's own setup bit for bit under RBF and a Gaussian mixture,
        to round-off where the embedding is a BLAS product.
        """
        sub = object.__new__(CandidatePool)
        sub._own(self.points[rows], self.ids[rows])
        setup = self._setup  # read once: another thread may replace it
        if setup is not None:
            # where the prepared rows are the points themselves, keep one copy of them
            prepared = sub.points if setup.prepared is self.points else setup.prepared[rows]
            object.__setattr__(sub, "_setup", replace(
                setup, prepared=prepared, diag=setup.diag[rows], embeds=setup.embeds[rows]))
        return sub

    def point_by_id(self, pool_id: int) -> np.ndarray:
        rows = np.flatnonzero(self.ids == int(pool_id))
        if rows.size == 0:
            raise KeyError(f"id {pool_id} not in pool")
        return self.points[rows[0]]


def unit_diagonal(diag: np.ndarray) -> bool:
    """True when every entry k(x, x) of ``diag`` is within ``STANDARDIZATION_TOL`` of 1."""
    return bool(np.all(np.abs(diag - 1.0) <= STANDARDIZATION_TOL))
