"""Incrementally factorized quadrature state.

``QuadratureState`` tracks the selected atoms, the lower Cholesky factor L
of their Gram matrix K, the projected embeddings alpha = L^{-1} z, the
optimal weights w = L^{-T} alpha, and the squared MMD between the target
embedding and the weighted atom embedding:

    mmd_sq = c - z^T K^{-1} z = c - ||alpha||^2

with z the mean embedding at the atoms and c the target self-energy.
Adding an atom extends L and alpha by one row with one O(i^2) forward
solve and subtracts the new alpha_i^2 from mmd_sq, so the objective never
rises, not even by round-off.  The caller may pass the atom's kernel
entries k(atoms, x) and k(x, x); ``run_greedy`` takes them from
``PoolScores.entries``, so a greedy step computes one kernel row of the
pool and, on a blocked RBF pool, the i + 1 entries at the atoms and x
once more.  The weights are solved from L and alpha by one
back-substitution on their first read after a change, not after every
atom.  K itself is not stored: ``gram`` recomputes it from the kernel, so
audits of the weights do not trust a cached copy.  An atom whose Schur
complement falls below ``TAU_DEP`` would make the factor numerically
singular and is rejected instead of jittered.

L, the atoms, z and alpha live in buffers whose row count doubles when
they fill, from ``INITIAL_CAPACITY``; an accepted atom writes one row of
each, only after every check has passed, so a rejected atom leaves the
state as it was and no step copies L.  ``chol``, ``atoms``, ``embeds`` and
``alpha`` are views of the first ``size`` rows.  A row, once written, is
never written again, so an array read from them keeps its values while
the state grows; ``copy`` copies the buffers.

``scores`` gives candidates' residual correlations r = z - Y^T alpha and
Schur complements s = diag - colsum(Y^2), with Y = L^{-1} K(atoms,
candidates), from scratch.  ``PoolScores`` starts a pool of n points as
its i = 0 case and steps Y, s and r: each accepted atom adds one row of
Y from one kernel row and an O(n i) product, so a greedy step costs
O(n (i + d)) in d dimensions instead of rebuilding an i x n Gram block.
Y holds at most min(k, n) rows, k n 8 bytes for k atoms: 16 MB at
n = 20 000 and k = 100.  Y, s and r are updated in place, through one
scratch vector of length n per run, so a step allocates nothing of the
pool's length.  Candidates with s < ``TAU_DEP`` are masked in bulk by
the selection scores rather than tried and rejected one at a time.

On a large pool ``PoolScores`` splits Y, s and r into column blocks and
steps them on helper threads, one per core; under an entrywise kernel each
block computes its own columns of the kernel row inside the step.  Its
docstring describes the blocks, the order of a step's calls and the
timings that chose it.

The state keeps its own forward solve for L rather than reading L from
the pool's Y: a row of Y comes out of a product whose length is the pool's
length, and BLAS rounds such products differently at different lengths.
``RBFKernel`` computes its entries pair by pair (``Kernel.entrywise``),
so the entries of a cross against the atoms equal those of the pool's
row, and the Gaussian mixture
embeds a point alike in any batch of two rows or more, so under them the
state's L, alpha and mmd_sq depend only on the atoms and their order, not
on the pool they were picked from; a distributed aggregator that re-picks
a worker's atoms reproduces the worker's objective bit for bit.  This does
not hold for ``NormalizedFeatureKernel`` with a ``DiscreteTarget``: its
Gram entries and the discrete embedding are BLAS products that round with
the pool's length.
"""

from __future__ import annotations

import contextlib
import functools
import os
import queue
import threading

import numpy as np
from scipy.linalg import lapack, solve_triangular

from .kernels import Kernel
from .targets import TargetEmbedding

TAU_DEP = 1e-10
# rows of a state's buffers before its first growth
INITIAL_CAPACITY = 32
# Round-off floor of g, read by every "is g zero?" test: kernels are
# standardized, so 0 <= g <= c <= 1, and the bench checker's floor is -1e-12.
G_ROUNDOFF = 1e-12
# PoolScores splits a pool's columns into blocks at multiples of this many
# columns: the BLAS products then group each block's columns as they group
# the whole pool's, and every column of Y rounds alike.
BLOCK_ALIGN = 64
# Fewest pool columns a block of PoolScores takes, so a pool below twice
# this stays one block: the crossover measured on a 2-core host, where two
# blocks first beat one at about 4 000 candidates in 8-d and 5 500 in 2-d,
# since a step's handoff to a helper costs 25-30 us.
BLOCK_MIN_COLUMNS = 3000

# .cores: this thread's runs share the cores with other runs; .buffer: memory for their Y
_sharing = threading.local()


def share_cores(buffers: list | None = None) -> None:
    """Keep every ``PoolScores`` built later on this thread in one column
    block: the initializer of ``run_distributed``'s thread and process
    pools, whose workers run at the same time and take a core each.

    A thread worker also takes one of ``buffers``, flat float arrays the
    caller allocated, and every ``PoolScores`` built later on this thread
    carves Y from it where it is large enough.  Y then lives in the caller's
    malloc arena, which hands the same pages to the next call, rather than
    in an arena of the worker thread's own that keeps them after the run.
    A worker that finds no buffer left takes none and does not wait.
    """
    _sharing.cores = True
    if buffers is not None:
        with contextlib.suppress(IndexError):
            _sharing.buffer = buffers.pop()


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    has one, which a cpuset or ``taskset`` can make smaller than the host's
    CPU count, and otherwise that count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _block_count(n: int) -> int:
    """Column blocks of ``PoolScores`` on n candidates: at most one per usable
    CPU, with n / B at least ``BLOCK_MIN_COLUMNS``, and one on a thread that
    ran ``share_cores``."""
    if getattr(_sharing, "cores", False):
        return 1
    return max(1, min(usable_cpus(), n // BLOCK_MIN_COLUMNS))


def reported_g(g: float, method: str, iteration: int) -> float:
    """g as every CLI artifact and report writes it: round-off in [-G_ROUNDOFF, 0)
    reads as 0, and a fault below that raises ``ValueError`` naming method and iteration."""
    if not g >= -G_ROUNDOFF:
        raise ValueError(f"{method} iteration {iteration}: g = {g!r} is negative beyond round-off")
    return max(g, 0.0)


class NearDependentAtom(Exception):
    """Candidate is numerically dependent on the selected atoms."""

    def __init__(self, pool_id: int, schur: float):
        super().__init__(f"atom {pool_id} is numerically dependent (schur complement {schur:.3e})")
        self.pool_id = pool_id
        self.schur = schur


class DuplicateAtom(Exception):
    """Candidate pool id is already among the selected atoms."""


class KernelMismatch(ValueError):
    """The run kernel is not the kernel the target's embedding is taken under."""


def check_kernel(target: TargetEmbedding, kernel: Kernel) -> None:
    """Raise ``KernelMismatch`` unless ``kernel`` is, or equals, ``target.kernel``.

    z and c come from the target's kernel; scoring them against another
    kernel's Gram matrix has no meaning and can drive mmd_sq negative.
    """
    if kernel is not target.kernel and kernel != target.kernel:
        raise KernelMismatch(f"run kernel {kernel!r} differs from the target's {target.kernel!r}")


class QuadratureState:
    """Mutable selection state for one (target, kernel) pair."""

    def __init__(self, target: TargetEmbedding, kernel: Kernel):
        check_kernel(target, kernel)
        self.target = target
        self.kernel = kernel
        self.self_energy = float(target.self_energy())
        self.atom_ids: list[int] = []
        # row buffers; the atoms' width is set by the first atom
        self._chol = np.zeros((0, 0))
        self._atoms = np.zeros((0, 0))
        self._embeds = np.zeros(0)
        self._alpha = np.zeros(0)
        self._weights: np.ndarray | None = None
        self.mmd_sq = self.self_energy

    @property
    def size(self) -> int:
        return len(self.atom_ids)

    @property
    def chol(self) -> np.ndarray:
        return self._chol[:self.size, :self.size]

    @property
    def atoms(self) -> np.ndarray:
        return self._atoms[:self.size]

    @property
    def embeds(self) -> np.ndarray:
        return self._embeds[:self.size]

    @property
    def alpha(self) -> np.ndarray:
        return self._alpha[:self.size]

    def _factor(self) -> np.ndarray:
        """L as its own C-ordered array.

        LAPACK takes another path for a strided view of the buffer, which
        changes the last bits of the solves; the copy keeps them.
        """
        return np.ascontiguousarray(self.chol)

    @property
    def weights(self) -> np.ndarray:
        """w = L^{-T} alpha, solved on the first read after the atoms change.

        Assigning sets the weights the audits read until the next atom.
        """
        if self._weights is None:
            self._weights = (solve_triangular(self._factor().T, self.alpha, lower=False)
                             if self.size else np.zeros(0))
        return self._weights

    @weights.setter
    def weights(self, value) -> None:
        self._weights = value

    @property
    def gram(self) -> np.ndarray:
        """K = k(atoms, atoms), recomputed from the kernel on every read."""
        return self.kernel.gram(self.atoms, self.atoms) if self.size else np.zeros((0, 0))

    def copy(self) -> "QuadratureState":
        out = object.__new__(QuadratureState)
        out.target = self.target
        out.kernel = self.kernel
        out.self_energy = self.self_energy
        out.atom_ids = list(self.atom_ids)
        out._chol = self._chol.copy()
        out._atoms = self._atoms.copy()
        out._embeds = self._embeds.copy()
        out._alpha = self._alpha.copy()
        out._weights = None if self._weights is None else self._weights.copy()
        out.mmd_sq = self.mmd_sq
        return out

    def _grow(self, dim: int) -> None:
        """Double the buffers' rows (at least ``INITIAL_CAPACITY``), keeping the rows so far."""
        i = self.size
        cap = max(2 * i, INITIAL_CAPACITY)
        chol, atoms, embeds, alpha = (np.zeros((cap, cap)), np.zeros((cap, dim)),
                                      np.zeros(cap), np.zeros(cap))
        if i:
            chol[:i, :i] = self.chol
            atoms[:i] = self.atoms
            embeds[:i] = self.embeds
            alpha[:i] = self.alpha
        self._chol, self._atoms, self._embeds, self._alpha = chol, atoms, embeds, alpha

    def add_atom(self, x, pool_id: int, embed: float | None = None,
                 k_atoms: np.ndarray | None = None, k_self: float | None = None) -> None:
        """Select point ``x`` (pool id ``pool_id``).

        ``embed`` may carry the precomputed mean-embedding value z(x),
        ``k_atoms`` the kernel entries k(atom_j, x) in atom order and
        ``k_self`` the self-similarity k(x, x); given all three, the call
        evaluates neither the target nor the kernel.  Raises
        ``DuplicateAtom`` for an already-selected id,
        ``NearDependentAtom`` when the Schur complement drops below
        ``TAU_DEP`` and ``ValueError`` when it is not finite (a NaN or inf
        kernel entry) or ``x`` has another dimension than the atoms; the
        state is unchanged in all four cases.
        """
        pool_id = int(pool_id)
        if pool_id in self.atom_ids:
            raise DuplicateAtom(f"pool id {pool_id} already selected")
        x = np.asarray(x, dtype=float).ravel()
        i = self.size
        dim = self._atoms.shape[1]
        if i and x.shape[0] != dim:
            raise ValueError(f"point has {x.shape[0]} coordinates, the atoms {dim}")
        kxx = float(self.kernel.gram(x, x)[0, 0] if k_self is None else k_self)
        if i == 0:
            lrow = np.zeros(0)
            schur = kxx
        else:
            if k_atoms is None:
                kx = self.kernel.gram(self.atoms, x.reshape(1, -1))[:, 0]
            else:
                kx = np.asarray(k_atoms, dtype=float)
                if kx.shape != (i,):
                    raise ValueError(f"need {i} kernel entries at the atoms, got shape {kx.shape}")
            # solve_triangular's own LAPACK call without its argument handling,
            # which costs about 14 us a call, five times the solve at i = 60.
            # The first i columns of the buffer's transpose are L^T, Fortran-
            # ordered with the buffer's row length as leading dimension, so
            # L lrow = kx is solved in place of a copy; a non-finite entry of
            # kx fails the finiteness gate below.
            lrow = lapack.dtrtrs(self._chol.T[:, :i], kx, lower=0, trans=1)[0]
            schur = kxx - float(lrow @ lrow)
        if not np.isfinite(schur):
            raise ValueError(f"pool id {pool_id}: kernel entries give a non-finite Schur complement")
        if schur < TAU_DEP:
            raise NearDependentAtom(pool_id, schur)

        pivot = np.sqrt(schur)
        z = self.target.mean_embed(x) if embed is None else float(embed)
        a = float((z - lrow @ self.alpha) / pivot)

        if i == len(self._embeds):
            self._grow(x.shape[0])
        self._chol[i, :i] = lrow
        self._chol[i, i] = pivot
        self._atoms[i] = x
        self._embeds[i] = z
        self._alpha[i] = a
        self.atom_ids.append(pool_id)
        self._weights = None
        self.mmd_sq -= a * a

    def scores(self, prepared: np.ndarray, embeds: np.ndarray,
               diag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """r = z - Y^T alpha and s = diag - colsum(Y^2) of candidates given by
        their prepared rows, embeddings z and kernel diagonal, with one solve
        Y = L^{-1} K(atoms, candidates); an empty state copies ``embeds`` and ``diag``."""
        if self.size == 0:
            return np.array(embeds, dtype=float), np.array(diag, dtype=float)
        C = self.kernel.cross(self.kernel.prepare(self.atoms), prepared)
        Y = solve_triangular(self._factor(), C, lower=True)
        return embeds - Y.T @ self.alpha, diag - np.einsum("ij,ij->j", Y, Y)

    def _scores_at(self, X) -> tuple[np.ndarray, np.ndarray]:
        prepared = self.kernel.prepare(X)
        return self.scores(prepared, self.target.mean_embed_many(prepared, prepared=True),
                           self.kernel.diagonal(prepared))

    def residual_correlations(self, X) -> np.ndarray:
        """``scores``' r at a batch of points, a read the bench's tracer names."""
        return self._scores_at(X)[0]

    def schur_complements(self, X) -> np.ndarray:
        """``scores``' s at a batch of points, a read the bench's tracer names."""
        return self._scores_at(X)[1]


class PoolScores:
    """Residual correlations and Schur complements of a pool, kept in step with a state.

    Starts from an empty ``state`` and a pool of n points: the kernel's
    prepared rows ``prepared`` (``state.kernel.prepare`` of the points), the
    embeddings ``embeds`` and the kernel diagonal ``diag``.  A pick of pool
    row ``row`` takes two calls inside ``with scores.steps() as step``:
    ``k_atoms, k_self = scores.entries(row)`` gives the kernel entries
    k(atoms, x) and k(x, x) that ``state.add_atom(points[row], ...)`` takes,
    and ``step(row)``, right after that call has accepted the atom, folds it
    into the pool.  ``resid`` and ``schur`` start as, and then equal up to
    round-off, ``state.scores(prepared, embeds, diag)``, at O(n (i + d))
    per atom instead of O(n i (i + d)).  An atom's own row is set to its
    exact Schur complement, 0, so the dependence mask that keeps
    near-dependent candidates out also keeps atoms from being picked again.
    ``capacity`` bounds the number of atoms the state may take.

    The pool's columns fall into B contiguous blocks [bounds[b],
    bounds[b + 1]): at most one per CPU the process may run on
    (``usable_cpus``) with n / B at least ``BLOCK_MIN_COLUMNS``, and one on
    a thread that ran ``share_cores``.  ``proj[b]`` is block b's
    (min(capacity, n), width) part of Y, carved from one allocation of Y's
    size, so each block's step reads only contiguous memory and can run on
    its own core.  On a thread worker of ``run_distributed`` that allocation
    is the front of the buffer ``share_cores`` handed the thread, where that
    buffer holds Y; every run on the thread reuses it, since no Y outlives
    its run.  A column of Y, s and r depends only on its own column of
    the kernel row and of Y, and the blocks split at multiples of
    ``BLOCK_ALIGN`` columns, where the BLAS product groups columns as it
    does over the whole pool; so the blocks hold the whole pool's values bit
    for bit, and a pick still scores the whole pool at once.

    ``steps`` gives each block but the first a helper thread, joined on
    exit, that runs the block's O(n i / B) product L[i, :i] @ Y[:i] (numpy
    releases the GIL for it) while the caller steps the first block; the
    caller then folds the other blocks in, since the rest of a block's step
    is a dozen short numpy calls that would hand the GIL back and forth for
    longer than they take.  A helper takes the picked row from a queue of
    its own and answers each on a shared queue with ``None`` or the
    exception it raised, which the step re-raises once every helper has
    answered.

    Where the blocks are several and the kernel is ``entrywise``, no whole
    kernel row is computed: ``entries`` takes its i + 1 entries from one
    cross of the pick against the atoms' prepared rows, and each block
    computes its own columns of the row in the thread that runs its
    product, a helper before its product and the caller after its own,
    then its fold.  Each thread's short calls then fall while the other
    thread is inside a long call, so the two seldom wait for the GIL, which
    numpy drops and takes back in every call over more than 500 elements.  The
    order was measured on the bench's d2 pool (WKH + SBQ, k = 100, n =
    20 000, 2 cores, one BLAS thread, medians of 9 in each of 3 processes):
    36.6-36.9 ms, against 38.0-38.7 ms for the whole row on the caller
    before ``add_atom``, 36.9-37.9 ms for both threads' columns first,
    and 38.1-38.3 ms for the caller's columns first and the helper's
    product first.  Otherwise ``entries`` computes the whole row and reads
    the state's entries from it: a feature kernel's cross over the atoms
    alone would round some of them differently, and with one block, as on
    a small pool or a concurrent worker of ``run_distributed``, the extra
    cross costs more than it saves (the d8 bench's s = 5 calls: 87.8-88.8
    -> 94.6-95.5 ms).  One block's step is one ``_fold`` call, with no
    thread, queue or ``try``.
    """

    def __init__(self, state: QuadratureState, prepared: np.ndarray, embeds: np.ndarray,
                 diag: np.ndarray, capacity: int):
        if state.size:
            raise ValueError("PoolScores starts from an empty state")
        self.state = state
        self.prepared = prepared
        n = len(embeds)
        rows = min(capacity, n)
        blocks = _block_count(n)
        self.bounds = [0] + [n * b // blocks // BLOCK_ALIGN * BLOCK_ALIGN
                             for b in range(1, blocks)] + [n]
        buf = getattr(_sharing, "buffer", None)
        if buf is None or buf.size < rows * n:
            buf = np.empty(rows * n)
        self.proj = [buf[rows * start:rows * stop].reshape(rows, stop - start)
                     for start, stop in zip(self.bounds, self.bounds[1:])]
        self.resid, self.schur = state.scores(prepared, embeds, diag)
        scratch = np.empty(n)
        # each block's (start, stop) and views of s, r and the scratch vector
        self._views = [(start, stop, self.schur[start:stop], self.resid[start:stop],
                        scratch[start:stop]) for start, stop in zip(self.bounds, self.bounds[1:])]
        # The pool rows of the atoms, or under blocks that compute their own
        # columns their prepared rows, and past them the latest pick's, which
        # the next pick overwrites unless add_atom accepted it.  Copying each
        # pick's prepared row once costs less than gathering the atoms' rows
        # at every pick, which made the d2 bench's blocked calls 3 % slower.
        self._atom_rows = np.empty(rows, dtype=int)
        self._split = blocks > 1 and state.kernel.entrywise
        self._picked = (np.empty((rows,) + prepared.shape[1:], dtype=prepared.dtype)
                        if self._split else None)
        self._row = None  # the latest pick's whole kernel row, unless split
        self._cols = [None] * blocks  # block b's columns of the latest atom's row, if split

    def entries(self, row: int) -> tuple[np.ndarray, float]:
        """k(atoms, x) and k(x, x), in atom order, for the point x at pool row
        ``row``: the kernel entries ``state.add_atom`` takes for it."""
        i = self.state.size
        pick = self.prepared[row:row + 1]
        if self._split:
            atoms = self._picked
            atoms[i] = pick[0]
            k = self.state.kernel.cross(pick, atoms[:i + 1])[0]
            return k[:i], k[i]
        self._atom_rows[i] = row
        k = self._row = self.state.kernel.cross(pick, self.prepared)[0]
        return k[self._atom_rows[:i]], k[row]

    def _columns(self, b: int, row: int) -> None:
        """Block b's columns of pool row ``row``'s kernel row, into ``_cols[b]``."""
        pick = self.prepared[row:row + 1]
        self._cols[b] = self.state.kernel.cross(
            pick, self.prepared[self.bounds[b]:self.bounds[b + 1]])[0]

    def _project(self, b: int) -> None:
        """Block b's product L[i, :i] @ Y[:i] into its row i of Y: a helper's part of a step."""
        i = self.state.size - 1
        Y = self.proj[b]
        np.dot(self.state._chol[i, :i], Y[:i], out=Y[i])

    def _fold(self, b: int, row: int, project: bool = False) -> None:
        """Rest of block b's step, its row of Y, s and r, once ``_project(b)``
        has run; with ``project``, block b's whole step, its product first."""
        st = self.state
        i = st.size - 1
        start, stop, schur, resid, tmp = self._views[b]
        Y = self.proj[b]
        y = Y[i]
        if project:
            np.dot(st._chol[i, :i], Y[:i], out=y)
        # y = (k_row - L[i, :i] @ Y[:i]) / L[i, i], in place of the product
        np.subtract(self._cols[b] if self._split else self._row[start:stop], y, out=y)
        y /= st._chol[i, i]
        schur -= np.multiply(y, y, out=tmp)
        resid -= np.multiply(st._alpha[i], y, out=tmp)
        if start <= row < stop:
            self.schur[row] = 0.0

    @contextlib.contextmanager
    def steps(self):
        """Yield ``step(row)``, which folds the state's newest atom, pool row
        ``row``, into every block."""
        if len(self.proj) == 1:
            yield functools.partial(self._fold, 0, project=True)
            return
        blocks = range(1, len(self.proj))
        todos = [queue.SimpleQueue() for _ in blocks]
        answers = queue.SimpleQueue()
        split = self._split

        def serve(b: int, todo: queue.SimpleQueue) -> None:
            while (row := todo.get()) is not None:  # None stops the helper
                try:
                    if split:
                        self._columns(b, row)
                    self._project(b)
                    answers.put(None)
                except BaseException as err:  # re-raised by the caller's step
                    answers.put(err)

        def step(row: int) -> None:
            for todo in todos:
                todo.put(row)
            try:
                if split:
                    self._project(0)
                    self._columns(0, row)
                    self._fold(0, row)
                else:
                    self._fold(0, row, project=True)
            finally:
                errors = [err for err in [answers.get() for _ in todos] if err is not None]
            if errors:
                raise errors[0]
            for b in blocks:
                self._fold(b, row)

        threads = []
        try:
            for args in zip(blocks, todos):
                thread = threading.Thread(target=serve, args=args, name="herdquad-block",
                                          daemon=True)
                thread.start()
                threads.append(thread)
            yield step
        finally:
            for todo in todos:
                todo.put(None)
            for thread in threads:
                thread.join()


def new_state(target: TargetEmbedding, kernel: Kernel) -> QuadratureState:
    """Empty state: no atoms, mmd_sq equal to the target self-energy.

    Raises ``KernelMismatch`` when ``kernel`` is not the target's kernel.
    """
    return QuadratureState(target, kernel)
