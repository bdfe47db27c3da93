"""Sparse multi-output GP through a small set of inducing locations.

The sparse joint model keeps the exact prior covariance within each
measurement type and routes all cross-type covariance through the latent
measurements at the inducing locations.  With a single type it therefore
coincides with the exact model, for any inducing set.  Conditioning on the
inducing measurements makes distinct types independent, which is the
structure the selection criterion exploits.

This module owns that block algebra, once: ``fill_residual`` computes the
per-type residual ``C - W K_uu^-1 W^T``; ``sparse_cov`` covaries queries
with pool positions, whose side it reads from the model, for the posterior
mean; and ``BlockFactors(model, cols)`` is the one object that conditions on
a set of pool positions: it slices their cached blocks, factors each
residual block and, once, the set's ``K_uu + S`` (``S`` its inducing
information), for the posterior and the selection criterion alike, and the
criterion's ``K_uu + T + S_aux`` when it is read (also by the exact
rescoring of near-ties that ``selector._greedy_loop`` asks for).

Inside the library a selection is a list of pool positions and any other
tuple set a :class:`~mogpal.kernels.TupleArray`.  Public calls take
``(location, type)`` tuples: ``PitcModel.positions`` is the one place that
turns them into positions and rejects a tuple missing from the pool or
repeated, and ``TupleArray.build`` the one place that turns them into
arrays and validates them against the hyperparameters.

Memory: the pool layout lives in ``PitcModel`` alone.  ``W`` (N x m) and
``G`` (m x N) span the whole pool, where each type is a contiguous range.
Per type, the only candidate-by-candidate array is the residual ``R``,
written in place a chunk of rows at a time, so neither the prior block ``C``
nor ``W G`` is ever held whole.  ``build_model`` factors the target ``R``
in that buffer for the target summary and refills it with the same chunk
calls, bitwise.  Of ``C`` the model keeps the diagonal
(``PitcModel.prior_var``); the criterion reads any other entry within the
pool as ``W G + R`` and never calls the kernel.
"""

import functools
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import ConfigError, DomainError, IllConditionedError, ModelBuildError
from .kernels import NOISE_FLOOR, Hyperparams, TupleArray
from .linalg import chol_spd, spd_info_in_place


# ---------------------------------------------------------------------------
# inducing-location selection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InducingSet:
    """Pairwise distinct inducing locations, one per row, read-only."""

    locations: np.ndarray

    def __post_init__(self):
        loc = np.atleast_2d(np.asarray(self.locations, dtype=float))
        if loc.shape[0] < 1:
            raise ModelBuildError("inducing set must contain at least one location")
        if np.unique(loc, axis=0).shape[0] != loc.shape[0]:
            raise ModelBuildError("inducing locations must be pairwise distinct")
        loc.setflags(write=False)
        object.__setattr__(self, "locations", loc)

    def __len__(self):
        return self.locations.shape[0]


def _kmeans_pp_init(coords, m, rng):
    n = coords.shape[0]
    centers = np.empty((m, coords.shape[1]))
    centers[0] = coords[rng.integers(n)]
    d2 = np.sum((coords - centers[0]) ** 2, axis=1)
    for k in range(1, m):
        total = d2.sum()
        if total <= 0:
            # all remaining points coincide with chosen centers
            remaining = np.flatnonzero(d2 == 0)
            centers[k] = coords[remaining[0]]
            continue
        idx = rng.choice(n, p=d2 / total)
        centers[k] = coords[idx]
        d2 = np.minimum(d2, np.sum((coords - centers[k]) ** 2, axis=1))
    return centers


def select_inducing(candidates, m, seed) -> InducingSet:
    """Cluster candidate locations with seeded Lloyd's k-means.

    Exact duplicate coordinates are collapsed before clustering; the run is
    deterministic for a fixed seed (k-means++ initialization, at most 100
    iterations, stopping when the relative inertia change drops below 1e-6).
    The cluster centers are the inducing locations.
    """
    coords = np.atleast_2d(np.asarray(candidates, dtype=float))
    unique = list(dict.fromkeys(map(tuple, coords.tolist())))
    coords = np.asarray(unique, dtype=float)
    n = coords.shape[0]
    if m < 1:
        raise ConfigError(f"requested {m} inducing locations; at least one is needed")
    if m > n:
        raise ConfigError(f"requested {m} inducing locations from {n} distinct candidates")
    rng = np.random.default_rng(seed)
    centers = _kmeans_pp_init(coords, m, rng)

    inertia_prev = np.inf
    for _ in range(100):
        d2 = np.sum((coords[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        assign = np.argmin(d2, axis=1)
        inertia = float(d2[np.arange(n), assign].sum())
        for k in range(m):
            members = assign == k
            if members.any():
                centers[k] = coords[members].mean(axis=0)
            else:
                # deterministic empty-cluster fix: grab the worst-fit point
                far = int(np.argmax(d2[np.arange(n), assign]))
                centers[k] = coords[far]
                assign[far] = k
        if inertia_prev < np.inf and abs(inertia_prev - inertia) <= 1e-6 * max(inertia_prev, 1e-300):
            break
        inertia_prev = inertia
    return InducingSet(locations=centers)


# ---------------------------------------------------------------------------
# sparse model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PitcModel:
    """Precomputed sparse model over a fixed candidate pool.

    ``kuu`` is the inducing covariance that ``kuu_factor`` factors, jitter
    included when the factor needed it.  Candidates are stored sorted by
    ``(type_index, location)`` so that argmax ties downstream break
    lexicographically, and each type ``i`` is the contiguous range
    ``type_slices[i]`` of the pool.  Over the whole pool the model keeps the
    candidate-inducing cross covariance ``W`` (N x m), its inducing solve
    ``G = K_uu^-1 W^T`` (m x N, C-ordered) and the prior variances
    ``prior_var``; per type it keeps the residual block
    ``R[i] = C[i] - W[s] G[:, s]`` of the exact prior block ``C[i]``, with
    ``s = type_slices[i]``.  Of ``C[i]`` itself only the diagonal is kept;
    the criterion reads ``C[i]`` as ``W[s] G[:, s] + R[i]``.
    One type, ``h.target_type`` (t below), is the target and the others are
    auxiliary.  ``target_summary`` is the inducing information
    ``W[s]^T R[t]^-1 W[s]`` of the whole target pool, ``s = type_slices[t]``,
    computed by :func:`build_model` with ``R[t]`` factored in its own buffer
    and refilled before the model is returned.  ``aux_cols`` are the pool
    positions of the auxiliary candidates; :meth:`positions` looks up the
    positions of any tuples.
    """

    h: Hyperparams
    inducing: InducingSet
    kuu: np.ndarray
    kuu_factor: object = field(repr=False)
    candidates: TupleArray
    type_slices: dict = field(repr=False)
    W: np.ndarray = field(repr=False)
    G: np.ndarray = field(repr=False)
    R: dict = field(repr=False)
    prior_var: np.ndarray = field(repr=False)
    tuple_index: dict = field(repr=False)
    target_summary: np.ndarray = field(repr=False)
    aux_cols: np.ndarray = field(repr=False)

    @property
    def n_inducing(self):
        return len(self.inducing)

    def positions(self, tuples):
        """Pool positions of ``tuples``, in their order.  A tuple repeated or
        missing from the pool is a DomainError naming it."""
        tuples = list(tuples)
        dups = find_duplicates(tuples)
        if dups:
            raise DomainError(f"duplicate tuples: {dups}")
        missing = [t for t in tuples if t not in self.tuple_index]
        if missing:
            raise DomainError(f"tuples not in the candidate pool: {missing}")
        return np.array([self.tuple_index[t] for t in tuples], dtype=int)


def build_model(h: Hyperparams, inducing: InducingSet, candidates_per_type) -> PitcModel:
    """Assemble and validate the sparse model over a candidate pool.

    ``candidates_per_type`` maps type index -> list of typed tuples.  Fails
    if the inducing covariance is not positive definite after one jitter
    pass, if any within-type candidate appears twice, or if the target type
    has no candidates.
    """
    per_type = {int(k): list(v) for k, v in candidates_per_type.items()}

    pool = []
    for i, tuples in sorted(per_type.items()):
        if not 0 <= i < h.n_types:
            raise ConfigError(f"candidate type {i} out of range [0, {h.n_types})")
        for t in tuples:
            if t.type_index != i:
                raise ConfigError(f"tuple {t} listed under type {i}")
        dups = find_duplicates(tuples)
        if dups:
            raise ModelBuildError(f"duplicate candidates of type {i}: {dups}")
        pool.extend(tuples)
    t = h.target_type
    if not per_type.get(t):
        raise ModelBuildError(f"target type {t} has no candidate tuples")

    if inducing.locations.shape[1] != h.dim:
        raise ConfigError(
            f"inducing locations are {inducing.locations.shape[1]}-dimensional, "
            f"model expects {h.dim}"
        )
    if float(np.min(h.noise_var)) < NOISE_FLOOR:
        warnings.warn(
            "smallest noise variance %.4g is below 1/(2 pi e) ~ %.4g; the "
            "selection objective may not be nondecreasing" % (float(np.min(h.noise_var)), NOISE_FLOOR),
            stacklevel=2,
        )

    pool.sort(key=lambda t: t.sort_key)
    cands = TupleArray.build(pool, h)
    kuu = kernels.latent_matrix(inducing.locations, h)
    try:
        kuu_factor = chol_spd(kuu, "inducing covariance")
    except IllConditionedError as exc:
        raise ModelBuildError(f"inducing covariance is singular: {exc}") from None
    if kuu_factor.jitter:
        kuu = kuu + kuu_factor.jitter * np.eye(len(inducing))

    W = kernels.latent_cross_matrix(cands, inducing.locations, h)
    prior_var = np.empty(len(cands))
    type_slices, own, solves, R = {}, {}, {}, {}
    for i in cands.type_set:
        idx = cands.indices_of_type(i)
        s = type_slices[i] = slice(int(idx[0]), int(idx[-1]) + 1)
        own[i] = cands.take(idx)
        # R is filled, and refilled below, from the type's own Fortran-ordered
        # solve: a product with a slice of the C-ordered G has other bits
        solves[i] = kuu_factor.solve(W[s].T)
        R[i] = np.empty((idx.size, idx.size))
        fill_residual(h, own[i], W[s], solves[i], R[i], prior_var[s])

    # the refill rewrites the factored R[t] before any caller can see it;
    # adding to zeros turns a -0.0 entry into 0.0
    s = type_slices[t]
    target_summary = np.zeros((len(inducing), len(inducing))) + spd_info_in_place(
        R[t], W[s], lambda r: fill_residual(h, own[t], W[s], solves[t], r),
        f"type-{t} residual block",
    )

    # assembled after the refill, so it adds nothing to the refill's peak
    G = np.empty((len(inducing), len(cands)))
    for i, s in type_slices.items():
        G[:, s] = solves[i]
    return PitcModel(
        h=h, inducing=inducing, kuu=kuu, kuu_factor=kuu_factor,
        candidates=cands, type_slices=type_slices, W=W, G=G, R=R,
        prior_var=prior_var, tuple_index={p: k for k, p in enumerate(cands.tuples)},
        target_summary=target_summary, aux_cols=np.flatnonzero(cands.types != t),
    )


# ---------------------------------------------------------------------------
# covariance algebra under the sparse joint model
# ---------------------------------------------------------------------------

RESIDUAL_CHUNK = 256
"""Rows of a residual block computed at a time by :func:`fill_residual`."""


def fill_residual(h: Hyperparams, ta: TupleArray, w, g, r, prior_var=None):
    """Write the residual ``R = C - W G`` of tuples ``ta`` (one type) into
    ``r`` with the same bits on every call, ``RESIDUAL_CHUNK`` kernel rows at
    a time minus their low-rank rows; ``prior_var`` gets the diagonal of C."""
    n = len(ta)
    for start in range(0, n, RESIDUAL_CHUNK):
        rows = slice(start, min(start + RESIDUAL_CHUNK, n))
        block = r[rows]
        part = ta if n <= RESIDUAL_CHUNK else ta.take(np.arange(rows.start, rows.stop))
        kernels.cov_matrix(part, ta, h, out=block)
        if prior_var is not None:
            prior_var[rows] = np.diagonal(block, offset=start)
        block -= w[rows] @ g


def sparse_cov(model: PitcModel, ta: TupleArray, cols):
    """Joint-model covariance of the tuples of ``ta`` with the pool tuples
    at positions ``cols``: exact within a type, low-rank across types.  The
    pool side's inducing solve is read from ``model.G``, so only ``ta``'s
    cross covariance ``W_a`` and the within-type blocks reach the kernel."""
    h = model.h
    tb = model.candidates.take(cols)
    out = kernels.latent_cross_matrix(ta, model.inducing.locations, h) @ model.G[:, cols]
    for i in np.unique(ta.types):
        ra = ta.indices_of_type(i)
        rb = tb.indices_of_type(i)
        if rb.size:
            out[np.ix_(ra, rb)] = kernels.cov_matrix(ta.take(ra), tb.take(rb), h)
    return out


class BlockFactors:
    """The selection at pool positions ``cols`` under the sparse joint model.

    Slices each type's rows of the model's cached ``W`` and ``R``, factors
    each residual block and keeps its inducing information ``W^T R^-1 W``;
    ``selection`` factors ``K_uu + S`` once, ``S = info_sum()``, for the
    posterior and the criterion alike, and ``augmented`` factors
    ``K_uu + T + S_aux`` (``T`` the target summary, ``S_aux`` the auxiliary
    types' information) on first read.  ``rows[i]`` index ``cols``.  Types
    are visited in order of first appearance and rows in the order given,
    which fixes every summation order.
    """

    def __init__(self, model: PitcModel, cols):
        self.model, self.cols = model, cols
        types = model.candidates.types[cols]
        self.rows, self.w, self.factor, self.info = {}, {}, {}, {}
        for i in dict.fromkeys(types.tolist()):
            rows = np.flatnonzero(types == i)
            li = cols[rows] - model.type_slices[i].start
            w = model.W[cols[rows]]
            factor = chol_spd(model.R[i][np.ix_(li, li)], f"type-{i} residual block")
            self.rows[i], self.w[i], self.factor[i] = rows, w, factor
            self.info[i] = w.T @ factor.solve(w)
        self.selection = chol_spd(model.kuu + self.info_sum(), "selection information")

    @functools.cached_property
    def augmented(self):
        model = self.model
        return chol_spd(
            model.kuu + model.target_summary + self.info_sum(skip=model.h.target_type),
            "augmented selection information",
        )

    def info_sum(self, skip=None):
        """Inducing information summed over all blocks but type ``skip``'s."""
        m = self.model.n_inducing
        total = np.zeros((m, m))
        for i, block in self.info.items():
            if i != skip:
                total += block
        return total

    def inv_apply(self, b):
        """Apply the inverse of the set's covariance to the columns of ``b``
        (Woodbury, through ``selection``); the rows index ``b``."""
        lam_inv_b = np.zeros_like(b)
        for i, rows in self.rows.items():
            lam_inv_b[rows] = self.factor[i].solve(b[rows])
        corr = self.selection.solve(
            sum(self.w[i].T @ lam_inv_b[rows] for i, rows in self.rows.items())
        )
        out = lam_inv_b.copy()
        for i, rows in self.rows.items():
            out[rows] -= self.factor[i].solve(self.w[i] @ corr)
        return out


# ---------------------------------------------------------------------------
# sparse posterior
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianPrediction:
    """Posterior mean vector over queried tuples, in query order."""

    mean: np.ndarray


def find_duplicates(tuples):
    """Exact duplicate tuples in a list, in first-seen order."""
    seen, dups = set(), []
    for t in tuples:
        if t in seen and t not in dups:
            dups.append(t)
        seen.add(t)
    return dups


def pitc_posterior(model: PitcModel, x, y_x, z) -> GaussianPrediction:
    """Sparse posterior mean of the measurements at ``z`` given observations
    at ``x``.

    The observed tuples must be distinct candidates of the model's pool,
    whose cached blocks are sliced for them.  The observations are solved
    against their covariance through its per-type residual blocks plus the
    inducing low rank (Woodbury), at cost ``O(|x| (m^2 + (|x|/M)^2))``; the
    mean then takes one ``|z| x |x|`` cross covariance.
    """
    tz = TupleArray.build(z, model.h)
    y_x = np.asarray(y_x, dtype=float).ravel()
    if y_x.shape[0] != len(x):
        raise DomainError(f"{len(x)} observations but {y_x.shape[0]} values")
    if set(x) & set(tz.tuples):
        raise DomainError("query tuples overlap the observed tuples")

    if not x:
        return GaussianPrediction(mean=np.zeros(len(tz)))
    cols = model.positions(x)
    sol_y = BlockFactors(model, cols).inv_apply(y_x)
    return GaussianPrediction(mean=sparse_cov(model, tz, cols) @ sol_y)
