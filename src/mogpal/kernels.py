"""Prior covariance of the convolved multi-output GP.

A single latent spatial function is smoothed by one Gaussian kernel per
output type, so the covariance between two typed measurements is a Gaussian
density in their separation whose width adds the latent and per-type
smoothing contributions; observing the same tuple twice additionally shares
the measurement noise.

All precision matrices are diagonal and are stored as their inverses (the
diagonal covariance contributions), since only the inverse sums ever appear.

A density whose exponent ``-0.5 * sum(delta**2 / c)`` is below
``log(DBL_MIN)`` (``LOG_TINY``, about -708.396) is exactly zero: its ``exp``
would be subnormal, and on x86 the subnormal path of ``exp`` costs 150 to
280 ns per entry against about 1 ns for a normal result.  An entry lost
this way is below ``DBL_MIN`` times the density's peak.  Every covariance
goes through this one rule.
"""

import math
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DomainError

TWO_PI = 2.0 * math.pi
LOG_2PI_E = math.log(TWO_PI * math.e)

# Below this noise floor the augmented selection objective is no longer
# guaranteed to be nondecreasing (marginal entropies can go negative).
NOISE_FLOOR = 1.0 / (TWO_PI * math.e)

# An exponent below this gives a subnormal exp; the kernel makes it zero.
LOG_TINY = math.log(sys.float_info.min)


class TypedLocation(NamedTuple):
    """A sampling location paired with a measurement type index.

    ``location`` is a tuple of d float coordinates; equality is exact and
    componentwise.  The deterministic ordering used for tie-breaking sorts
    by ``(type_index, location)``.
    """

    location: tuple
    type_index: int

    @property
    def sort_key(self):
        return (self.type_index, self.location)


def as_location(coords):
    """Canonicalize coordinates to a tuple of floats."""
    if np.isscalar(coords):
        coords = (coords,)
    loc = tuple(float(c) for c in np.asarray(coords).ravel())
    if not all(math.isfinite(c) for c in loc):
        raise DomainError(f"non-finite coordinates: {loc}")
    return loc


def as_tuple(location, type_index):
    return TypedLocation(as_location(location), int(type_index))


@dataclass(frozen=True)
class Hyperparams:
    """All kernel and noise parameters of an M-type model.

    Attributes
    ----------
    signal_var : (M,) array
        Per-type signal variances, strictly positive.
    noise_var : (M,) array
        Per-type measurement noise variances, strictly positive.
    latent_prec_inv : (d,) array
        Diagonal of the inverse precision of the latent spatial function.
    smooth_prec_inv : (M, d) array
        Per-type diagonals of the inverse smoothing-kernel precisions.
    target_type : int
        Index of the one type whose prediction is the goal of selection;
        every other type is auxiliary.
    """

    signal_var: np.ndarray
    noise_var: np.ndarray
    latent_prec_inv: np.ndarray
    smooth_prec_inv: np.ndarray
    target_type: int = 0

    def __post_init__(self):
        sv = np.atleast_1d(np.asarray(self.signal_var, dtype=float))
        nv = np.atleast_1d(np.asarray(self.noise_var, dtype=float))
        lp = np.atleast_1d(np.asarray(self.latent_prec_inv, dtype=float))
        sp = np.atleast_2d(np.asarray(self.smooth_prec_inv, dtype=float))
        object.__setattr__(self, "signal_var", sv)
        object.__setattr__(self, "noise_var", nv)
        object.__setattr__(self, "smooth_prec_inv", sp)
        object.__setattr__(self, "latent_prec_inv", lp)
        object.__setattr__(self, "target_type", int(self.target_type))
        m, d = sv.shape[0], lp.shape[0]
        if d < 1:
            raise ConfigError("the latent precision diagonal needs at least one dimension")
        if nv.shape != (m,) or sp.shape != (m, d):
            raise ConfigError(
                f"inconsistent hyperparameter shapes: signal {sv.shape}, "
                f"noise {nv.shape}, latent diag {lp.shape}, smoothing {sp.shape}"
            )
        for arr, what in ((sv, "signal variances"), (nv, "noise variances"),
                          (lp, "latent precision diagonal"),
                          (sp, "smoothing precision diagonals")):
            if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
                raise ConfigError(f"{what} must be finite and strictly positive")
        if not 0 <= self.target_type < m:
            raise ConfigError(f"target type out of range [0, {m})")
        for arr in (sv, nv, lp, sp):
            arr.setflags(write=False)

    @property
    def n_types(self):
        return self.signal_var.shape[0]

    @property
    def dim(self):
        return self.latent_prec_inv.shape[0]

    def pair_width(self, i, j):
        """Diagonal covariance of the (i, j) output-output density term.

        Summed in a canonical order so that (i, j) and (j, i) agree bitwise.
        """
        lo, hi = min(i, j), max(i, j)
        return self.latent_prec_inv + self.smooth_prec_inv[lo] + self.smooth_prec_inv[hi]

    def latent_width(self, i):
        """Diagonal covariance of the type-i output-latent density term."""
        return self.latent_prec_inv + self.smooth_prec_inv[i]

    def single_output(self, t):
        """One-type parameters equivalent to type ``t`` in isolation.

        The stationary kernel of type t against itself has width
        ``latent_prec_inv + 2 * smooth_prec_inv[t]``; splitting that evenly
        between the latent and smoothing contributions reproduces it in a
        single-type parameterization.
        """
        width = self.pair_width(t, t)
        return Hyperparams(
            signal_var=self.signal_var[[t]].copy(),
            noise_var=self.noise_var[[t]].copy(),
            latent_prec_inv=0.5 * width,
            smooth_prec_inv=0.25 * width[None, :],
        )

    def validate_tuple(self, p: TypedLocation):
        if not 0 <= p.type_index < self.n_types:
            raise DomainError(f"type index {p.type_index} out of range [0, {self.n_types})")
        if len(p.location) != self.dim:
            raise DomainError(
                f"location {p.location} has dimension {len(p.location)}, model expects {self.dim}"
            )


@dataclass(frozen=True)
class TupleArray:
    """Array view of a list of typed tuples, grouped for vectorized kernels."""

    tuples: tuple
    coords: np.ndarray
    types: np.ndarray
    _by_type: dict = field(repr=False, default=None)

    @classmethod
    def build(cls, tuples, h: Hyperparams):
        """The one conversion of a tuple list: each tuple is checked by
        ``h.validate_tuple``, and the coordinates have ``h.dim`` columns."""
        tuples = tuple(tuples)
        for t in tuples:
            h.validate_tuple(t)
        coords = np.array([t.location for t in tuples], dtype=float).reshape(len(tuples), h.dim)
        types = np.array([t.type_index for t in tuples], dtype=int)
        return cls._from_arrays(tuples, coords, types)

    @classmethod
    def _from_arrays(cls, tuples, coords, types):
        coords.setflags(write=False)
        types.setflags(write=False)
        by_type = {int(i): np.flatnonzero(types == i) for i in np.unique(types)}
        return cls(tuples, coords, types, by_type)

    def take(self, idx):
        """Sub-array of the tuples at positions ``idx``, in that order."""
        idx = np.asarray(idx, dtype=int)
        return TupleArray._from_arrays(
            tuple(self.tuples[k] for k in idx), self.coords[idx], self.types[idx]
        )

    def __len__(self):
        return len(self.tuples)

    def indices_of_type(self, i):
        return self._by_type.get(int(i), np.empty(0, dtype=int))

    @property
    def type_set(self):
        """The type indices present, ascending, without sorting per call."""
        return tuple(self._by_type)


def _pairwise_density(xa, xb, diag_cov, out=None):
    """Matrix of normal densities of ``xa[r] - xb[c]`` under the zero-mean
    Gaussian with diagonal covariance ``diag_cov``, zero wherever the
    exponent is below ``LOG_TINY`` (see the module docstring).

    Filled in place into ``out`` (allocated when not given), with one scratch
    array of the same shape when ``d > 1`` and one boolean mask of an eighth
    of its size.  Each entry depends on its two coordinate rows alone, so any
    sub-block computed on its own has the bits of that sub-block of the whole
    matrix.  The ``-0.5`` of the exponent is folded into each dimension's
    ``1 / c``: scaling by a power of two commutes with rounding, so the
    exponent keeps the bits of ``-0.5 * sum(delta**2 / c)``.  The terms are
    summed over the d dimensions in order.  For d <= 2 that matches an
    ``np.einsum`` assembly bit for bit; for d >= 3 einsum adds the terms in
    another order, and the two differ in the last bits (about 1e-14 relative
    after the ``exp``).
    """
    diag_cov = np.asarray(diag_cov, dtype=float)
    d = diag_cov.shape[0]
    scale = -0.5 / diag_cov
    if out is None:
        out = np.empty((xa.shape[0], xb.shape[0]))
    scratch = np.empty_like(out) if d > 1 else None
    for v in range(d):
        term = out if v == 0 else scratch
        np.subtract.outer(xa[:, v], xb[:, v], out=term)
        np.multiply(term, term, out=term)
        term *= scale[v]
        if v:
            out += term
    norm = TWO_PI ** (-0.5 * d) * float(np.prod(diag_cov)) ** -0.5
    np.copyto(out, -np.inf, where=out < LOG_TINY)
    np.exp(out, out=out)
    out *= norm
    return out


def _same_location(xa, xb):
    """Boolean matrix: ``xa[r]`` and ``xb[c]`` are equal in every coordinate."""
    same = np.equal.outer(xa[:, 0], xb[:, 0])
    for v in range(1, xa.shape[1]):
        same &= np.equal.outer(xa[:, v], xb[:, v])
    return same


def cov_matrix(ta: TupleArray, tb: TupleArray, h: Hyperparams, out=None):
    """Prior covariance matrix between the tuples of two :class:`TupleArray`
    views (vectorized).

    When called with the same view twice the result is symmetric by
    construction (the (i, j) and (j, i) blocks are exact transposes).  A
    one-type by one-type call is computed in place in the returned array
    (``out`` when given); mixed types go through one buffer per type pair.
    """
    if out is None:
        out = np.empty((len(ta), len(tb)))
    for i in ta.type_set:
        ra = ta.indices_of_type(i)
        for j in tb.type_set:
            rb = tb.indices_of_type(j)
            whole = ra.size == len(ta) and rb.size == len(tb)
            if whole:
                block, xa, xb = out, ta.coords, tb.coords
            else:
                block = np.empty((ra.size, rb.size))
                xa, xb = ta.coords[ra], tb.coords[rb]
            _pairwise_density(xa, xb, h.pair_width(i, j), out=block)
            block *= math.sqrt(h.signal_var[i] * h.signal_var[j])
            if i == j:
                np.add(block, float(h.noise_var[i]), out=block,
                       where=_same_location(xa, xb))
            if not whole:
                out[np.ix_(ra, rb)] = block
    return out


def latent_cross_matrix(ta: TupleArray, u_coords, h: Hyperparams):
    """Covariance matrix between the tuples of a :class:`TupleArray` and
    latent locations."""
    u_coords = np.atleast_2d(np.asarray(u_coords, dtype=float))
    out = np.zeros((len(ta), u_coords.shape[0]))
    for i in ta.type_set:
        ra = ta.indices_of_type(i)
        out[ra] = math.sqrt(h.signal_var[i]) * _pairwise_density(
            ta.coords[ra], u_coords, h.latent_width(i)
        )
    return out


def latent_matrix(u_coords, h: Hyperparams):
    """Latent-function prior covariance matrix over a set of locations."""
    u_coords = np.atleast_2d(np.asarray(u_coords, dtype=float))
    return _pairwise_density(u_coords, u_coords, h.latent_prec_inv)
