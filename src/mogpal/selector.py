"""Budgeted selection algorithms and the candidate-spacing scheme.

``select_greedy`` maximizes the augmented objective one tuple at a time over
all types; the baselines pick by plain posterior entropy over all types
(``select_mvar``) or restrict themselves to the target pool under a
single-output model (``select_svar``, ``select_smi``).  All argmax ties
break lexicographically on ``(type_index, coordinates)`` so a fixed
configuration reproduces the same sequence everywhere.
"""

import csv
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .criterion import CriterionCache, GainEvaluator, build_cache
from .errors import ConfigError, DomainError, IllConditionedError
from .kernels import LOG_2PI_E, Hyperparams, TypedLocation
from .linalg import chol_spd
from .pitc import PitcModel

__all__ = [
    "SelectionState", "SpacingParams", "select_greedy", "select_mvar",
    "select_svar", "select_smi", "min_spacing_p",
    "construct_spaced_candidates", "prop1_bound", "write_selection_log",
]


@dataclass
class SelectionState:
    """Result of a budgeted selection run.

    ``gain_log`` has one ``(tuple, gain)`` record per iteration, in
    selection order; ``cumulative`` accumulates the gains (for the greedy
    algorithm this telescopes to the objective value at each prefix).
    """

    algorithm: str
    budget: int
    selected: list = field(default_factory=list)
    gain_log: list = field(default_factory=list)
    cumulative: list = field(default_factory=list)
    iteration_seconds: list = field(default_factory=list)

    def record(self, candidate, gain, seconds):
        prev = self.cumulative[-1] if self.cumulative else 0.0
        self.selected.append(candidate)
        self.gain_log.append((candidate, gain))
        self.cumulative.append(prev + gain)
        self.iteration_seconds.append(seconds)


def _check_budget(n, available, what="candidate pool"):
    if n > available:
        raise ConfigError(f"budget {n} exceeds the {what} size {available}")
    if n < 0:
        raise ConfigError("budget must be nonnegative")


def _greedy_loop(name, n, tuples, score_iteration):
    """Pick ``n`` of ``tuples`` one at a time.

    ``score_iteration(state)`` returns the scores to maximize and the gains
    to record, usually the same array; selected tuples score ``-inf``.
    """
    state = SelectionState(algorithm=name, budget=n)
    for _ in range(n):
        started = time.perf_counter()
        scores, gains = score_iteration(state)
        best = int(np.argmax(scores))
        if scores[best] == -np.inf:
            raise ConfigError("no selectable candidate left")
        state.record(tuples[best], float(gains[best]), time.perf_counter() - started)
    return state


def select_greedy(model: PitcModel, cache: CriterionCache, n: int) -> SelectionState:
    """Greedy maximization of the augmented objective over all types.

    Once the target pool is fully selected the objective is constant (every
    remaining gain is zero), so for any budget beyond that point the picks
    fall back to maximum posterior entropy; this keeps the sequence
    deterministic and useful instead of ordering by roundoff noise.  The
    recorded gain is still the objective gain.  Each pick costs
    O(N (m + |X|)) for N candidates, m inducing points and |X| picks so far
    (one covariance row and a rank-one variance downdate, see
    :class:`GainEvaluator`); gains within ``TIE_ATOL`` of the best are
    rescored from a factorization of the selection, so ties break
    lexicographically exactly as a per-pick rebuild breaks them.
    """
    _check_budget(n, len(model.candidates))
    evaluator = GainEvaluator(model, cache).set_state([])

    def score(state):
        if state.selected:
            evaluator.add(state.selected[-1])
        gains = evaluator.gains()
        finite = gains[np.isfinite(gains)]
        if finite.size and finite.max() <= 1e-9:
            return evaluator.entropies_given_selected(), gains
        return gains, gains

    return _greedy_loop("m-greedy", n, model.candidates.tuples, score)


def select_mvar(model: PitcModel, n: int, cache: CriterionCache = None) -> SelectionState:
    """Greedy maximum posterior entropy over all types.

    For a single Gaussian marginal the entropy and variance argmax agree,
    so this covers both readings of the baseline.  Per-pick cost and tie
    rule as in :func:`select_greedy`.
    """
    _check_budget(n, len(model.candidates))
    cache = cache if cache is not None else build_cache(model)
    evaluator = GainEvaluator(model, cache).set_state([])

    def score(state):
        if state.selected:
            evaluator.add(state.selected[-1])
        entropies = evaluator.entropies_given_selected()
        return entropies, entropies

    return _greedy_loop("m-var", n, model.candidates.tuples, score)


class _SingleOutputPools:
    """Per-target-type exact single-output GP pools for s-Var and s-MI.

    Each pool tracks its free and selected rows as integer index arrays.
    With ``track_inverse`` (s-MI) every pool's prior is factored once with
    ``chol_spd`` and inverted, O(|V_t|^3) per target type; each pick then
    downdates that inverse in O(|V_t|^2), so ``1 / P[j, j]`` stays the
    variance of free candidate ``j`` given the other free ones (the MI-greedy
    bookkeeping of Krause, Singh & Guestrin 2008).
    """

    def __init__(self, model, single_output_hypers=None, track_inverse=False):
        self.types = sorted(model.target_types)
        pools = {t: model.candidate_list([t]) for t in self.types}
        self.prior = {}
        self.free = {}
        self.selected = {}
        self.inverse = {}
        for t, tuples in pools.items():
            remapped = [TypedLocation(p.location, 0) for p in tuples]
            h_t = None if single_output_hypers is None else single_output_hypers.get(t)
            h_t = h_t if h_t is not None else model.h.single_output(t)
            if h_t.n_types != 1:
                raise ConfigError("single-output pools need one-type hyperparameters")
            self.prior[t] = kernels.cov_matrix(remapped, remapped, h_t)
            self.free[t] = np.arange(len(tuples))
            self.selected[t] = np.empty(0, dtype=int)
            if track_inverse:
                factor = chol_spd(self.prior[t], "single-output pool prior")
                self.inverse[t] = factor.solve(np.eye(len(tuples)))
        # flattened candidate list in model (lexicographic) order
        self.flat_tuples = [p for t in self.types for p in pools[t]]
        self.local = {p: (t, k) for t in self.types for k, p in enumerate(pools[t])}
        sizes = np.cumsum([0] + [len(pools[t]) for t in self.types])
        self.offset = dict(zip(self.types, sizes[:-1].tolist()))

    def pick(self, candidate):
        """Move a candidate from its pool's free rows to the selected ones,
        downdating the pool's inverse (Schur complement on the pivot)."""
        t, k = self.local[candidate]
        self.free[t] = self.free[t][self.free[t] != k]
        self.selected[t] = np.sort(np.append(self.selected[t], k))
        if t in self.inverse:
            inv = self.inverse[t]
            _check_positive(inv[k, k], f"inverse pivot of single-output pool {t}")
            inv -= np.outer(inv[:, k], inv[k, :]) / inv[k, k]

    def posterior_var(self, t):
        """Variance of every pool-t candidate given the selected pool-t ones.

        Recomputed from scratch, O(|sel|^2 |V_t|), over the selected rows in
        ascending order: exact float ties between far-apart candidates decide
        picks, so the rounding must not depend on the pick order.
        """
        c = self.prior[t]
        diag = np.diag(c).copy()
        sel = self.selected[t]
        if not sel.size:
            return diag
        factor = chol_spd(c[np.ix_(sel, sel)], "selected single-output block")
        cross = c[:, sel]
        return diag - np.einsum("nc,cn->n", cross, factor.solve(cross.T))

    def free_scores(self, t, kind):
        """Scores of pool t's free candidates, in free-row order."""
        free = self.free[t]
        log_var = _log(self.posterior_var(t)[free], f"posterior variance in pool {t}")
        if kind == "s-var":
            return 0.5 * (LOG_2PI_E + log_var)
        inv_diag = self.inverse[t][free, free]
        _check_positive(inv_diag, f"inverse diagonal of single-output pool {t}")
        return 0.5 * (log_var - _log(1.0 / inv_diag, f"leave-one-out variance in pool {t}"))


def _check_positive(values, what):
    values = np.asarray(values, dtype=float)
    if not (np.all(np.isfinite(values)) and np.all(values > 0)):
        raise IllConditionedError(
            f"{what} is not finite and positive (smallest {np.min(values):.3e}); "
            "the single-output covariance is numerically singular"
        )


def _log(values, what):
    """Elementwise natural log of finite positive values.

    Uses ``math.log`` (libm) rather than ``np.log``: NumPy's SIMD log rounds
    some inputs one ulp differently, which reorders near-tied candidates.
    """
    _check_positive(values, what)
    return np.array([math.log(v) for v in values.tolist()])


def _select_single_output(model, n, kind, single_output_hypers=None, cap_to_pool=False):
    pools = _SingleOutputPools(model, single_output_hypers, track_inverse=kind == "s-mi")
    total = len(pools.flat_tuples)
    if cap_to_pool:
        n = min(n, total)
    _check_budget(n, total, what="target candidate pool")

    def score(state):
        if state.selected:
            pools.pick(state.selected[-1])
        scores = np.full(total, -np.inf)
        for t in pools.types:
            scores[pools.offset[t] + pools.free[t]] = pools.free_scores(t, kind)
        return scores, scores

    return _greedy_loop(kind, n, pools.flat_tuples, score)


def select_svar(model: PitcModel, n: int, single_output_hypers=None,
                cap_to_pool=False) -> SelectionState:
    """Greedy maximum entropy restricted to the target pool.

    Runs one independent single-output GP per target type; by default its
    parameters are derived from the multi-output model (``single_output``),
    or pass ``single_output_hypers={type: Hyperparams}`` for refit mode.
    With ``cap_to_pool`` a budget beyond the target pool saturates at the
    whole pool instead of erroring (the algorithm has nothing else to pick).
    Each pick recomputes the variance given the selected set,
    O(|sel|^2 |V_t|) per target type.  Raises :class:`IllConditionedError`
    when a candidate's variance is not finite and positive.
    """
    return _select_single_output(model, n, "s-var", single_output_hypers, cap_to_pool)


def select_smi(model: PitcModel, n: int, single_output_hypers=None,
               cap_to_pool=False) -> SelectionState:
    """Greedy mutual information restricted to the target pool.

    Scores each free candidate by its variance given the selected set
    against its variance given the other free candidates (Krause, Singh &
    Guestrin 2008).  Costs one O(|V_t|^3) factorization per target type,
    then O(|V_t|^2) per pick to downdate the inverse of the free block, on
    top of the s-Var variance update.  Options as in :func:`select_svar`;
    raises :class:`IllConditionedError` when a variance, an inverse
    diagonal entry or a downdate pivot is not finite and positive.
    """
    return _select_single_output(model, n, "s-mi", single_output_hypers, cap_to_pool)


# ---------------------------------------------------------------------------
# spacing scheme
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpacingParams:
    """Parameters of the candidate-spacing construction.

    ``omega`` is the smallest discretization width, ``p`` the spacing
    multiplier (kept tuples are at least ``p * omega`` apart), ``epsilon1``
    the tolerated variance-reduction bound, ``ell`` the largest first
    diagonal entry among the pairwise kernel widths, and
    ``xi = exp(-omega^2 / (2 ell))``.  ``sig2_s_max`` / ``sig2_n_min`` carry
    the extreme signal and noise variances of the model.
    """

    omega: float
    epsilon1: float
    ell: float
    sig2_s_max: float
    sig2_n_min: float
    p: float = 0.0

    def __post_init__(self):
        if self.omega <= 0 or self.ell <= 0:
            raise ConfigError("omega and ell must be positive")
        if self.epsilon1 < 0:
            raise ConfigError("epsilon1 must be nonnegative")
        if not 0 < self.xi < 1:
            raise ConfigError("xi must lie strictly between 0 and 1")

    @property
    def xi(self):
        return math.exp(-self.omega**2 / (2.0 * self.ell))

    @classmethod
    def from_hyperparams(cls, h: Hyperparams, omega, epsilon1, p=0.0):
        m = h.n_types
        ell = max(float(h.pair_width(i, j)[0]) for i in range(m) for j in range(m))
        return cls(
            omega=float(omega), epsilon1=float(epsilon1), ell=ell,
            sig2_s_max=float(np.max(h.signal_var)),
            sig2_n_min=float(np.min(h.noise_var)),
            p=float(p),
        )


def min_spacing_p(sp: SpacingParams, n: int) -> float:
    """Smallest spacing multiplier certifying the variance-reduction bound.

    Solves the strict inequality
    ``p^2 > log{ (2 sig2_s_max)^-1 min(sig2_n_min/N,
    0.5 (sqrt(eps1^2 + 4 eps1 sig2_n_min/N) - eps1)) } / log xi``
    for the smallest ``p`` (a relative margin of 1e-9 is added).  Because
    ``log xi < 0`` the division flips the inequality direction, which is why
    the threshold is an upper bound on the log argument.
    """
    if sp.epsilon1 <= 0:
        raise ConfigError("epsilon1 must be strictly positive to size the spacing")
    if n < 1:
        raise ConfigError("budget must be at least 1")
    s2s, s2n = sp.sig2_s_max, sp.sig2_n_min
    inner = min(
        s2n / n,
        0.5 * (math.sqrt(sp.epsilon1**2 + 4.0 * sp.epsilon1 * s2n / n) - sp.epsilon1),
    )
    arg = inner / (2.0 * s2s)
    if arg <= 0:
        raise DomainError(
            f"spacing bound undefined: log argument {arg:.3e} "
            f"(epsilon1={sp.epsilon1}, noise={s2n}, budget={n})"
        )
    threshold = math.log(arg) / math.log(sp.xi)
    if threshold <= 0:
        return 0.0
    return math.sqrt(threshold) * (1.0 + 1e-9)


def construct_spaced_candidates(v, sp: SpacingParams):
    """Greedy packing of a candidate pool at minimum distance ``p * omega``.

    Iterates the tuples in their given order and keeps one exactly when its
    location is at least ``p * omega`` (Euclidean) from every location kept
    so far; since coincident locations are closer than any positive spacing,
    each kept location carries exactly one type.
    """
    min_dist = sp.p * sp.omega
    if min_dist <= 0:
        raise ConfigError(f"spacing p*omega must be positive, got {min_dist}")
    kept = []
    kept_coords = np.empty((0, 0))
    for t in v:
        coords = np.asarray(t.location, dtype=float)
        if kept:
            dist = np.sqrt(np.sum((kept_coords - coords) ** 2, axis=1))
            if dist.min() < min_dist:
                continue
            kept_coords = np.vstack([kept_coords, coords])
        else:
            kept_coords = coords[None, :]
        kept.append(t)
    return kept


def prop1_bound(model: PitcModel, candidate: TypedLocation, remaining_targets) -> float:
    """Upper bound on an auxiliary tuple's objective gain.

    ``0.5 log(1 + 4 rho_t rho_i R)`` with per-type signal-to-noise ratios
    and ``R`` the sum of squared cross-kernel densities to the remaining
    unsampled target tuples.  Valid in the absence of suppressor variables;
    exposed as a diagnostic.
    """
    h = model.h
    h.validate_tuple(candidate)
    i = candidate.type_index
    if i in model.target_types:
        raise DomainError("the gain bound applies to auxiliary-type candidates")
    rho = h.signal_to_noise()
    total = 0.0
    x = np.asarray(candidate.location)
    for q in remaining_targets:
        h.validate_tuple(q)
        if q.type_index not in model.target_types:
            raise DomainError(f"{q} is not a target-type tuple")
        dens = kernels.gaussian_density(
            x - np.asarray(q.location), h.pair_width(i, q.type_index)
        )
        total += float(rho[q.type_index]) * dens * dens
    return 0.5 * math.log1p(4.0 * float(rho[i]) * total)


def write_selection_log(state: SelectionState, path, dim=None):
    """Serialize a selection run to CSV: one row per iteration with the
    picked tuple, its gain and the running objective value."""
    if dim is None:
        dim = len(state.selected[0].location) if state.selected else 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["iteration", "type_index"]
            + [f"x{v}" for v in range(dim)]
            + ["gain", "cumulative_objective"]
        )
        for k, (tup, gain) in enumerate(state.gain_log):
            writer.writerow(
                [k, tup.type_index]
                + [repr(c) for c in tup.location]
                + [f"{gain:.12g}", f"{state.cumulative[k]:.12g}"]
            )
