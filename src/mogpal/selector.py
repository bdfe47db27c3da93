"""Budgeted selection algorithms.

``select_greedy`` maximizes the augmented objective one tuple at a time over
all types; the baselines pick by plain posterior entropy over all types
(``select_mvar``) or restrict themselves to the target pool under a
single-output model (``select_svar``, ``select_smi``).  Every algorithm
scores the model's whole pool (the baselines give -inf outside the target
types) and picks by pool position, so all argmax ties break
lexicographically on ``(type_index, coordinates)`` and a fixed
configuration reproduces the same sequence everywhere.
"""

import csv
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .criterion import CriterionCache, GainEvaluator
from .errors import ConfigError, IllConditionedError
from .kernels import LOG_2PI_E, TypedLocation
from .linalg import chol_spd
from .pitc import PitcModel

__all__ = [
    "SelectionState", "select_greedy", "select_mvar", "select_svar",
    "select_smi", "write_selection_log",
]


@dataclass
class SelectionState:
    """Result of a budgeted selection run, one entry per iteration.

    ``selected`` holds the picks and ``gains`` their recorded gains, in
    selection order; ``cumulative`` accumulates the gains (for the greedy
    algorithm this telescopes to the objective value at each prefix).
    """

    selected: list = field(default_factory=list)
    gains: list = field(default_factory=list)
    cumulative: list = field(default_factory=list)
    iteration_seconds: list = field(default_factory=list)

    def record(self, candidate, gain, seconds):
        prev = self.cumulative[-1] if self.cumulative else 0.0
        self.selected.append(candidate)
        self.gains.append(gain)
        self.cumulative.append(prev + gain)
        self.iteration_seconds.append(seconds)


def _check_budget(n, available, what="candidate pool"):
    if n > available:
        raise ConfigError(f"budget {n} exceeds the {what} size {available}")
    if n < 0:
        raise ConfigError("budget must be nonnegative")


def _greedy_loop(model, n, score_iteration):
    """Pick ``n`` of the model's candidates one at a time.

    ``score_iteration(last)`` is handed the pool position of the previous
    pick (``None`` at the first) and returns the pool's scores to maximize
    and gains to record, usually the same array; selected candidates score
    ``-inf``.
    """
    state = SelectionState()
    best = None
    for _ in range(n):
        started = time.perf_counter()
        scores, gains = score_iteration(best)
        best = int(np.argmax(scores))
        if scores[best] == -np.inf:
            raise ConfigError("no selectable candidate left")
        state.record(model.candidates.tuples[best], float(gains[best]),
                     time.perf_counter() - started)
    return state


def select_greedy(model: PitcModel, cache: CriterionCache, n: int) -> SelectionState:
    """Greedy maximization of the augmented objective over all types.

    Once the target pool is fully selected the objective is constant (every
    remaining gain is zero), so for any budget beyond that point the picks
    fall back to maximum posterior entropy; this keeps the sequence
    deterministic and useful instead of ordering by roundoff noise.  The
    recorded gain is still the objective gain, exactly zero there.  Each pick costs
    O(N (m + |X|)) for N candidates, m inducing points and |X| picks so far
    (one covariance row and a rank-one variance downdate, see
    :class:`GainEvaluator`); gains within ``TIE_ATOL`` of the best are
    rescored from a factorization of the selection, so ties break
    lexicographically exactly as a per-pick rebuild breaks them.
    """
    _check_budget(n, len(model.candidates))
    evaluator = GainEvaluator(model, cache).set_state([])

    def score(last):
        if last is not None:
            evaluator.add(last)
        gains = evaluator.gains()
        finite = gains[np.isfinite(gains)]
        if finite.size and finite.max() <= 1e-9:
            return evaluator.entropies_given_selected(), gains
        return gains, gains

    return _greedy_loop(model, n, score)


def select_mvar(model: PitcModel, cache: CriterionCache, n: int) -> SelectionState:
    """Greedy maximum posterior entropy over all types.

    For a single Gaussian marginal the entropy and variance argmax agree,
    so this covers both readings of the baseline.  Per-pick cost and tie
    rule as in :func:`select_greedy`.
    """
    _check_budget(n, len(model.candidates))
    evaluator = GainEvaluator(model, cache).set_state([])

    def score(last):
        if last is not None:
            evaluator.add(last)
        entropies = evaluator.entropies_given_selected()
        return entropies, entropies

    return _greedy_loop(model, n, score)


class _SingleOutputPools:
    """Per-target-type exact single-output GP pools for s-Var and s-MI.

    Target type ``t`` is the pool range ``slices[t]``, whose free and
    selected rows are tracked as integer index arrays local to it.
    With ``track_inverse`` (s-MI) every pool's prior is factored once with
    ``chol_spd`` and inverted, O(|V_t|^3) per target type; each pick then
    downdates that inverse in O(|V_t|^2), so ``1 / P[j, j]`` stays the
    variance of free candidate ``j`` given the other free ones (the MI-greedy
    bookkeeping of Krause, Singh & Guestrin 2008), through one |V_t|^2
    buffer per pool allocated here.
    """

    def __init__(self, model, single_output_hypers=None, track_inverse=False):
        self.slices = {t: model.type_slices[t] for t in sorted(model.target_types)}
        self.pool_types = model.candidates.types
        self.prior = {}
        self.free = {}
        self.selected = {}
        self.inverse = {}
        self.downdate = {}
        for t, s in self.slices.items():
            remapped = [TypedLocation(p.location, 0) for p in model.candidates.tuples[s]]
            h_t = None if single_output_hypers is None else single_output_hypers.get(t)
            h_t = h_t if h_t is not None else model.h.single_output(t)
            if h_t.n_types != 1:
                raise ConfigError("single-output pools need one-type hyperparameters")
            self.prior[t] = kernels.cov_matrix(remapped, remapped, h_t)
            self.free[t] = np.arange(len(remapped))
            self.selected[t] = np.empty(0, dtype=int)
            if track_inverse:
                factor = chol_spd(self.prior[t], "single-output pool prior")
                self.inverse[t] = factor.solve(np.eye(len(remapped)))
                self.downdate[t] = np.empty_like(self.inverse[t])

    def pick(self, j):
        """Move the candidate at pool position ``j`` from its pool's free rows
        to the selected ones, downdating the pool's inverse (Schur
        complement on the pivot)."""
        t = int(self.pool_types[j])
        k = j - self.slices[t].start
        self.free[t] = self.free[t][self.free[t] != k]
        self.selected[t] = np.sort(np.append(self.selected[t], k))
        if t in self.inverse:
            inv = self.inverse[t]
            _check_positive(inv[k, k], f"inverse pivot of single-output pool {t}")
            buf = np.outer(inv[:, k], inv[k, :], out=self.downdate[t])
            buf /= inv[k, k]
            inv -= buf

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


def _select_single_output(model, n, kind, single_output_hypers=None):
    pools = _SingleOutputPools(model, single_output_hypers, track_inverse=kind == "s-mi")
    _check_budget(n, len(model.target_cols), what="target candidate pool")

    def score(last):
        if last is not None:
            pools.pick(last)
        scores = np.full(len(model.candidates), -np.inf)
        for t, s in pools.slices.items():
            scores[s.start + pools.free[t]] = pools.free_scores(t, kind)
        return scores, scores

    return _greedy_loop(model, n, score)


def select_svar(model: PitcModel, n: int, single_output_hypers=None) -> SelectionState:
    """Greedy maximum entropy restricted to the target pool.

    Runs one independent single-output GP per target type; by default its
    parameters are derived from the multi-output model (``single_output``),
    or pass ``single_output_hypers={type: Hyperparams}`` for refit mode.
    The budget may not exceed the target pool.  Each pick recomputes the variance given the selected set,
    O(|sel|^2 |V_t|) per target type.  Raises :class:`IllConditionedError`
    when a candidate's variance is not finite and positive.
    """
    return _select_single_output(model, n, "s-var", single_output_hypers)


def select_smi(model: PitcModel, n: int, single_output_hypers=None) -> SelectionState:
    """Greedy mutual information restricted to the target pool.

    Scores each free candidate by its variance given the selected set
    against its variance given the other free candidates (Krause, Singh &
    Guestrin 2008).  Costs one O(|V_t|^3) factorization per target type,
    then O(|V_t|^2) per pick to downdate the inverse of the free block, on
    top of the s-Var variance update.  Options as in :func:`select_svar`;
    raises :class:`IllConditionedError` when a variance, an inverse
    diagonal entry or a downdate pivot is not finite and positive.
    """
    return _select_single_output(model, n, "s-mi", single_output_hypers)


def write_selection_log(state: SelectionState, path, dim):
    """Serialize a selection run to CSV: one row per iteration with the
    picked tuple (``dim`` coordinates), its gain and the running objective
    value."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["iteration", "type_index"]
            + [f"x{v}" for v in range(dim)]
            + ["gain", "cumulative_objective"]
        )
        for k, (tup, gain) in enumerate(zip(state.selected, state.gains)):
            writer.writerow(
                [k, tup.type_index]
                + [repr(c) for c in tup.location]
                + [f"{gain:.12g}", f"{state.cumulative[k]:.12g}"]
            )
