"""Budgeted selection algorithms.

``select_greedy`` maximizes the augmented objective one tuple at a time over
all types; the baselines pick by plain posterior entropy over all types
(``select_mvar``) or restrict themselves to the pool of the one target type
under a single-output model (``select_svar``, ``select_smi``).  Greedy picks
by entropy too whenever no free gain exceeds 1e-9.  All four
run the paper's greedy loop, ``_greedy_loop``, which holds the one tie rule:
condition on the previous pick, score the model's whole pool incrementally
(the single-output baselines give -inf outside the target pool), rescore
the scores within ``TIE_ATOL`` of the best from a factorization of the
selection and take the first best pool position, so exact ties go to the
lowest position, lexicographic on ``(type_index, coordinates)``.  The
incremental scores stay far within ``TIE_ATOL`` of the rescored ones, so
the pick is the one a rebuild at every pick makes.  A fixed configuration
thus reproduces the same sequence on one BLAS setup; other BLAS kernels can
round mirror ties the other way (``OPENBLAS_CORETYPE=Haswell`` moves 7
``experiment`` benchmark digests).  Greedy, m-Var and s-Var score
mathematically tied candidates bit-equal wherever a from-scratch rebuild
does.  s-MI reads its leave-one-out variances off an inverse downdated in
pick order, which can tie two mirror candidates that a refactorization
splits by an ulp, or split them, so rounding decides between them.  The
single-output baselines keep the one-type prior over the target pool, and
s-MI its inverse, made in the buffer of the prior's Cholesky factor, as
their only |V_t|^2 arrays.  A pick conditions their variances by a rank-one
downdate, and an s-MI pick downdates the one column of the inverse it
reads, each O(|X| |V_t|) after |X| picks; the near-tied candidates alone
are rescored from scratch, O(|X|^3 + |X|^2 k) for k of them.
"""

import csv
import time
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .criterion import GainEvaluator, _checked_log, _ConditionedVariances
from .errors import ConfigError
from .kernels import LOG_2PI_E, TupleArray, TypedLocation
from .linalg import SpdFactor, chol_spd, spd_inverse
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


def check_budget(n, available, what="candidate pool"):
    """Refuse a budget of ``n`` picks from ``available`` candidates."""
    if n > available:
        raise ConfigError(f"budget {n} exceeds the {what} size {available}")
    if n < 0:
        raise ConfigError("budget must be nonnegative")


# scores within this of the best are rescored exactly, as a rebuild scores them
TIE_ATOL = 1e-9


def _greedy_loop(model, n, scores, add):
    """Pick ``n`` of the model's candidates: each iteration hands ``add``
    the pool position of the previous pick (none at the first); ``scores()``
    returns the scores (selected candidates ``-inf``), the gains to record,
    usually the same array, and ``exact``, which rescores in place the
    positions within ``TIE_ATOL`` of the best when there are several; the
    first argmax is picked.  An iteration's time covers the ``add``, the
    scoring and the pick."""
    state = SelectionState()
    best = None
    for _ in range(n):
        started = time.perf_counter()
        if best is not None:
            add(best)
        pick_scores, gains, exact = scores()
        near = np.flatnonzero(pick_scores >= pick_scores.max() - TIE_ATOL)
        if near.size > 1:
            pick_scores[near] = exact(near)
        best = int(np.argmax(pick_scores))
        state.record(model.candidates.tuples[best], float(gains[best]),
                     time.perf_counter() - started)
    return state


def select_greedy(model: PitcModel, cache: SpdFactor, n: int) -> SelectionState:
    """Greedy maximization of the augmented objective over all types.

    When no free candidate's gain exceeds 1e-9 the picks fall back to
    maximum posterior entropy, which keeps the sequence deterministic and
    useful instead of ordering it by roundoff noise.  That holds once the
    target pool is fully selected, where the objective is constant (every
    remaining gain is exactly zero), and can hold with targets free below
    the noise floor, where every gain may be that small.  The recorded gain
    is still the objective gain.  Each pick costs O(N (m + |X|)) for N
    candidates, m inducing points and |X| picks so far (one covariance row
    and a rank-one variance downdate, see :class:`GainEvaluator`).
    """
    check_budget(n, len(model.candidates))
    evaluator = GainEvaluator(model, cache).set_state([])

    def scores():
        gains = evaluator.gains()
        finite = gains[np.isfinite(gains)]
        if finite.size and finite.max() <= 1e-9:
            return evaluator.entropies_given_selected(), gains, evaluator.exact_entropies
        return gains, gains, evaluator.exact_gains

    return _greedy_loop(model, n, scores, evaluator.add)


def select_mvar(model: PitcModel, cache: SpdFactor, n: int) -> SelectionState:
    """Greedy maximum posterior entropy over all types.

    For a single Gaussian marginal the entropy and variance argmax agree,
    so this covers both readings of the baseline.  Per-pick cost as in
    :func:`select_greedy`.
    """
    check_budget(n, len(model.candidates))
    evaluator = GainEvaluator(model, cache).set_state([])

    def scores():
        entropies = evaluator.entropies_given_selected()
        return entropies, entropies, evaluator.exact_entropies

    return _greedy_loop(model, n, scores, evaluator.add)


def _select_single_output(model, n, mutual_information, single_output_hypers=None):
    """s-Var, or with ``mutual_information`` s-MI, over the target pool.

    The target type is an exact one-type GP over the pool range
    ``type_slices[t]``, and ``picked`` marks the selection within that
    range.  ``add`` conditions the variances of the pool on each pick by
    the rank-one downdate of :class:`GainEvaluator`, whose row is the pick's
    row of the prior, O(|X| |V_t|) after |X| picks, and ``scores()`` scores
    every free candidate from them.  Its ``exact`` recomputes the near-tied
    candidates' variances from scratch: a factor of the selected block in
    ascending pool order, a solve against their columns alone and the
    quadratic form accumulated one pick at a time.  That is the order in
    which ``einsum`` adds it over the whole pool's cross block
    ``prior[:, sel]``, which is F-ordered; an ``einsum`` over the near rows
    alone can add it in another.  So each rescored value is bit-equal to a
    whole-pool recompute, and exact float ties between far-apart candidates
    depend neither on the pick order nor on the near set.  The picks are
    the recompute's: the incremental scores stay far within ``TIE_ATOL`` of
    the recomputed ones (6.7e-16 at most over the ``experiment`` picks), so
    the recompute's pick is always in the near set, rescored as the
    recompute scores it, and a near set of one is that pick.

    s-MI also factors the prior once, O(|V_t|^3), and ``spd_inverse``
    inverts it in the factor's buffer.  Downdating that inverse P on each
    pick's pivot (a Schur complement) keeps ``1 / P[j, j]`` the variance of
    free candidate ``j`` given the other free ones (Krause, Singh & Guestrin
    2008).  A pick reads only P's diagonal and the picked candidate's
    column, so those are all that is downdated: P is exactly symmetric, and
    so is each downdate, so the column, read off P's lower triangle, stands
    for the row too.  It is rebuilt from the undowndated inverse by
    replaying the earlier picks' rank-one terms in pick order,
    O(|X| |V_t|), with the elementwise operations of a dense downdate, so
    every leave-one-out variance is bit-equal to one.  This half is never
    rescored: the near-tie recompute reuses these variances.  The prior and
    its inverse are the only |V_t|^2 arrays; the replayed columns fill one
    preallocated budget x |V_t| buffer.
    """
    t = model.h.target_type
    s = model.type_slices[t]
    check_budget(n, s.stop - s.start, what="target candidate pool")
    h_t = single_output_hypers or model.h.single_output(t)
    if h_t.n_types != 1:
        raise ConfigError("single-output pools need one-type hyperparameters")
    ta = TupleArray.build(
        [TypedLocation(p.location, 0) for p in model.candidates.tuples[s]], h_t
    )
    prior = kernels.cov_matrix(ta, ta, h_t)
    picked = np.zeros(len(ta), dtype=bool)
    variances = _ConditionedVariances(np.diag(prior).copy())
    if mutual_information:
        # the inverse's lower triangle
        inverse = spd_inverse(prior, "single-output pool prior")
        diagonal = np.diag(inverse).copy()
        # the downdated inverse's column at each pick, and its pivot
        cols = np.empty((n, len(ta)))
        pivots = np.empty(n)

    def add(j):
        k = j - s.start
        picked[k] = True
        # the kernel prior is exactly symmetric: its row k is its column k
        variances.condition(prior[k], k, "variance of the pick given the selection")
        if mutual_information:
            i = np.count_nonzero(picked) - 1
            col = cols[i]
            col[:k], col[k:] = inverse[k, :k], inverse[k:, k]
            for c, piv in zip(cols[:i], pivots):
                col -= c * c[k] / piv
            # col[k] is the diagonal entry that passed the checked log as a
            # leave-one-out variance
            pivots[i] = col[k]
            np.subtract(diagonal, col * col / col[k], out=diagonal)

    def score(var, rows):
        """Scores of the free pool rows ``rows`` whose variances given the
        selection are ``var``."""
        log_var = _checked_log(var, f"posterior variance in pool {t}")
        if not mutual_information:
            return 0.5 * (LOG_2PI_E + log_var)
        # a zero inverse diagonal gives inf, which the checked log rejects
        with np.errstate(divide="ignore"):
            loo_var = 1.0 / diagonal[rows]
        log_var -= _checked_log(loo_var, f"leave-one-out variance in pool {t}")
        return 0.5 * log_var

    def exact(near):
        rows = near - s.start
        var = np.diag(prior)[rows]
        sel = np.flatnonzero(picked)
        if sel.size:
            factor = chol_spd(prior[np.ix_(sel, sel)], "selected single-output block")
            cross = prior[np.ix_(rows, sel)]
            quad = np.zeros(rows.size)
            for c, u in zip(cross.T, factor.solve(cross.T)):
                quad += c * u
            var = var - quad
        return score(var, rows)

    def scores():
        free = np.flatnonzero(~picked)
        out = np.full(len(model.candidates), -np.inf)
        out[s.start + free] = score(variances.var[free], free)
        return out, out, exact

    return _greedy_loop(model, n, scores, add)


def select_svar(model: PitcModel, n: int, single_output_hypers=None) -> SelectionState:
    """Greedy maximum entropy restricted to the target pool.

    Runs an exact single-output GP over the target type; by default its
    parameters are derived from the multi-output model (``single_output``),
    or pass one-type ``single_output_hypers`` for refit mode.  A budget
    beyond the target pool is a ConfigError, which a run's config raises at
    load (``ExperimentConfig.check_pool``).  Each pick costs O(|X| |V_t|)
    for |X| picks so far, a rank-one downdate of the variances given the
    selection, plus a from-scratch recompute of the candidates tied with the
    best within ``TIE_ATOL``, which makes the picks those of a recompute at
    every pick (see :func:`_select_single_output`).  Raises
    :class:`IllConditionedError` when a candidate's variance is not finite and positive.
    """
    return _select_single_output(model, n, False, single_output_hypers)


def select_smi(model: PitcModel, n: int, single_output_hypers=None) -> SelectionState:
    """Greedy mutual information restricted to the target pool.

    Scores each free candidate by its variance given the selected set
    against its variance given the other free candidates (Krause, Singh &
    Guestrin 2008).  Costs one O(|V_t|^3) factorization of the prior,
    inverted in place (the prior and its inverse are its only |V_t|^2
    arrays, beside one budget x |V_t| buffer), then per pick O(|X| |V_t|)
    to downdate the one column of that inverse the scores read, for |X|
    picks so far, and the variances given the selection as in
    :func:`select_svar`, near-tie recompute included; rounding in the
    inverse can decide between mirror candidates (see the module notes).
    Options as in :func:`select_svar`; raises
    :class:`IllConditionedError` when a variance or a leave-one-out
    variance ``1 / P[j, j]`` is not finite and positive, which also covers
    each downdate pivot, scored before it is picked.
    """
    return _select_single_output(model, n, True, single_output_hypers)


def write_selection_log(state: SelectionState, path, dim):
    """Serialize a selection run to CSV: one row per iteration with the
    picked tuple (``dim`` coordinates), its gain and the running objective
    value."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
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
