"""Entropy-based selection objective over the sparse model and its fast gains.

The objective trades off picking target-type tuples that are uncertain given
the latent structure against picking tuples (of any type) that would force
the latent structure to be inferred from the unsampled remainder of the
target pool.  The expensive part of every evaluation, a solve against the
full target candidate pool, is independent of the selected set and is
therefore precomputed once into :class:`CriterionCache`; afterwards each
evaluation costs only the cube of the inducing count plus the cube of the
selected count.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, IllConditionedError
from .exact import find_duplicates
from .kernels import LOG_2PI_E, TupleArray
from .linalg import chol_spd
from .pitc import BlockFactors, PitcModel

__all__ = [
    "CriterionCache", "build_cache", "mi_inducing_given", "criterion_F",
    "greedy_gain", "GainEvaluator",
]


@dataclass(frozen=True)
class CriterionCache:
    """One-off precomputation shared by every criterion evaluation.

    ``target_summary`` is the inducing-space information contributed by the
    full target candidate pool; it is the only quantity whose construction
    touches all target candidates.  ``f_constant`` is the additive constant
    that pins the objective to zero at the empty set.  Per-selection
    summaries (the running per-type information blocks) live in
    :class:`GainEvaluator`, which is rebuilt each iteration.
    """

    model: PitcModel = field(repr=False)
    target_summary: np.ndarray
    f_constant: float
    logdet_kuu: float
    logdet_kuu_plus_summary: float
    g_all: np.ndarray = field(repr=False)
    local_index: np.ndarray = field(repr=False)
    target_cols: np.ndarray = field(repr=False)
    aux_cols: np.ndarray = field(repr=False)


def _target_summary(model: PitcModel):
    # the full cached blocks, not copies: R[t] is |V_t| x |V_t|
    blocks = {
        t: (model.type_slices[t], model.W[t], model.R[t])
        for t in model.target_types if t in model.type_slices
    }
    return BlockFactors(blocks, model.n_inducing).info_sum()


def build_cache(model: PitcModel) -> CriterionCache:
    """Precompute the target-pool summary and candidate lookup tables."""
    tsum = _target_summary(model)
    logdet_kuu = model.kuu_factor.logdet
    logdet_plus = chol_spd(model.kuu + tsum, "augmented inducing covariance").logdet
    n = len(model.candidates)
    g_all = np.zeros((model.n_inducing, n))
    local_index = np.empty(n, dtype=int)
    for i, rows in model.type_slices.items():
        g_all[:, rows] = model.G[i]
        local_index[rows] = np.arange(rows.size)
    types = model.candidates.types
    is_target = np.isin(types, list(model.target_types))
    return CriterionCache(
        model=model,
        target_summary=tsum,
        f_constant=0.5 * (logdet_plus - logdet_kuu),
        logdet_kuu=logdet_kuu,
        logdet_kuu_plus_summary=logdet_plus,
        g_all=g_all,
        local_index=local_index,
        target_cols=np.flatnonzero(is_target),
        aux_cols=np.flatnonzero(~is_target),
    )


# ---------------------------------------------------------------------------
# set partitioning helpers
# ---------------------------------------------------------------------------

def _as_selection(model, x):
    tuples = list(x.tuples) if isinstance(x, TupleArray) else [
        t if hasattr(t, "type_index") else TupleArray.build([t], model.h).tuples[0]
        for t in x
    ]
    dups = find_duplicates(tuples)
    if dups:
        raise DomainError(f"selection contains duplicate tuples: {dups}")
    model.require_candidates(tuples)
    return tuples


def _selected_blocks(model, cache, tuples):
    """Block factors of a selection, sliced from the model's cached W and R.

    Types are visited in order of first selection and rows in selection
    order, which fixes the summation order of every derived quantity.
    """
    by_type = {}
    for t in tuples:
        by_type.setdefault(t.type_index, []).append(model.tuple_index[t])
    blocks = {}
    for i, glob in by_type.items():
        li = cache.local_index[np.asarray(glob, dtype=int)]
        blocks[i] = (li, model.W[i][li], model.R[i][np.ix_(li, li)])
    return BlockFactors(blocks, model.n_inducing)


def _mi_logdets(model, cache, blocks):
    aux = set(model.h.aux_types)
    s_x = blocks.info_sum()
    s_a = cache.target_summary + blocks.info_sum(types=aux)
    ld_x = chol_spd(model.kuu + s_x, "conditioned inducing covariance").logdet
    ld_a = chol_spd(model.kuu + s_a, "augmented conditioned inducing covariance").logdet
    return ld_x, ld_a


# ---------------------------------------------------------------------------
# criterion operations
# ---------------------------------------------------------------------------

def mi_inducing_given(model: PitcModel, cache: CriterionCache, x):
    """Information the unsampled target pool still carries about the latent
    measurements once ``x`` has been observed.

    Zero when the target pool is fully selected; nonnegative always (clamped
    against roundoff).  Reuses the cached target-pool summary so the cost
    per call does not grow with the target pool.
    """
    tuples = _as_selection(model, x)
    blocks = _selected_blocks(model, cache, tuples)
    ld_x, ld_a = _mi_logdets(model, cache, blocks)
    return max(0.0, 0.5 * (ld_a - ld_x))


def criterion_F(model: PitcModel, cache: CriterionCache, x):
    """The augmented selection objective.

    The entropy of the selected target tuples given the inducing
    measurements, minus the information the unsampled target pool still
    carries about those measurements (:func:`mi_inducing_given`), plus the
    constant ``cache.f_constant``.  Exactly
    zero at the empty set, and nondecreasing along any selection chain
    whenever every noise variance is at least ``1/(2 pi e)``.  Reads only
    the cached blocks and target summary, so the cost does not grow with
    the target pool.
    """
    tuples = _as_selection(model, x)
    blocks = _selected_blocks(model, cache, tuples)
    n_t, ld_t = blocks.target_logdet(set(model.target_types))
    h_target = 0.5 * (n_t * LOG_2PI_E + ld_t)
    ld_x, ld_a = _mi_logdets(model, cache, blocks)
    return h_target - 0.5 * (ld_a - ld_x) + cache.f_constant


def greedy_gain(model: PitcModel, cache: CriterionCache, x, candidate):
    """Increase of the objective from adding ``candidate`` to the selection.

    For a target-type candidate this is its posterior entropy given the
    selection; for an auxiliary candidate it is that entropy minus the
    entropy left once the whole unsampled target pool is also conditioned
    on.  Equal to the direct objective difference.
    """
    tuples = _as_selection(model, x)
    if candidate in tuples:
        raise DomainError(f"candidate {candidate} is already selected")
    model.require_candidates([candidate])
    ev = GainEvaluator(model, cache)
    ev.set_state(tuples)
    return ev.gain_of(candidate)


# ---------------------------------------------------------------------------
# batched gain evaluation
# ---------------------------------------------------------------------------

class GainEvaluator:
    """Vectorized per-iteration gain evaluation over the whole pool.

    ``set_state`` factors the current selection once (inducing-count and
    selection-count cubes); the marginal cost per candidate afterwards is a
    few inducing-sized products, independent of the target-pool size.
    Evaluations for distinct candidates are pure and share no mutable state.
    """

    def __init__(self, model: PitcModel, cache: CriterionCache):
        self.model = model
        self.cache = cache
        self.selected = []
        self._blocks = None
        self._mx = None
        self._ma = None
        self._var_sel = None
        self._var_aug = None

    def set_state(self, selected):
        self.selected = _as_selection(self.model, selected)
        self._blocks = _selected_blocks(self.model, self.cache, self.selected)
        aux = set(self.model.h.aux_types)
        self._mx = chol_spd(
            self.model.kuu + self._blocks.info_sum(), "selection information"
        )
        self._ma = chol_spd(
            self.model.kuu + self.cache.target_summary + self._blocks.info_sum(types=aux),
            "augmented selection information",
        )
        self._var_sel = None
        self._var_aug = None
        return self

    # -- internal batched variance sweeps ---------------------------------
    def _sweep(self, cols, target_blocks, m_factor):
        """Posterior variances of candidates ``cols`` given the conditioning
        set encoded by (selected blocks restricted appropriately, plus the
        full target pool when ``target_blocks`` is set)."""
        model, cache, blocks = self.model, self.cache, self._blocks
        g = cache.g_all[:, cols]
        e1 = np.zeros(cols.size)
        hmat = np.zeros((model.n_inducing, cols.size))
        if target_blocks:
            p = cache.target_summary @ g
            e1 += np.einsum("mc,mc->c", g, p)
            hmat += p
        skip = set(model.target_types) if target_blocks else set()
        col_pos_by_type = {}
        for i in np.unique(model.candidates.types[cols]):
            col_pos_by_type[int(i)] = np.flatnonzero(model.candidates.types[cols] == i)
        for i, li in blocks.rows.items():
            if i in skip:
                continue
            w_sub = blocks.w[i]
            b = w_sub @ g
            pos = col_pos_by_type.get(i)
            if pos is not None and pos.size:
                lj = cache.local_index[cols[pos]]
                b[:, pos] = model.C[i][np.ix_(li, lj)]
            u = blocks.factor[i].solve(b)
            e1 += np.einsum("rc,rc->c", b, u)
            hmat += w_sub.T @ u
        quad2 = np.einsum("mc,mc->c", hmat, m_factor.solve(hmat))
        return self.model.prior_diag(cols) - (e1 - quad2)

    def var_given_selected(self):
        """Posterior variance of every candidate given the selection."""
        if self._var_sel is None:
            cols = np.arange(len(self.model.candidates))
            self._var_sel = self._sweep(cols, target_blocks=False, m_factor=self._mx)
        return self._var_sel

    def var_given_augmented(self):
        """Posterior variance of auxiliary candidates given the selection
        plus the whole unsampled target pool."""
        if self._var_aug is None:
            self._var_aug = self._sweep(
                self.cache.aux_cols, target_blocks=True, m_factor=self._ma
            )
        return self._var_aug

    def _selected_mask(self):
        mask = np.zeros(len(self.model.candidates), dtype=bool)
        for t in self.selected:
            mask[self.model.tuple_index[t]] = True
        return mask

    def _checked_log(self, var, positions):
        if np.any(var[positions] <= 0):
            raise IllConditionedError("nonpositive posterior variance in gain sweep")
        out = np.full(var.shape, -np.inf)
        out[positions] = np.log(var[positions])
        return out

    def entropies_given_selected(self):
        """Posterior marginal entropy of every unselected candidate
        (selected candidates get -inf)."""
        var = self.var_given_selected()
        free = np.flatnonzero(~self._selected_mask())
        log_var = self._checked_log(var, free)
        out = np.full(var.shape, -np.inf)
        out[free] = 0.5 * (LOG_2PI_E + log_var[free])
        return out

    def gains(self):
        """Objective gain of every unselected candidate; selected ones get -inf."""
        cache = self.cache
        mask = self._selected_mask()
        var_sel = self.var_given_selected()
        out = np.full(len(self.model.candidates), -np.inf)
        free_target = cache.target_cols[~mask[cache.target_cols]]
        log_sel = self._checked_log(var_sel, np.flatnonzero(~mask))
        out[free_target] = 0.5 * (LOG_2PI_E + log_sel[free_target])
        if cache.aux_cols.size:
            free_aux_pos = np.flatnonzero(~mask[cache.aux_cols])
            if free_aux_pos.size:
                var_aug = self.var_given_augmented()
                log_aug = self._checked_log(var_aug, free_aux_pos)
                free_aux = cache.aux_cols[free_aux_pos]
                out[free_aux] = 0.5 * (log_sel[free_aux] - log_aug[free_aux_pos])
        return out

    def gain_of(self, candidate):
        return float(self.gains()[self.model.tuple_index[candidate]])
