"""Entropy-based selection objective over the sparse model and its fast gains.

The objective trades off picking target-type tuples that are uncertain given
the latent structure against picking tuples (of any type) that would force
the latent structure to be inferred from the unsampled remainder of the
target pool.  The expensive part of every evaluation, a solve against the
full target candidate pool, is independent of the selected set and is
therefore precomputed once into :class:`CriterionCache`.  Afterwards
``criterion_F`` costs the cube of the inducing count plus the cube of the
selected count, and :class:`GainEvaluator` moves from one greedy iteration to
the next in O(N (m + |X|)) for N candidates, m inducing points and |X|
selected tuples: the cost per candidate does not grow with the target pool.
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
    that pins the objective to zero at the empty set.  Per-selection state
    (the variances given the selection) lives in :class:`GainEvaluator`,
    which is updated one pick at a time.
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

TIE_ATOL = 1e-9
"""Scores within this of the best are rescored from a factorization of the
selection, so that near-ties break exactly as a rebuild from scratch would
break them."""


def _checked_log(var):
    if not (np.all(var > 0) and np.all(np.isfinite(var))):
        raise IllConditionedError(
            "posterior variance in gain sweep is not finite and positive"
        )
    return np.log(var)


def _entropy(var):
    return 0.5 * (LOG_2PI_E + _checked_log(var))


class _ConditionedVariances:
    """Variances of a candidate set, conditioned on one pick at a time.

    Keeps the whitened covariance rows of the picks, ``L^-1 K(X, .)`` with
    ``L`` the Cholesky factor of ``K(X, X)``, in a buffer that grows by
    doubling, and ``var = prior - sum(rows**2)``.
    """

    def __init__(self, prior_var):
        self.var = prior_var
        self.rows = np.empty((0, prior_var.size))
        self.count = 0

    def condition(self, cov_row, pos, what):
        """Add the pick at position ``pos``, whose prior covariance with every
        member is ``cov_row``: O(count * size)."""
        pivot = self.var[pos]
        if not (pivot > 0 and np.isfinite(pivot)):
            raise IllConditionedError(
                f"{what} is {pivot!r}; the selection covariance is numerically singular"
            )
        done = self.rows[:self.count]
        row = (cov_row - done[:, pos] @ done) / np.sqrt(pivot)
        if self.count == self.rows.shape[0]:
            grown = np.empty((min(max(2 * self.count, 16), self.var.size), self.var.size))
            grown[:self.count] = done
            self.rows = grown
        self.rows[self.count] = row
        self.count += 1
        self.var -= row * row


class GainEvaluator:
    """Objective gains and entropies of the whole pool, kept up to date one
    pick at a time.

    The state is the variance of every candidate given the selection and,
    for auxiliary candidates, given the selection plus the whole target pool.
    ``add`` builds the pick's covariance row against the pool once and takes
    a rank-one downdate of both: O(N (m + |X|)) per pick for N candidates,
    m inducing points and |X| selected tuples, whatever the target-pool size.
    A score within ``TIE_ATOL`` of the best is rescored by the full
    variance sweep over a factorization of the selection, built only when
    such a near-tie occurs, so near-ties break exactly as a per-pick rebuild
    breaks them.
    """

    def __init__(self, model: PitcModel, cache: CriterionCache):
        self.model = model
        self.cache = cache
        n = len(model.candidates)
        self._is_target = np.zeros(n, dtype=bool)
        self._is_target[cache.target_cols] = True
        self._aux_pos = np.full(n, -1)
        self._aux_pos[cache.aux_cols] = np.arange(cache.aux_cols.size)
        # augmented covariance of the auxiliary pool given the target pool:
        # W_aux (K_uu + T)^-1 W_aux^T plus the residual within each type
        w_aux = np.empty((cache.aux_cols.size, model.n_inducing))
        self._aug_prior = np.empty(cache.aux_cols.size)
        for i, rows in model.type_slices.items():
            if not self._is_target[rows[0]]:
                w_aux[self._aux_pos[rows]] = model.W[i]
                self._aug_prior[self._aux_pos[rows]] = np.diag(model.R[i])
        self._aug_basis = np.empty((model.n_inducing, 0))
        if cache.aux_cols.size:
            self._aug_basis = chol_spd(
                model.kuu + cache.target_summary, "augmented inducing covariance"
            ).solve(w_aux.T)
            self._aug_prior += np.einsum("cm,mc->c", w_aux, self._aug_basis)

    def set_state(self, selected):
        """Reset to the empty selection and ``add`` each of ``selected``."""
        tuples = _as_selection(self.model, selected)
        self.selected = []
        self._free = np.ones(len(self.model.candidates), dtype=bool)
        self._sel = _ConditionedVariances(self.model.prior_diag())
        self._aug = _ConditionedVariances(self._aug_prior.copy())
        self._factored = None
        for t in tuples:
            self.add(t)
        return self

    def add(self, candidate):
        """Condition the state on one more selected candidate, in
        O(N (m + |X|)): its covariance row against the pool, exact within
        its type and through the inducing points across types, whitened
        against the earlier picks."""
        model, cache = self.model, self.cache
        model.require_candidates([candidate])
        j = model.tuple_index[candidate]
        if not self._free[j]:
            raise DomainError(f"candidate {candidate} is already selected")
        i = candidate.type_index
        lj = cache.local_index[j]
        rows = model.type_slices[i]
        cov_row = model.W[i][lj] @ cache.g_all
        cov_row[rows] = model.C[i][lj]
        self._sel.condition(cov_row, j, "variance of the pick given the selection")
        if not self._is_target[j]:
            aug_row = model.W[i][lj] @ self._aug_basis
            aug_row[self._aux_pos[rows]] += model.R[i][lj]
            self._aug.condition(
                aug_row, self._aux_pos[j], "augmented variance of the pick"
            )
        self._free[j] = False
        self.selected.append(candidate)
        self._factored = None
        return self

    # -- exact sweeps over a factorization of the selection -----------------
    def _factor(self):
        if self._factored is None:
            model = self.model
            blocks = _selected_blocks(model, self.cache, self.selected)
            aux = set(model.h.aux_types)
            mx = chol_spd(model.kuu + blocks.info_sum(), "selection information")
            ma = chol_spd(
                model.kuu + self.cache.target_summary + blocks.info_sum(types=aux),
                "augmented selection information",
            )
            self._factored = (blocks, mx, ma)
        return self._factored

    def _sweep(self, cols, target_blocks):
        """Posterior variances of candidates ``cols`` given the selection,
        plus the full target pool when ``target_blocks`` is set."""
        model, cache = self.model, self.cache
        blocks, mx, ma = self._factor()
        m_factor = ma if target_blocks else mx
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

    # -- scores -------------------------------------------------------------
    def var_given_selected(self):
        """Posterior variance of every candidate given the selection."""
        return self._sel.var

    def var_given_augmented(self):
        """Posterior variance of auxiliary candidates given the selection
        plus the whole unsampled target pool."""
        return self._aug.var

    def _rescored(self, cols, scores, exact):
        """Scores of ``cols`` spread over the pool (-inf elsewhere), with
        those within ``TIE_ATOL`` of the best replaced by ``exact(cols)``
        when there is more than one."""
        out = np.full(len(self.model.candidates), -np.inf)
        out[cols] = scores
        if cols.size:
            near = cols[scores >= scores.max() - TIE_ATOL]
            if near.size > 1:
                out[near] = exact(near)
        return out

    def _gains(self, cols, var_sel, var_aug):
        """Gains of free candidates ``cols`` from their variances given the
        selection and, through ``var_aug(aux_cols)``, the auxiliary ones'
        variances given the augmented set."""
        log_sel = _checked_log(var_sel)
        out = 0.5 * (LOG_2PI_E + log_sel)
        aux = ~self._is_target[cols]
        if aux.any():
            out[aux] = 0.5 * (log_sel[aux] - _checked_log(var_aug(cols[aux])))
        return out

    def entropies_given_selected(self):
        """Posterior marginal entropy of every unselected candidate
        (selected candidates get -inf)."""
        free = np.flatnonzero(self._free)
        return self._rescored(
            free, _entropy(self._sel.var[free]),
            lambda cols: _entropy(self._sweep(cols, target_blocks=False)),
        )

    def gains(self):
        """Objective gain of every unselected candidate; selected ones get -inf."""
        free = np.flatnonzero(self._free)
        incremental = self._gains(
            free, self._sel.var[free], lambda cols: self._aug.var[self._aux_pos[cols]]
        )
        return self._rescored(free, incremental, lambda cols: self._gains(
            cols, self._sweep(cols, target_blocks=False),
            lambda aux: self._sweep(aux, target_blocks=True),
        ))

    def gain_of(self, candidate):
        return float(self.gains()[self.model.tuple_index[candidate]])
