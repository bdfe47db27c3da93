"""Entropy-based selection objective over the sparse model and its fast gains.

The objective trades off picking target-type tuples that are uncertain given
the latent structure against picking tuples (of any type) that would force
the latent structure to be inferred from the unsampled remainder of the
target pool.  The expensive part of every evaluation, a solve against the
full target candidate pool, is independent of the selected set and is
therefore precomputed once: ``build_model`` factors the target type's
residual in the residual's own buffer and keeps only the m x m target
summary ``T``, and :func:`build_cache` factors ``K_uu + T``.  Afterwards
``criterion_F`` costs the cube of the inducing count plus the cube of the
selected count, and :class:`GainEvaluator` moves from one greedy iteration to
the next in O(N (m + |X|)) for N candidates, m inducing points and |X|
selected tuples: the cost per candidate does not grow with the target pool.

What is cached and what is computed on demand: the model keeps the pool
layout, that is the inducing cross covariance ``W`` and its solve ``G`` over
the whole pool, the residual ``R`` per type, the prior variances (not the
exact prior block ``C``) and the target summary ``T``.  The cache is the
one thing the objective needs beyond the model: the factor of ``K_uu + T``,
which also gives the constant that pins the objective to zero at the empty
set.  A :class:`GainEvaluator` builds each pick's covariance row from those
blocks, ``W G`` plus ``R`` within the pick's type, and its exact rescoring
reads the picks' covariance the same way, so no path of the objective calls
the kernel.

Conditioning on a selection is one ``pitc.BlockFactors``, whose factors of
``K_uu + S`` and ``K_uu + T + S_aux`` serve ``criterion_F`` and the exact
rescoring (and the first the posterior mean); ``verify`` reads variances
and, for the exhaustive optimum, pair sweeps from :class:`GainEvaluator`.
``selector._greedy_loop`` holds the near-tie rule that asks for the exact
scores.
``criterion_F`` takes tuples and looks up their pool positions once;
:class:`GainEvaluator` takes pool positions.
"""

import numpy as np

from .errors import DomainError, IllConditionedError
from .kernels import LOG_2PI_E
from .linalg import SpdFactor, chol_spd
from .pitc import BlockFactors, PitcModel

__all__ = ["build_cache", "criterion_F", "GainEvaluator"]


def build_cache(model: PitcModel) -> SpdFactor:
    """The factor of ``K_uu + T``, ``T`` the model's target summary: the
    inducing-space information of the full target candidate pool, the only
    quantity whose construction touches all target candidates.  O(m^3);
    reads but never writes the model.  Per-selection state (the variances
    given the selection) lives in :class:`GainEvaluator`, which is updated
    one pick at a time; the pool layout lives in the model."""
    return chol_spd(model.kuu + model.target_summary, "augmented inducing covariance")


# ---------------------------------------------------------------------------
# criterion operations
# ---------------------------------------------------------------------------

def criterion_F(model: PitcModel, cache: SpdFactor, x):
    """The augmented selection objective.

    The entropy of the selected target tuples given the inducing
    measurements, minus the information the unsampled target pool still
    carries about those measurements once ``x`` is observed, plus the
    constant ``0.5 * (logdet(K_uu + T) - logdet(K_uu))``.  Exactly
    zero at the empty set, and nondecreasing along any selection chain
    whenever every noise variance is at least ``1/(2 pi e)``.  Reads only
    the cached blocks and target summary, so the cost does not grow with
    the target pool.
    """
    blocks = BlockFactors(model, model.positions(x))
    t = model.h.target_type
    h_target = (0.5 * (len(blocks.rows[t]) * LOG_2PI_E + blocks.factor[t].logdet)
                if t in blocks.factor else 0.0)
    return (h_target - 0.5 * (blocks.augmented.logdet - blocks.selection.logdet)
            + 0.5 * (cache.logdet - model.kuu_factor.logdet))


# ---------------------------------------------------------------------------
# batched gain evaluation
# ---------------------------------------------------------------------------

def _checked_log(var, what="posterior variance in gain sweep"):
    """Elementwise ``np.log`` of ``var``; an entry that is not finite and
    positive raises :class:`IllConditionedError` naming ``what``."""
    if not (np.all(var > 0) and np.all(np.isfinite(var))):
        raise IllConditionedError(f"{what} is not finite and positive")
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

    def pair_variances(self, cov, start, what):
        """Entry ``[b, c]`` is the variance of member ``start + c`` once the
        member ``start + b`` is conditioned on too, for the members from
        ``start`` on, whose prior covariance ``cov`` is overwritten with the
        result: ``condition`` for every ``b`` at once, O(count F^2) for F
        members.  The diagonal is about zero; a pivot that is not finite and
        positive raises as in ``condition``."""
        var = self.var[start:]
        bad = ~(np.isfinite(var) & (var > 0))
        if bad.any():
            raise IllConditionedError(
                f"{what} is {var[bad][0]!r}; the selection covariance is numerically singular"
            )
        done = self.rows[:self.count, start:]
        cov -= done.T @ done
        cov /= np.sqrt(var)[:, None]
        cov *= cov
        return np.subtract(var, cov, out=cov)


class GainEvaluator:
    """Objective gains and entropies of the whole pool, kept up to date one
    pick at a time.  Picks are pool positions.

    The state is the variance of every candidate given the selection and,
    for auxiliary candidates, given the selection plus the whole target pool.
    ``add`` builds the pick's covariance row against the pool once and takes
    a rank-one downdate of both: O(N (m + |X|)) per pick for N candidates,
    m inducing points and |X| selected tuples, whatever the target-pool size.
    ``pair_gains`` scores every pick after one more, from a free tail of F
    positions, in O((m + |X|) F^2) with arrays of F x F at most; the
    brute-force optimum reads it.
    ``exact_gains`` and ``exact_entropies`` score candidates as a per-pick
    rebuild does, by a sweep over one factorization of the selection that
    reads the picks' covariance as ``W G + R``; the greedy loop asks for them.
    """

    def __init__(self, model: PitcModel, cache: SpdFactor):
        self.model = model
        n, aux = len(model.candidates), model.aux_cols
        self._target = model.type_slices[model.h.target_type]
        self._is_target = np.zeros(n, dtype=bool)
        self._is_target[self._target] = True
        self._aux_pos = np.full(n, -1)
        self._aux_pos[aux] = np.arange(aux.size)
        # augmented covariance of the auxiliary pool given the target pool:
        # W_aux (K_uu + T)^-1 W_aux^T plus the residual within each type
        w_aux = model.W[aux]
        self._aug_prior = np.empty(aux.size)
        for i, rows in model.type_slices.items():
            if i != model.h.target_type:
                self._aug_prior[self._aux_pos[rows]] = np.diag(model.R[i])
        self._aug_basis = np.empty((model.n_inducing, 0))
        if aux.size:
            self._aug_basis = cache.solve(w_aux.T)
            self._aug_prior += np.einsum("cm,mc->c", w_aux, self._aug_basis)

    def set_state(self, cols):
        """Reset to the empty selection and ``add`` each position of ``cols``."""
        self.selected = []
        self._free = np.ones(len(self.model.candidates), dtype=bool)
        self._sel = _ConditionedVariances(self.model.prior_var.copy())
        self._aug = _ConditionedVariances(self._aug_prior.copy())
        for j in cols:
            self.add(j)
        return self

    def add(self, j):
        """Condition the state on the candidate at pool position ``j``, in
        O(N (m + |X|)): its sparse-model covariance row against the pool
        (through the inducing points, plus the residual row within its
        type), whitened against the earlier picks."""
        model = self.model
        if not 0 <= j < len(model.candidates):
            raise DomainError(f"pool position {j} is outside [0, {len(model.candidates)})")
        if not self._free[j]:
            raise DomainError(f"pool position {j} is already selected")
        i = int(model.candidates.types[j])
        rows = model.type_slices[i]
        r_row = model.R[i][j - rows.start]
        cov_row = model.W[j] @ model.G
        cov_row[rows] += r_row
        self._sel.condition(cov_row, j, "variance of the pick given the selection")
        if not self._is_target[j]:
            aug_row = model.W[j] @ self._aug_basis
            aug_row[self._aux_pos[rows]] += r_row
            self._aug.condition(
                aug_row, self._aux_pos[j], "augmented variance of the pick"
            )
        self._free[j] = False
        self.selected.append(int(j))
        return self

    # -- scores -------------------------------------------------------------
    def var_given_selected(self):
        """Posterior variance of every candidate given the selection."""
        return self._sel.var

    def _gains(self, cols, var_sel, var_aug):
        """Gains of free candidates ``cols`` from their variances given the
        selection and, through ``var_aug(aux_cols)``, the auxiliary ones'
        variances given the augmented set.  The variances may carry a second
        axis, one selection a column, as ``pair_gains`` passes them."""
        log_sel = _checked_log(var_sel)
        out = 0.5 * (LOG_2PI_E + log_sel)
        aux = ~self._is_target[cols]
        if aux.any():
            out[aux] = 0.5 * (log_sel[aux] - _checked_log(var_aug(cols[aux])))
        return out

    def entropies_given_selected(self):
        """Posterior marginal entropy of every unselected candidate
        (selected candidates get -inf)."""
        out = np.full(len(self.model.candidates), -np.inf)
        free = np.flatnonzero(self._free)
        out[free] = _entropy(self._sel.var[free])
        return out

    def gains(self):
        """Objective gain of every unselected candidate; selected ones get -inf.

        Once no target candidate is free the objective is constant, so every
        gain is exactly zero and nothing is computed.
        """
        out = np.full(len(self.model.candidates), -np.inf)
        free = np.flatnonzero(self._free)
        out[free] = 0.0
        if self._free[self._target].any():
            out[free] = self._gains(free, self._sel.var[free],
                                    lambda cols: self._aug.var[self._aux_pos[cols]])
        return out

    def pair_gains(self, start):
        """Gains one pick ahead over the free tail of pool positions
        ``[start, N)``: entry ``[b, c]`` is the gain of ``start + c`` given
        the selection plus ``start + b``, as ``add(start + b)`` then
        ``gains()`` give it, and the diagonal is -inf.

        ``add``'s rank-one conditioning for every ``b`` at once, from the
        tail's prior block ``W G + R``, which each type's contiguous range
        gives by basic slices: O((m + |X|) F^2) for F = N - start, and every
        array is F x F at most.  The row of the last free target candidate is
        zero, as ``gains()`` is once the objective is constant; a pivot or a
        tail variance that is not finite and positive raises
        :class:`IllConditionedError`, as ``add`` or ``gains()`` would.
        """
        model = self.model
        n = len(model.candidates)
        if not 0 <= start <= n:
            raise DomainError(f"tail start {start} is outside [0, {n}]")
        if not self._free[start:].all():
            raise DomainError(f"the tail from pool position {start} holds a selected position")
        a0 = int(np.searchsorted(model.aux_cols, start))
        cov = model.W[start:] @ model.G[:, start:]
        aug_cov = model.W[model.aux_cols[a0:]] @ self._aug_basis[:, a0:]
        for i, s in model.type_slices.items():
            lo = max(s.start, start)
            if lo >= s.stop:
                continue
            r = model.R[i][lo - s.start:, lo - s.start:]
            k = lo - start
            cov[k:k + len(r), k:k + len(r)] += r
            if i != model.h.target_type:
                k = self._aux_pos[lo] - a0
                aug_cov[k:k + len(r), k:k + len(r)] += r
        var_sel = self._sel.pair_variances(
            cov, start, "variance of the pick given the selection")
        aug = self._aug.pair_variances(aug_cov, a0, "augmented variance of the pick")
        out = np.zeros(cov.shape)
        free_targets = self._target.start + np.flatnonzero(self._free[self._target])
        if free_targets.size:
            # variances of 1.0 keep the logarithms finite on the diagonal,
            # set below, and give exactly zero gains in the row of a pick
            # that exhausts the target pool, whose other columns are all
            # auxiliary
            np.fill_diagonal(var_sel, 1.0)
            np.fill_diagonal(aug, 1.0)
            var_aug = np.tile(self._aug.var[a0:], (len(cov), 1))
            var_aug[~self._is_target[start:]] = aug
            last = free_targets[0] - start
            if free_targets.size == 1 and last >= 0:
                var_sel[last] = var_aug[last] = 1.0
            out = self._gains(np.arange(start, n), var_sel.T, lambda _: var_aug.T).T
        np.fill_diagonal(out, -np.inf)
        return out

    # -- exact sweeps over a factorization of the selection -----------------
    def _sweep(self, blocks, cols, target_blocks):
        """Posterior variances of ``cols`` given the selection ``blocks``
        factors, plus the full target pool when ``target_blocks`` is set; the
        picks' covariance with ``cols`` is ``W G``, plus ``R`` within a type."""
        model = self.model
        m_factor = blocks.augmented if target_blocks else blocks.selection
        g = model.G[:, cols]
        e1 = np.zeros(cols.size)
        hmat = np.zeros((model.n_inducing, cols.size))
        if target_blocks:
            p = model.target_summary @ g
            e1 += np.einsum("mc,mc->c", g, p)
            hmat += p
        for i, rows in blocks.rows.items():
            if target_blocks and i == model.h.target_type:
                continue
            w_sub = blocks.w[i]
            b = w_sub @ g
            s = model.type_slices[i]
            own = (cols >= s.start) & (cols < s.stop)
            b[:, own] += model.R[i][np.ix_(blocks.cols[rows] - s.start, cols[own] - s.start)]
            u = blocks.factor[i].solve(b)
            e1 += np.einsum("rc,rc->c", b, u)
            hmat += w_sub.T @ u
        quad2 = np.einsum("mc,mc->c", hmat, m_factor.solve(hmat))
        return model.prior_var[cols] - (e1 - quad2)

    def exact_entropies(self, cols):
        """Entropies of free candidates ``cols`` from the full sweep."""
        blocks = BlockFactors(self.model, np.array(self.selected, dtype=int))
        return _entropy(self._sweep(blocks, cols, target_blocks=False))

    def exact_gains(self, cols):
        """Gains of free candidates ``cols`` from the full sweeps, while a
        target candidate is free."""
        blocks = BlockFactors(self.model, np.array(self.selected, dtype=int))
        return self._gains(cols, self._sweep(blocks, cols, target_blocks=False),
                           lambda aux: self._sweep(blocks, aux, target_blocks=True))
