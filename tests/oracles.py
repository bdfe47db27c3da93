"""Brute-force reference implementations used to cross-check the library.

Everything here is written with plain loops, dense numpy solves and
log-determinants, deliberately avoiding the library's cached and
Woodbury-factored code paths.
"""

import math

import numpy as np

from mogpal import kernels
from mogpal.criterion import _as_selection, _selected_blocks, build_cache
from mogpal.errors import ConfigError, IllConditionedError
from mogpal.kernels import TypedLocation
from mogpal.linalg import chol_spd
from mogpal.selector import _check_budget, _greedy_loop

LOG_2PI_E = math.log(2.0 * math.pi * math.e)


def gd(delta, diag):
    d = len(diag)
    quad = sum(dv * dv / cv for dv, cv in zip(delta, diag))
    det = 1.0
    for cv in diag:
        det *= cv
    return (2 * math.pi) ** (-d / 2) * det ** -0.5 * math.exp(-0.5 * quad)


def out_cov(p, q, h):
    i, j = p.type_index, q.type_index
    width = [
        h.latent_prec_inv[v] + h.smooth_prec_inv[i][v] + h.smooth_prec_inv[j][v]
        for v in range(h.dim)
    ]
    delta = [a - b for a, b in zip(p.location, q.location)]
    val = math.sqrt(h.signal_var[i] * h.signal_var[j]) * gd(delta, width)
    if i == j and p.location == q.location:
        val += h.noise_var[i]
    return val


def lat_cross(p, u, h):
    i = p.type_index
    width = [h.latent_prec_inv[v] + h.smooth_prec_inv[i][v] for v in range(h.dim)]
    delta = [a - b for a, b in zip(p.location, u)]
    return math.sqrt(h.signal_var[i]) * gd(delta, width)


def lat_cov(u, v, h):
    delta = [a - b for a, b in zip(u, v)]
    return gd(delta, list(h.latent_prec_inv))


def exact_cov(a, b, h):
    return np.array([[out_cov(p, q, h) for q in b] for p in a])


def cross_to_inducing(a, u_locs, h):
    return np.array([[lat_cross(p, tuple(u), h) for u in u_locs] for p in a])


def inducing_cov(u_locs, h):
    return np.array([[lat_cov(tuple(u), tuple(v), h) for v in u_locs] for u in u_locs])


def lowrank_cov(a, b, h, u_locs):
    """Covariance through the inducing measurements: W_a K_uu^-1 W_b^T."""
    kuu = inducing_cov(u_locs, h)
    wa = cross_to_inducing(a, u_locs, h)
    wb = cross_to_inducing(b, u_locs, h)
    return wa @ np.linalg.solve(kuu, wb.T)


def blocked_cov(a, b, h, u_locs):
    """Sparse-joint covariance: exact within a type, through inducing across."""
    out = lowrank_cov(a, b, h, u_locs)
    for r, p in enumerate(a):
        for c, q in enumerate(b):
            if p.type_index == q.type_index:
                out[r, c] = out_cov(p, q, h)
    return out


def entropy(cov):
    n = cov.shape[0]
    if n == 0:
        return 0.0
    sign, logdet = np.linalg.slogdet(cov)
    assert sign > 0, "oracle covariance not positive definite"
    return 0.5 * (n * LOG_2PI_E + logdet)


def conditional_cov_blocked(s, x, h, u_locs):
    c_ss = blocked_cov(s, s, h, u_locs)
    if not x:
        return c_ss
    c_sx = blocked_cov(s, x, h, u_locs)
    c_xx = blocked_cov(x, x, h, u_locs)
    return c_ss - c_sx @ np.linalg.solve(c_xx, c_sx.T)


def conditional_mean_blocked(s, x, y, h, u_locs):
    c_sx = blocked_cov(s, x, h, u_locs)
    return c_sx @ np.linalg.solve(blocked_cov(x, x, h, u_locs), y)


def conditional_entropy_blocked(s, x, h, u_locs):
    return entropy(conditional_cov_blocked(s, x, h, u_locs))


def latent_entropy_given(x, h, u_locs):
    """H of the inducing measurements given observations at x (dense Schur)."""
    kuu = inducing_cov(u_locs, h)
    if not x:
        return entropy(kuu)
    c_xx = blocked_cov(x, x, h, u_locs)
    w = cross_to_inducing(x, u_locs, h)
    return entropy(kuu - w.T @ np.linalg.solve(c_xx, w))


def dense_F(x, model):
    """The augmented objective from dense entropies only."""
    h = model.h
    u_locs = model.inducing.locations
    target = set(h.target_types)
    v_t = [t for t in model.candidates.tuples if t.type_index in target]
    x = list(x)
    x_t = [t for t in x if t.type_index in target]
    rest = [t for t in v_t if t not in set(x)]

    # entropy of selected target tuples given the inducing measurements
    if x_t:
        kuu = inducing_cov(u_locs, h)
        w = cross_to_inducing(x_t, u_locs, h)
        resid = blocked_cov(x_t, x_t, h, u_locs) - w @ np.linalg.solve(kuu, w.T)
        h_t = entropy(resid)
    else:
        h_t = 0.0

    mi_given_x = latent_entropy_given(x, h, u_locs) - latent_entropy_given(
        x + rest, h, u_locs
    )
    mi_const = latent_entropy_given([], h, u_locs) - latent_entropy_given(
        v_t, h, u_locs
    )
    return h_t - mi_given_x + mi_const


def conditional_cov_exact(s, x, h):
    c_ss = exact_cov(s, s, h)
    if not x:
        return c_ss
    c_sx = exact_cov(s, x, h)
    return c_ss - c_sx @ np.linalg.solve(exact_cov(x, x, h), c_sx.T)


def old_criterion(model, x, use_exact=False):
    """Posterior joint entropy of the unsampled target pool given ``x``.

    The original objective, whose direct evaluation scales cubically with
    the target pool.  Evaluated under the sparse joint model by default, or
    under the exact prior with ``use_exact=True``.
    """
    h, u_locs = model.h, model.inducing.locations
    x = list(x)
    rest = [
        t for t in model.candidates.tuples
        if t.type_index in h.target_types and t not in set(x)
    ]
    if not rest:
        return 0.0
    if use_exact:
        return entropy(conditional_cov_exact(rest, x, h))
    return entropy(conditional_cov_blocked(rest, x, h, u_locs))


class _ScratchPools:
    """Per-target-type exact single-output GP pools for s-Var and s-MI."""

    def __init__(self, model, single_output_hypers=None):
        self.types = sorted(model.target_types)
        self.pools = {}
        self.prior = {}
        self.hyper = {}
        for t in self.types:
            tuples = model.candidate_list([t])
            remapped = [TypedLocation(p.location, 0) for p in tuples]
            h_t = None if single_output_hypers is None else single_output_hypers.get(t)
            h_t = h_t if h_t is not None else model.h.single_output(t)
            if h_t.n_types != 1:
                raise ConfigError("single-output pools need one-type hyperparameters")
            self.pools[t] = (tuples, remapped)
            self.hyper[t] = h_t
            self.prior[t] = kernels.cov_matrix(remapped, remapped, h_t)
        # flattened candidate list in model (lexicographic) order
        self.flat = [(t, k) for t in self.types for k in range(len(self.pools[t][0]))]
        self.flat_tuples = [self.pools[t][0][k] for t, k in self.flat]

    def posterior_var(self, t, selected_local):
        """Variance of every pool-t candidate given the selected pool-t ones."""
        c = self.prior[t]
        diag = np.diag(c).copy()
        if not selected_local:
            return diag
        sel = np.asarray(selected_local, dtype=int)
        factor = chol_spd(c[np.ix_(sel, sel)], "selected single-output block")
        cross = c[:, sel]
        return diag - np.einsum("nc,cn->n", cross, factor.solve(cross.T))

    def leave_one_out_var(self, t, remaining_local):
        """Variance of each remaining pool-t candidate given the other
        remaining ones, via the diagonal of the inverse covariance."""
        rem = np.asarray(remaining_local, dtype=int)
        c = self.prior[t][np.ix_(rem, rem)]
        factor = chol_spd(c, "remaining single-output block")
        inv_diag = np.diag(factor.solve(np.eye(rem.size)))
        return 1.0 / inv_diag


def select_single_output_scratch(model, n, kind, single_output_hypers=None,
                                 cap_to_pool=False):
    """s-Var (``kind="s-var"``) or s-MI (``kind="s-mi"``) from scratch.

    Every iteration rescans the pools for the selected tuples, recomputes the
    posterior variance given them and, for s-MI, factors the whole remaining
    block to read the leave-one-out variances off its inverse diagonal.
    """
    pools = _ScratchPools(model, single_output_hypers)
    total = len(pools.flat)
    if cap_to_pool:
        n = min(n, total)
    _check_budget(n, total, what="target candidate pool")

    def score(state):
        selected = set(state.selected)
        sel_local = {
            t: [k for k, p in enumerate(pools.pools[t][0]) if p in selected]
            for t in pools.types
        }
        scores = np.full(total, -np.inf)
        for t in pools.types:
            var_sel = pools.posterior_var(t, sel_local[t])
            if kind == "s-mi":
                remaining = [
                    k for k in range(len(pools.pools[t][0])) if k not in sel_local[t]
                ]
                var_rest = pools.leave_one_out_var(t, remaining)
                rest_pos = {k: j for j, k in enumerate(remaining)}
            for flat_idx, (tt, k) in enumerate(pools.flat):
                if tt != t or pools.pools[t][0][k] in selected:
                    continue
                if kind == "s-var":
                    scores[flat_idx] = 0.5 * (LOG_2PI_E + math.log(var_sel[k]))
                else:
                    scores[flat_idx] = 0.5 * (
                        math.log(var_sel[k]) - math.log(var_rest[rest_pos[k]])
                    )
        return scores, scores

    return _greedy_loop(kind, n, pools.flat_tuples, score)


class ScratchGainEvaluator:
    """Gain evaluation rebuilt from scratch for every selection.

    ``set_state`` factors every selected residual block and both inducing
    information matrices; each score then sweeps the whole pool.
    """

    def __init__(self, model, cache):
        self.model = model
        self.cache = cache

    def set_state(self, selected):
        model = self.model
        self.selected = _as_selection(model, selected)
        self._blocks = _selected_blocks(model, self.cache, self.selected)
        aux = set(model.h.aux_types)
        self._mx = chol_spd(model.kuu + self._blocks.info_sum(), "selection information")
        self._ma = chol_spd(
            model.kuu + self.cache.target_summary + self._blocks.info_sum(types=aux),
            "augmented selection information",
        )
        return self

    def _sweep(self, cols, target_blocks, m_factor):
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
        return model.prior_diag(cols) - (e1 - quad2)

    def _selected_mask(self):
        mask = np.zeros(len(self.model.candidates), dtype=bool)
        for t in self.selected:
            mask[self.model.tuple_index[t]] = True
        return mask

    @staticmethod
    def _checked_log(var, positions):
        if np.any(var[positions] <= 0):
            raise IllConditionedError("nonpositive posterior variance in gain sweep")
        out = np.full(var.shape, -np.inf)
        out[positions] = np.log(var[positions])
        return out

    def entropies_given_selected(self):
        var = self._sweep(np.arange(len(self.model.candidates)), False, self._mx)
        free = np.flatnonzero(~self._selected_mask())
        log_var = self._checked_log(var, free)
        out = np.full(var.shape, -np.inf)
        out[free] = 0.5 * (LOG_2PI_E + log_var[free])
        return out

    def gains(self):
        cache = self.cache
        mask = self._selected_mask()
        var_sel = self._sweep(np.arange(len(self.model.candidates)), False, self._mx)
        out = np.full(len(self.model.candidates), -np.inf)
        free_target = cache.target_cols[~mask[cache.target_cols]]
        log_sel = self._checked_log(var_sel, np.flatnonzero(~mask))
        out[free_target] = 0.5 * (LOG_2PI_E + log_sel[free_target])
        if cache.aux_cols.size:
            free_aux_pos = np.flatnonzero(~mask[cache.aux_cols])
            if free_aux_pos.size:
                var_aug = self._sweep(cache.aux_cols, True, self._ma)
                log_aug = self._checked_log(var_aug, free_aux_pos)
                free_aux = cache.aux_cols[free_aux_pos]
                out[free_aux] = 0.5 * (log_sel[free_aux] - log_aug[free_aux_pos])
        return out


def select_greedy_scratch(model, cache, n):
    """``select_greedy`` with the gain state rebuilt at every pick."""
    _check_budget(n, len(model.candidates))
    evaluator = ScratchGainEvaluator(model, cache)

    def score(state):
        evaluator.set_state(state.selected)
        gains = evaluator.gains()
        finite = gains[np.isfinite(gains)]
        if finite.size and finite.max() <= 1e-9:
            return evaluator.entropies_given_selected(), gains
        return gains, gains

    return _greedy_loop("m-greedy", n, model.candidates.tuples, score)


def select_mvar_scratch(model, n, cache=None):
    """``select_mvar`` with the gain state rebuilt at every pick."""
    _check_budget(n, len(model.candidates))
    evaluator = ScratchGainEvaluator(model, cache if cache is not None else build_cache(model))

    def score(state):
        evaluator.set_state(state.selected)
        entropies = evaluator.entropies_given_selected()
        return entropies, entropies

    return _greedy_loop("m-var", n, model.candidates.tuples, score)
