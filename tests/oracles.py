"""Brute-force reference implementations used to cross-check the library.

Everything here is written with plain loops, dense numpy solves and
log-determinants, deliberately avoiding the library's cached and
Woodbury-factored code paths.
"""

import itertools
import math

import numpy as np

from mogpal import kernels
from mogpal.criterion import GainEvaluator, _checked_log, build_cache, criterion_F
from mogpal.errors import ConfigError, DomainError, EnumerationGuardError, IllConditionedError
from mogpal.kernels import TWO_PI, Hyperparams, TupleArray, TypedLocation, as_tuple
from mogpal.linalg import chol_spd, spd_inverse
from mogpal.pitc import BlockFactors, PitcModel, build_model, select_inducing
from mogpal.selector import _greedy_loop, check_budget
from mogpal.verify import ENUMERATION_GUARD, INSTANCE_INDUCING

LOG_2PI_E = math.log(2.0 * math.pi * math.e)
# largest selection whose 2^|x| subsets estimate_epsilon1 enumerates
SUBSET_GUARD = 12


def random_instance(seed, n_per_type=(4, 4), dim=1, n_inducing=INSTANCE_INDUCING,
                    target_type=0, spread=1.0):
    """``verify.random_instance`` in the shapes only tests draw: ``dim``-D
    locations on [0, ``spread``), ``n_inducing`` inducing points and target
    type ``target_type``.  It draws the seed's stream in the library's order,
    so at the defaults it returns the library's instance bit for bit."""
    rng = np.random.default_rng(seed)
    n_types = len(n_per_type)
    h = Hyperparams(
        signal_var=rng.uniform(0.5, 2.0, size=n_types),
        noise_var=rng.uniform(0.08, 0.35, size=n_types),
        latent_prec_inv=rng.uniform(0.05, 0.4, size=dim),
        smooth_prec_inv=rng.uniform(0.02, 0.3, size=(n_types, dim)),
        target_type=target_type,
    )
    cands = {
        i: [as_tuple(rng.uniform(0, spread, size=dim), i) for _ in range(n_per_type[i])]
        for i in range(n_types)
    }
    all_locs = np.array([t.location for tuples in cands.values() for t in tuples])
    model = build_model(h, select_inducing(all_locs, n_inducing, seed=seed), cands)
    return model, build_cache(model)


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


# the smallest exponent whose exp is a normal double
_LOG_TINY = math.log(np.finfo(float).tiny)


def _pairwise_density(xa, xb, diag_cov):
    """Matrix of gd(xa[r] - xb[c], diag_cov) values, zero where the
    exponent is below log(DBL_MIN), the kernels' rule for an entry whose
    exp would be subnormal."""
    diag_cov = np.asarray(diag_cov, dtype=float)
    d = diag_cov.shape[0]
    diff = xa[:, None, :] - xb[None, :, :]
    quad = np.einsum("rcv,v->rc", diff * diff, 1.0 / diag_cov)
    norm = TWO_PI ** (-0.5 * d) * float(np.prod(diag_cov)) ** -0.5
    expo = -0.5 * quad
    expo[expo < _LOG_TINY] = -np.inf
    return norm * np.exp(expo)


def cov_matrix(a, b, h: Hyperparams):
    """Prior covariance matrix between two tuple lists, assembled from
    whole-array temporaries and ``np.einsum``.

    The reference for ``kernels.cov_matrix``, which fills its output in
    place with the same per-element operations and must match this bitwise
    for d <= 2.
    """
    ta = a if isinstance(a, TupleArray) else TupleArray.build(a, h)
    tb = b if isinstance(b, TupleArray) else TupleArray.build(b, h)
    out = np.zeros((len(ta), len(tb)))
    for i in np.unique(ta.types):
        ra = ta.indices_of_type(i)
        for j in np.unique(tb.types):
            rb = tb.indices_of_type(j)
            amp = math.sqrt(h.signal_var[i] * h.signal_var[j])
            block = amp * _pairwise_density(
                ta.coords[ra], tb.coords[rb], h.pair_width(i, j)
            )
            if i == j:
                same = np.all(
                    ta.coords[ra][:, None, :] == tb.coords[rb][None, :, :], axis=2
                )
                block = block + same * float(h.noise_var[i])
            out[np.ix_(ra, rb)] = block
    return out


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


def sparse_cov(model: PitcModel, a, b):
    """Joint-model covariance: exact within a type, low-rank across types.

    Reads only the model's hyperparameters, inducing locations and K_uu
    factor, so ``a`` and ``b`` need not be candidates of its pool.
    """
    h, locs = model.h, model.inducing.locations
    ta = a if isinstance(a, TupleArray) else TupleArray.build(a, h)
    tb = b if isinstance(b, TupleArray) else TupleArray.build(b, h)
    w_a = kernels.latent_cross_matrix(ta, locs, h)
    w_b = kernels.latent_cross_matrix(tb, locs, h)
    out = w_a @ model.kuu_factor.solve(w_b.T)
    for i in np.unique(ta.types):
        ra = ta.indices_of_type(i)
        rb = tb.indices_of_type(i)
        if rb.size:
            out[np.ix_(ra, rb)] = kernels.cov_matrix(ta.take(ra), tb.take(rb), h)
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
    v_t = [t for t in model.candidates.tuples if t.type_index == h.target_type]
    x = list(x)
    x_t = [t for t in x if t.type_index == h.target_type]
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


def conditional_mean_exact(s, x, y, h):
    return exact_cov(s, x, h) @ np.linalg.solve(exact_cov(x, x, h), y)


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
        if t.type_index == h.target_type and t not in set(x)
    ]
    if not rest:
        return 0.0
    if use_exact:
        return entropy(conditional_cov_exact(rest, x, h))
    return entropy(conditional_cov_blocked(rest, x, h, u_locs))


def mi_inducing_given(model, x):
    """Information the unsampled target pool still carries about the latent
    measurements once ``x`` has been observed, clamped at zero; the term
    ``criterion_F`` subtracts."""
    blocks = BlockFactors(model, model.positions(x))
    return max(0.0, 0.5 * (blocks.augmented.logdet - blocks.selection.logdet))


def greedy_gain(model, cache, x, candidate):
    """Increase of the objective from adding ``candidate`` to the selection
    ``x``, from a :class:`GainEvaluator` replayed to ``x``."""
    cols = model.positions(x)
    [j] = model.positions([candidate])
    if j in cols:
        raise DomainError(f"candidate {candidate} is already selected")
    return float(GainEvaluator(model, cache).set_state(cols).gains()[j])


def _rebuilt_loop(model, n, score):
    """``selector._greedy_loop`` with ``score`` handed the pool positions of
    every pick so far, so that it can start afresh; its scores are exact
    already, so the loop rescores nothing."""
    picks = []
    return _greedy_loop(model, n, lambda: (*score(picks), None), picks.append)


class _ScratchPools:
    """The target type's exact single-output GP pool for s-Var and s-MI,
    keyed by type."""

    def __init__(self, model, single_output_hypers=None):
        self.types = [model.h.target_type]
        self.pools = {}
        self.prior = {}
        self.hyper = {}
        for t in self.types:
            tuples = [p for p in model.candidates.tuples if p.type_index == t]
            remapped = [TypedLocation(p.location, 0) for p in tuples]
            h_t = single_output_hypers or model.h.single_output(t)
            if h_t.n_types != 1:
                raise ConfigError("single-output pools need one-type hyperparameters")
            self.pools[t] = (tuples, remapped)
            self.hyper[t] = h_t
            tr = TupleArray.build(remapped, h_t)
            self.prior[t] = kernels.cov_matrix(tr, tr, h_t)
        # (pool position, type, row in the type's pool) of every target candidate
        index = {p: j for j, p in enumerate(model.candidates.tuples)}
        self.flat = [
            (index[p], t, k) for t in self.types for k, p in enumerate(self.pools[t][0])
        ]

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


def select_single_output_scratch(model, n, kind, single_output_hypers=None):
    """s-Var (``kind="s-var"``) or s-MI (``kind="s-mi"``) from scratch.

    Every iteration rescans the pools for the selected tuples, recomputes the
    posterior variance given them and, for s-MI, factors the whole remaining
    block to read the leave-one-out variances off its inverse diagonal.
    """
    pools = _ScratchPools(model, single_output_hypers)
    check_budget(n, len(pools.flat), what="target candidate pool")

    def score(picks):
        selected = {model.candidates.tuples[j] for j in picks}
        sel_local = {
            t: [k for k, p in enumerate(pools.pools[t][0]) if p in selected]
            for t in pools.types
        }
        scores = np.full(len(model.candidates), -np.inf)
        for t in pools.types:
            var_sel = pools.posterior_var(t, sel_local[t])
            if kind == "s-mi":
                remaining = [
                    k for k in range(len(pools.pools[t][0])) if k not in sel_local[t]
                ]
                var_rest = pools.leave_one_out_var(t, remaining)
                rest_pos = {k: j for j, k in enumerate(remaining)}
            for pos, tt, k in pools.flat:
                if tt != t or pools.pools[t][0][k] in selected:
                    continue
                if kind == "s-var":
                    scores[pos] = 0.5 * (LOG_2PI_E + math.log(var_sel[k]))
                else:
                    scores[pos] = 0.5 * (
                        math.log(var_sel[k]) - math.log(var_rest[rest_pos[k]])
                    )
        return scores, scores

    return _rebuilt_loop(model, n, score)



def select_smi_dense(model, n, single_output_hypers=None):
    """s-MI with the whole |V_t| x |V_t| inverse downdated at every pick.

    The prior and its inverse are built as in ``select_smi``, the inverse's
    lower triangle mirrored into the upper; each pick then
    subtracts the full rank-one Schur term ``outer(P[:, k], P[k, :]) /
    P[k, k]`` from the inverse P, O(|V_t|^2), and scores off its diagonal.
    ``select_smi`` downdates only the entries it reads with the same
    elementwise operations in the same order, so its scores must equal
    these bit for bit.
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
    lower = spd_inverse(prior, "single-output pool prior")
    inverse = np.where(np.tri(len(ta), dtype=bool), lower, lower.T)
    downdate = np.empty_like(inverse)

    def add(j):
        k = j - s.start
        picked[k] = True
        # the pivot passed the checked log as a leave-one-out variance
        np.outer(inverse[:, k], inverse[k, :], out=downdate)
        np.divide(downdate, inverse[k, k], out=downdate)
        np.subtract(inverse, downdate, out=inverse)

    def scores():
        sel, free = np.flatnonzero(picked), np.flatnonzero(~picked)
        var = np.diag(prior)
        if sel.size:
            factor = chol_spd(prior[np.ix_(sel, sel)], "selected single-output block")
            cross = prior[:, sel]
            var = var - np.einsum("nc,cn->n", cross, factor.solve(cross.T))
        log_var = _checked_log(var[free], f"posterior variance in pool {t}")
        out = np.full(len(model.candidates), -np.inf)
        # a zero inverse diagonal gives inf, which the checked log rejects
        with np.errstate(divide="ignore"):
            loo_var = 1.0 / inverse[free, free]
        log_var -= _checked_log(loo_var, f"leave-one-out variance in pool {t}")
        out[s.start + free] = 0.5 * log_var
        return out, out, None

    return _greedy_loop(model, n, scores, add)

class ScratchGainEvaluator:
    """Gain evaluation rebuilt from scratch for every selection.

    ``set_state`` factors every selected residual block and both inducing
    information matrices; each score then sweeps the whole pool.
    """

    def __init__(self, model):
        self.model = model

    def set_state(self, cols):
        self.selected = np.array(cols, dtype=int)
        self._blocks = BlockFactors(self.model, self.selected)
        return self

    def _sweep(self, cols, target_blocks, m_factor):
        model, blocks = self.model, self._blocks
        g = model.G[:, cols]
        e1 = np.zeros(cols.size)
        hmat = np.zeros((model.n_inducing, cols.size))
        if target_blocks:
            p = model.target_summary @ g
            e1 += np.einsum("mc,mc->c", g, p)
            hmat += p
        skip = {model.h.target_type} if target_blocks else set()
        col_pos_by_type = {}
        for i in np.unique(model.candidates.types[cols]):
            col_pos_by_type[int(i)] = np.flatnonzero(model.candidates.types[cols] == i)
        for i, rows in blocks.rows.items():
            if i in skip:
                continue
            w_sub = blocks.w[i]
            b = w_sub @ g
            pos = col_pos_by_type.get(i)
            if pos is not None and pos.size:
                picks = model.candidates.take(self.selected[rows])
                b[:, pos] = cov_matrix(picks, model.candidates.take(cols[pos]), model.h)
            u = blocks.factor[i].solve(b)
            e1 += np.einsum("rc,rc->c", b, u)
            hmat += w_sub.T @ u
        quad2 = np.einsum("mc,mc->c", hmat, m_factor.solve(hmat))
        return model.prior_var[cols] - (e1 - quad2)

    def _selected_mask(self):
        mask = np.zeros(len(self.model.candidates), dtype=bool)
        mask[self.selected] = True
        return mask

    @staticmethod
    def _checked_log(var, positions):
        if np.any(var[positions] <= 0):
            raise IllConditionedError("nonpositive posterior variance in gain sweep")
        out = np.full(var.shape, -np.inf)
        out[positions] = np.log(var[positions])
        return out

    def entropies_given_selected(self):
        var = self._sweep(np.arange(len(self.model.candidates)), False, self._blocks.selection)
        free = np.flatnonzero(~self._selected_mask())
        log_var = self._checked_log(var, free)
        out = np.full(var.shape, -np.inf)
        out[free] = 0.5 * (LOG_2PI_E + log_var[free])
        return out

    def gains(self):
        model = self.model
        mask = self._selected_mask()
        var_sel = self._sweep(np.arange(len(model.candidates)), False, self._blocks.selection)
        out = np.full(len(model.candidates), -np.inf)
        target = model.type_slices[model.h.target_type]
        free_target = target.start + np.flatnonzero(~mask[target])
        log_sel = self._checked_log(var_sel, np.flatnonzero(~mask))
        out[free_target] = 0.5 * (LOG_2PI_E + log_sel[free_target])
        if model.aux_cols.size:
            free_aux_pos = np.flatnonzero(~mask[model.aux_cols])
            if free_aux_pos.size:
                var_aug = self._sweep(model.aux_cols, True, self._blocks.augmented)
                log_aug = self._checked_log(var_aug, free_aux_pos)
                free_aux = model.aux_cols[free_aux_pos]
                out[free_aux] = 0.5 * (log_sel[free_aux] - log_aug[free_aux_pos])
        return out


def select_greedy_scratch(model, cache, n):
    """``select_greedy`` with the gain state rebuilt at every pick."""
    check_budget(n, len(model.candidates))
    evaluator = ScratchGainEvaluator(model)

    def score(picks):
        evaluator.set_state(picks)
        gains = evaluator.gains()
        finite = gains[np.isfinite(gains)]
        if finite.size and finite.max() <= 1e-9:
            return evaluator.entropies_given_selected(), gains
        return gains, gains

    return _rebuilt_loop(model, n, score)


def select_mvar_scratch(model, cache, n):
    """``select_mvar`` with the gain state rebuilt at every pick."""
    check_budget(n, len(model.candidates))
    evaluator = ScratchGainEvaluator(model)

    def score(picks):
        evaluator.set_state(picks)
        entropies = evaluator.entropies_given_selected()
        return entropies, entropies

    return _rebuilt_loop(model, n, score)


def brute_force_optimum(model, cache, n):
    """Exhaustive argmax of the objective over all size-n selections, with
    ``criterion_F`` solved from scratch for every subset."""
    cands = model.candidates.tuples
    total = math.comb(len(cands), n)
    if total > ENUMERATION_GUARD:
        raise EnumerationGuardError(
            f"C({len(cands)}, {n}) = {total} subsets exceeds the "
            f"{ENUMERATION_GUARD} enumeration guard"
        )
    best_subset, best_value = None, -np.inf
    for combo in itertools.combinations(cands, n):
        value = criterion_F(model, cache, list(combo))
        if value > best_value:
            best_subset, best_value = combo, value
    return list(best_subset), float(best_value)


class _PreconditionedVar:
    """Variance queries var(z | subset + fixed) with the fixed part solved
    once, one tuple z and one factorization of the subset at a time.

    The dense reference for the relaxation parameter: it takes Schur
    complements of ``sparse_cov`` blocks, where the library conditions one
    pick at a time in :class:`GainEvaluator`."""

    def __init__(self, model, fixed, others):
        self.index = {t: k for k, t in enumerate(others)}
        to = TupleArray.build(others, model.h)
        cond = sparse_cov(model, to, to)
        if fixed:
            tf = TupleArray.build(fixed, model.h)
            c_ff = sparse_cov(model, tf, tf)
            c_of = sparse_cov(model, to, tf)
            cond = cond - c_of @ chol_spd(c_ff, "fixed conditioning").solve(c_of.T)
        self.cond = cond

    def var(self, z, subset):
        zi = self.index[z]
        if not subset:
            return float(self.cond[zi, zi])
        si = [self.index[t] for t in subset]
        c_ss = self.cond[np.ix_(si, si)]
        c_zs = self.cond[zi, si]
        sol = chol_spd(c_ss, "subset conditioning").solve(c_zs)
        return float(self.cond[zi, zi] - c_zs @ sol)


def estimate_epsilon1(model, cache, x):
    """``verify.estimate_epsilon1`` by its definition: the worst drop over
    every subset of ``x`` (up to ``|x| <= 12``), with the subset block
    factored again for every auxiliary candidate, from dense covariance
    blocks; ``cache`` is unused and taken only to share the library
    function's signature."""
    x = list(x)
    model.positions(x)  # rejects a tuple missing from the pool or repeated
    target = {model.h.target_type}
    x_target = {t for t in x if t.type_index in target}
    x_aux = {t for t in x if t.type_index not in target}
    fixed = [
        t for t in model.candidates.tuples
        if t.type_index in target and t not in x_target
    ]
    aux_candidates = [
        t for t in model.candidates.tuples
        if t.type_index not in target and t not in x_aux
    ]
    if not aux_candidates:
        return 0.0
    if len(x) > SUBSET_GUARD:
        raise EnumerationGuardError(
            f"2^{len(x)} subsets exceed the {SUBSET_GUARD}-pick enumeration guard"
        )

    others = [t for t in model.candidates.tuples if t not in set(fixed)]
    pre = _PreconditionedVar(model, fixed, others)
    worst = 0.0
    full_var = {z: pre.var(z, x) for z in aux_candidates}
    for k in range(len(x) + 1):
        for subset in itertools.combinations(x, k):
            for z in aux_candidates:
                worst = max(worst, pre.var(z, list(subset)) - full_var[z])
    return worst


def audit_eps_submodularity(model, cache, samples, seed=0):
    """Sample nested selections and measure diminishing-returns violations.

    Draws pairs ``A within A'`` and an outside candidate ``a``, compares the
    objective gain of ``a`` at both, and records the largest positive
    excess (gain under the larger context beyond gain under the smaller).
    Also measures, for auxiliary candidates, the variance-reduction bound
    that the theory converts into a tolerated excess; returns
    ``(max_excess, epsilon_required)``.
    """
    rng = np.random.default_rng(seed)
    h, u_locs = model.h, model.inducing.locations
    cands = model.candidates.tuples
    n = len(cands)
    target = {model.h.target_type}
    max_excess = -np.inf
    worst_eps1 = 0.0
    for _ in range(samples):
        size_big = int(rng.integers(0, min(n - 1, 6) + 1))
        big_idx = rng.choice(n, size=size_big, replace=False)
        big = [cands[i] for i in sorted(big_idx)]
        keep = rng.integers(0, 2, size=size_big).astype(bool)
        small = [t for t, k in zip(big, keep) if k]
        outside = [t for t in cands if t not in set(big)]
        a = outside[int(rng.integers(len(outside)))]

        gain_small = criterion_F(model, cache, small + [a]) - criterion_F(
            model, cache, small
        )
        gain_big = criterion_F(model, cache, big + [a]) - criterion_F(
            model, cache, big
        )
        max_excess = max(max_excess, gain_big - gain_small)

        if a.type_index not in target:
            big_t = {t for t in big if t.type_index in target}
            rest = [
                t for t in cands
                if t.type_index in target and t not in big_t
            ]
            v_small = conditional_cov_blocked([a], small + rest, h, u_locs)[0, 0]
            v_big = conditional_cov_blocked([a], big + rest, h, u_locs)[0, 0]
            worst_eps1 = max(worst_eps1, v_small - v_big)
    sig2n = float(np.min(model.h.noise_var))
    eps_required = 0.5 * math.log1p(worst_eps1 / sig2n)
    return float(max_excess), float(eps_required)


def prop1_bound(model, candidate, remaining_targets):
    """Proposition 1's upper bound on an auxiliary tuple's objective gain.

    ``0.5 log(1 + 4 rho_i sum_q rho_q gd(x - x_q)^2)`` with per-type
    signal-to-noise ratios ``rho`` and the cross-kernel density to each
    remaining unsampled target tuple q; valid in the absence of suppressor
    variables.
    """
    h = model.h
    i = candidate.type_index
    assert i != h.target_type, "the bound applies to auxiliary candidates"
    rho = h.signal_var / h.noise_var
    total = 0.0
    for q in remaining_targets:
        assert q.type_index == h.target_type, f"{q} is not a target-type tuple"
        delta = [a - b for a, b in zip(candidate.location, q.location)]
        total += float(rho[q.type_index]) * gd(delta, h.pair_width(i, q.type_index)) ** 2
    return 0.5 * math.log1p(4.0 * float(rho[i]) * total)


def min_spacing_p(h, n, epsilon1, omega=1.0):
    """The paper's smallest spacing multiplier ``p`` certifying the
    variance-reduction bound ``epsilon1`` for a budget of ``n``.

    Candidates at least ``p * omega`` apart satisfy
    ``p^2 > log{ (2 sig2_s_max)^-1 min(sig2_n_min/n,
    0.5 (sqrt(eps1^2 + 4 eps1 sig2_n_min/n) - eps1)) } / log xi``, with
    ``xi = exp(-omega^2 / (2 ell))`` and ``ell`` the largest first entry of
    the pairwise kernel widths; returns the smallest such ``p`` plus a
    relative margin of 1e-9.  Dividing by ``log xi < 0`` flips the
    inequality, so the threshold is an upper bound on the log argument.
    """
    ell = max(float(h.pair_width(i, j)[0]) for i in range(h.n_types) for j in range(h.n_types))
    s2s, s2n = float(np.max(h.signal_var)), float(np.min(h.noise_var))
    inner = min(s2n / n, 0.5 * (math.sqrt(epsilon1**2 + 4.0 * epsilon1 * s2n / n) - epsilon1))
    threshold = math.log(inner / (2.0 * s2s)) / (-omega**2 / (2.0 * ell))
    return math.sqrt(threshold) * (1.0 + 1e-9) if threshold > 0 else 0.0
