"""Brute-force reference implementations used to cross-check the library.

Everything here is written with plain loops, dense numpy solves and
log-determinants, deliberately avoiding the library's cached and
Woodbury-factored code paths.
"""

import math

import numpy as np

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

