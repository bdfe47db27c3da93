"""Brute-force oracles and empirical certificates for the greedy selector.

The greedy selection enjoys a constant-factor guarantee relative to the
exhaustive optimum, degraded by how far the objective is from submodular;
this module measures every quantity in that statement on concrete
instances: the exhaustive optimum and the worst conditional variance
reduction (the relaxation parameter), the latter from one gain-evaluator
pass: the unsampled target pool, then the selection added to it.

The exhaustive optimum walks the size-n subsets of pool positions as a
prefix tree: one gain sweep per prefix scores every one-step extension, so
a subset's value is its prefix's value plus its gains.  The tree stops two
picks short of the leaves: at each prefix of size n - 2, one gain sweep and
one pair sweep (``GainEvaluator.pair_gains``) over the F positions after
it score every last two picks, in O((m + |X|) F^2) with arrays of F x F at
most (F <= 1414 under the enumeration guard, so 16 MB an array).  Only
subsets whose telescoped value lies within ``selector.TIE_ATOL`` of the best
are rescored from scratch, which keeps the winner and its value those of a
full enumeration; the prefixes' gains are the evaluator's incremental ones.
"""

import math
from dataclasses import dataclass

import numpy as np

from .criterion import GainEvaluator, build_cache, criterion_F
from .errors import EnumerationGuardError, IllConditionedError
from .kernels import Hyperparams, as_tuple
from .linalg import SpdFactor
from .pitc import PitcModel, build_model, select_inducing
from .selector import TIE_ATOL, check_budget, select_greedy

__all__ = [
    "GuaranteeReport", "brute_force_optimum", "estimate_epsilon1",
    "check_guarantee", "random_instance",
]

ENUMERATION_GUARD = 10**6
# inducing points of every random_instance
INSTANCE_INDUCING = 3


# ---------------------------------------------------------------------------
# seeded instance family
# ---------------------------------------------------------------------------

def random_hyperparams(rng, n_types=2):
    """1-D hyperparameters targeting type 0, drawn from ranges that keep
    instances well behaved: noise above the entropy floor, moderate length
    scales."""
    return Hyperparams(
        signal_var=rng.uniform(0.5, 2.0, size=n_types),
        noise_var=rng.uniform(0.08, 0.35, size=n_types),
        latent_prec_inv=rng.uniform(0.05, 0.4, size=1),
        smooth_prec_inv=rng.uniform(0.02, 0.3, size=(n_types, 1)),
    )


def random_instance(seed, n_per_type=(4, 4)):
    """A seeded small model plus its criterion cache: ``n_per_type[i]``
    locations of type ``i`` drawn uniformly on [0, 1), type 0 the target,
    ``INSTANCE_INDUCING`` inducing points."""
    rng = np.random.default_rng(seed)
    n_types = len(n_per_type)
    h = random_hyperparams(rng, n_types=n_types)
    cands = {
        i: [as_tuple(rng.uniform(0, 1.0, size=1), i) for _ in range(n_per_type[i])]
        for i in range(n_types)
    }
    all_locs = np.array([t.location for tuples in cands.values() for t in tuples])
    inducing = select_inducing(all_locs, INSTANCE_INDUCING, seed=seed)
    model = build_model(h, inducing, cands)
    return model, build_cache(model)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def brute_force_optimum(model: PitcModel, cache: SpdFactor, n: int):
    """Exhaustive argmax of the objective over all size-n selections.

    Enumerates candidates in their deterministic (lexicographic) order, so
    exact ties resolve to the lexicographically smallest subset.  Refuses
    enumerations beyond 10^6 subsets.

    Subsets are grown level by level as a prefix tree: each prefix of size
    k < n - 2 costs one ``GainEvaluator`` state and one gain sweep, and each
    of its extensions by a later candidate is valued at the prefix's value
    plus that candidate's gain.  A prefix of size n - 2 costs one state, one
    gain sweep and one pair sweep over the F positions after its last,
    O((m + |X|) F^2) and F x F at most, and its extension by ``b < c`` is
    valued at the prefix's value plus the gain of ``b`` plus the gain of
    ``c`` after ``b``.  Every subset valued within ``TIE_ATOL`` of the best
    is rescored with :func:`criterion_F`, in enumeration order, and the
    first strictly best rescored value wins; so the subset and value
    returned are those of scoring every subset with :func:`criterion_F`
    whenever the telescoped values are within ``TIE_ATOL / 2`` of it.
    """
    cands = model.candidates.tuples
    check_budget(n, len(cands))
    total = math.comb(len(cands), n)
    if total > ENUMERATION_GUARD:
        raise EnumerationGuardError(
            f"C({len(cands)}, {n}) = {total} subsets exceeds the "
            f"{ENUMERATION_GUARD} enumeration guard"
        )
    if n == 0:
        return [], float(criterion_F(model, cache, []))
    evaluator = GainEvaluator(model, cache)
    prefixes = {(): 0.0}
    for k in range(n - 2):
        stop = len(cands) - n + k + 1  # leaves room for the picks after
        grown = {}
        for prefix, value in prefixes.items():
            first = prefix[-1] + 1 if prefix else 0
            gains = evaluator.set_state(prefix).gains()
            for j in range(first, stop):
                grown[prefix + (j,)] = value + gains[j]
        prefixes = grown
    # (prefix, first extension, values of the extensions by one pick, or by
    # two at [b, c], b < c, with -inf elsewhere)
    leaves = []
    for prefix, value in prefixes.items():
        first = prefix[-1] + 1 if prefix else 0
        gains = evaluator.set_state(prefix).gains()[first:]
        if n == 1:
            leaves.append((prefix, first, value + gains))
        else:
            values = value + gains[:, None] + evaluator.pair_gains(first)
            values[np.tri(len(gains), dtype=bool)] = -np.inf
            leaves.append((prefix, first, values))
    best = max(values.max() for _, _, values in leaves)
    best_subset, best_value = None, -np.inf
    for prefix, first, values in leaves:
        for offsets in np.argwhere(values >= best - TIE_ATOL):
            subset = [cands[i] for i in prefix + tuple(first + offsets)]
            value = criterion_F(model, cache, subset)
            if value > best_value:
                best_subset, best_value = subset, value
    return best_subset, float(best_value)


def estimate_epsilon1(model: PitcModel, cache: SpdFactor, x):
    """Worst extra variance reduction from the unexplored part of a selection.

    The relaxation parameter is the largest drop, over subsets ``Y`` of
    ``x`` and auxiliary candidates ``a`` outside ``x``, from
    ``var(a | Y + V_rest)`` to ``var(a | x + V_rest)``, with ``V_rest`` the
    unsampled target pool.  Conditioning on more never raises a Gaussian
    variance, so ``var(a | Y + V_rest)`` is largest at ``Y`` empty, and the
    maximum is ``max_a var(a | V_rest) - var(a | x + V_rest)``: one
    :class:`GainEvaluator` pass, conditioned on the unsampled target
    positions (the auxiliary variances are copied there) and then on ``x``,
    one ``add`` a pick.  Nonnegative; zero when no auxiliary candidate is left.
    """
    x = model.positions(x)
    picked = np.zeros(len(model.candidates), dtype=bool)
    picked[x] = True
    aux = model.aux_cols[~picked[model.aux_cols]]
    if not aux.size:
        return 0.0
    target = model.type_slices[model.h.target_type]
    fixed = target.start + np.flatnonzero(~picked[target])
    evaluator = GainEvaluator(model, cache).set_state(fixed)
    rest_var = evaluator.var_given_selected()[aux]
    for j in x:
        evaluator.add(j)
    return max(0.0, float(np.max(rest_var - evaluator.var_given_selected()[aux])))


@dataclass(frozen=True)
class GuaranteeReport:
    """All quantities of one near-optimality check, plus the verdict.

    ``bound`` is ``(1 - 1/e) (f_opt - budget * epsilon)`` and the check is
    satisfied (it passes) when the greedy value reaches it (within 1e-9);
    otherwise it fails.
    """

    instance: str
    budget: int
    f_greedy: float
    f_opt: float
    epsilon1_hat: float
    epsilon: float
    bound: float
    satisfied: bool

    def to_line(self):
        return (
            f"instance={self.instance} budget={self.budget} "
            f"f_greedy={self.f_greedy:.12g} f_opt={self.f_opt:.12g} "
            f"epsilon1_hat={self.epsilon1_hat:.12g} epsilon={self.epsilon:.12g} "
            f"bound={self.bound:.12g} satisfied={str(self.satisfied).lower()} "
            f"status={'pass' if self.satisfied else 'fail'}"
        )


def check_guarantee(model: PitcModel, cache: SpdFactor, n: int,
                    instance="adhoc") -> GuaranteeReport:
    """Run greedy and exhaustive selection and assemble the certificate.

    The relaxation parameter is exact (:func:`estimate_epsilon1`), so a
    report that is not satisfied is a violation of the guarantee.  Raises
    :class:`IllConditionedError` when greedy beats the exhaustive optimum
    by more than 1e-9: that cannot happen with sound numerics.
    """
    greedy = select_greedy(model, cache, n)
    f_greedy = criterion_F(model, cache, greedy.selected)
    _, f_opt = brute_force_optimum(model, cache, n)
    if f_greedy > f_opt + 1e-9:
        raise IllConditionedError(
            f"greedy value {f_greedy} exceeds exhaustive optimum {f_opt}"
        )
    eps1 = estimate_epsilon1(model, cache, greedy.selected)
    sig2n = float(np.min(model.h.noise_var))
    epsilon = 0.5 * math.log1p(eps1 / sig2n)
    bound = (1.0 - 1.0 / math.e) * (f_opt - n * epsilon)
    return GuaranteeReport(
        instance=instance, budget=n, f_greedy=f_greedy, f_opt=f_opt,
        epsilon1_hat=eps1, epsilon=epsilon, bound=bound,
        satisfied=f_greedy >= bound - 1e-9,
    )
