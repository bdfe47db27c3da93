"""Plain-text (INI) configuration: hyperparameters, experiments, sweeps.

Hyperparameters serialize to a ``[hyperparams]`` section; experiment
descriptions add ``[experiment]``, ``[split]`` and either ``[data]`` (CSV +
schema paths) or ``[synthetic]`` (generator settings).  Fitted results are
written back in the same hyperparameter format, so a fit output can be fed
straight into a later run.  Every file is read and written as UTF-8 (a
leading byte order mark is skipped).  INI keys are case-sensitive, read as
written (``Seed`` is not ``seed``, and ``transform.Cd`` names the column
``Cd``), and values are literal: ``%`` interpolates nothing.  There is no
``[DEFAULT]`` section: every key lives in its own.  A config that cannot
be read, or is not UTF-8, raises :class:`ConfigError` naming the file; a
value that does not parse raises one naming the file and the
``section.key``; a value that parses but that a constructor rejects raises
one naming the file and the section.

Each input rule is stated once, here: ``read_ini`` requires the loader's
section, ``_getter`` refuses a key that the loader does not read in a
section that it reads (``[experiment] name`` is a free-text label),
``__post_init__`` each value, ``check_split`` the held-out count
(``data.split_test`` applies it too), ``GeneratorSpec.check_drawable`` what
``generate_synthetic`` can draw, ``ExperimentConfig.check_pool`` the pool.
A budget within its pool is the selectors' own rule,
``selector.check_budget``, which ``check_pool`` and the verify sweep call.
"""

import configparser
import math
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import ConfigError
from .hyperlearn import FIT_BUDGET
from .kernels import Hyperparams
from .selector import check_budget
from .verify import ENUMERATION_GUARD, INSTANCE_INDUCING

__all__ = [
    "load_hyperparams", "save_hyperparams", "hyperparams_from_section",
    "GeneratorSpec", "ExperimentConfig", "VerifySweepConfig", "load_experiment_config",
]

SINGLE_OUTPUT = ("s-var", "s-mi")
ALGORITHMS = ("m-greedy", "m-var", *SINGLE_OUTPUT)
# most tuples a synthetic draw factors as one dense joint covariance
SYNTHETIC_TUPLE_GUARD = 2000


def _floats(text):
    return [float(v) for v in text.replace(",", " ").split()]


def _ints(text):
    return tuple(int(v) for v in text.replace(",", " ").split())


def _names(text):
    return tuple(v.strip() for v in text.split(",") if v.strip())


def read_utf8(path):
    """The UTF-8 text of the file at ``path``, less a leading byte order
    mark; an unreadable file, or one that is not UTF-8, is a ConfigError
    naming it."""
    try:
        return Path(path).read_bytes().decode("utf-8").removeprefix("\ufeff")
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def read_ini(path, section):
    """Parse an INI file that holds ``[section]``, the section its loader
    reads; an unreadable or malformed file, one without that section or one
    with ``[DEFAULT]`` keys is a one-line ConfigError naming the file."""
    parser = configparser.ConfigParser(interpolation=None,
                                       converters=dict(ints=_ints, floats=_floats, names=_names))
    parser.optionxform = str  # keys as written: a schema's columns keep their case
    try:
        parser.read_string(read_utf8(path), source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {' '.join(str(exc).split())}") from None
    if section not in parser:
        raise ConfigError(f"{path}: missing [{section}] section")
    if parser.defaults():
        raise ConfigError(f"{path}: [DEFAULT] is not read; put each key in its own section")
    return parser


def check_split(test_count, measured, target_type):
    """Refuse to hold out ``test_count`` of the ``measured`` measurements
    of ``target_type``: a split holds out at least one, and not all."""
    if not 1 <= test_count < measured:
        raise ConfigError(f"split.test_count: {test_count} must be below the {measured} "
                          f"measurements of target type {target_type} and at least 1")


def _getter(path, parser):
    """``get(section, key, default, kind, required)``: the value that
    ``parser.get<kind>`` reads, or ``default`` when absent; a value that does
    not parse, or a ``required`` one that is absent, is a ConfigError naming
    the file and the ``section.key``.  ``check(*sections)`` refuses so a key
    of ``sections`` that ``get`` was never asked for: it would be ignored."""
    asked = set()

    def get(section, key, default=None, kind="", required=False):
        asked.add((section, key))
        try:
            value = getattr(parser, "get" + kind)(section, key, fallback=default)
        except ValueError as exc:
            raise ConfigError(f"{path}: {section}.{key}: {exc}") from None
        if value is None and required:
            raise ConfigError(f"{path}: {section}.{key}: missing")
        return value

    def check(*sections):
        for section in filter(parser.has_section, sections):
            for key in parser[section]:
                if (section, key) not in asked:
                    raise ConfigError(f"{path}: {section}.{key}: not read, so it would be ignored")
    return get, check


def _built(where, make, *args, **kwargs):
    """``make(*args, **kwargs)``, less the ``kwargs`` a file leaves unset (read as
    None) so that their defaults apply; a ConfigError becomes ``{where}: ...``,
    ``where`` naming the file and, for an INI file, the section or key."""
    try:
        return make(*args, **{k: v for k, v in kwargs.items() if v is not None})
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def hyperparams_from_section(path, parser) -> Hyperparams:
    """Hyperparameters from the ``[hyperparams]`` section of ``parser``, read
    from ``path``; a missing or unparsable value, or a ``dim`` other than the
    number of ``latent_prec_inv`` entries, is a ConfigError naming the file
    and the ``hyperparams.<key>``, and values that ``Hyperparams`` rejects
    are one naming the file and the section."""
    get, check = _getter(path, parser)
    n_types = get("hyperparams", "types", kind="int", required=True)
    signal = get("hyperparams", "signal_var", kind="floats", required=True)
    noise = get("hyperparams", "noise_var", kind="floats", required=True)
    latent = get("hyperparams", "latent_prec_inv", kind="floats", required=True)
    dim = get("hyperparams", "dim", len(latent), "int")
    if dim != len(latent):
        raise ConfigError(f"{path}: hyperparams.dim: {dim}, but latent_prec_inv has {len(latent)}")
    target = get("hyperparams", "target_types", kind="int")
    smooth = [get("hyperparams", f"smooth_prec_inv.{i}", kind="floats", required=True)
              for i in range(n_types)]
    check("hyperparams")
    return _built(f"{path}: hyperparams", Hyperparams, signal_var=signal, noise_var=noise,
                  latent_prec_inv=latent, smooth_prec_inv=smooth, target_type=target)


def load_hyperparams(path) -> Hyperparams:
    return hyperparams_from_section(path, read_ini(path, "hyperparams"))


def save_hyperparams(h: Hyperparams, path, extras=None):
    """Write hyperparameters (and optional extra records, e.g. fit metadata)
    in the format ``load_hyperparams`` reads."""
    parser = configparser.ConfigParser()
    parser["hyperparams"] = {
        "types": str(h.n_types),
        "dim": str(h.dim),
        "target_types": str(h.target_type),
        "signal_var": ", ".join(repr(float(v)) for v in h.signal_var),
        "noise_var": ", ".join(repr(float(v)) for v in h.noise_var),
        "latent_prec_inv": ", ".join(repr(float(v)) for v in h.latent_prec_inv),
    }
    for i in range(h.n_types):
        parser["hyperparams"][f"smooth_prec_inv.{i}"] = ", ".join(
            repr(float(v)) for v in h.smooth_prec_inv[i]
        )
    if extras:
        parser["fit"] = {k: str(v) for k, v in extras.items()}
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)


@dataclass(frozen=True)
class GeneratorSpec:
    """Synthetic dataset layout; measurement types and the coordinate
    dimension come from the attached hyperparameters."""

    n_locations: int
    extent: float = 10.0
    layout: str = "grid"

    def __post_init__(self):
        if self.layout not in ("grid", "uniform"):
            raise ConfigError(f"unknown layout {self.layout!r}")
        if not isinstance(self.n_locations, int) or self.n_locations < 2:
            raise ConfigError(f"n_locations must be at least 2, got {self.n_locations!r}")
        if not (math.isfinite(self.extent) and self.extent > 0):
            raise ConfigError(f"extent must be finite and positive, got {self.extent!r}")

    def check_drawable(self, h: Hyperparams):
        """Refuse a layout that cannot be drawn under ``h``: a grid is
        one-dimensional, and a draw factors at most ``SYNTHETIC_TUPLE_GUARD``
        tuples as one dense joint covariance."""
        if self.layout == "grid" and h.dim != 1:
            raise ConfigError(f"synthetic.layout: grid layout is one-dimensional, but the "
                              f"hyperparameters are {h.dim}-dimensional; use layout=uniform")
        total = self.n_locations * h.n_types
        if total > SYNTHETIC_TUPLE_GUARD:
            raise ConfigError(f"synthetic.n_locations: {self.n_locations} locations of "
                              f"{h.n_types} types are {total} tuples, over the "
                              f"{SYNTHETIC_TUPLE_GUARD} sampling guard")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a reproducible experiment run needs; an INI file that
    leaves a key out gets the field's default."""

    hyperparams: Hyperparams
    seed: int = 0
    repeats: int = 1
    algorithms: tuple = ("m-greedy",)
    checkpoints: tuple = (5,)
    inducing_count: int = 10
    test_count: int = 10
    output_dir: str = "results"
    svar_mode: str = "shared"
    fit: bool = False
    fit_budget: int = FIT_BUDGET
    dataset_path: str = None
    schema_path: str = None
    synthetic: GeneratorSpec = None

    def __post_init__(self):
        if not self.algorithms:
            raise ConfigError("at least one algorithm is required")
        for k, a in enumerate(self.algorithms):
            if a not in ALGORITHMS:
                raise ConfigError(f"unknown algorithm {a!r}; choose from {ALGORITHMS}")
            if a in self.algorithms[:k]:
                raise ConfigError(f"algorithms lists {a!r} twice")
        if not self.checkpoints:
            raise ConfigError("at least one budget checkpoint is required")
        if any(b <= a for a, b in zip(self.checkpoints, self.checkpoints[1:])):
            raise ConfigError("checkpoints must be strictly increasing")
        if self.checkpoints[0] < 1:
            raise ConfigError("checkpoints must be positive")
        if self.svar_mode not in ("shared", "refit"):
            raise ConfigError("svar_mode must be 'shared' or 'refit'")
        if (self.dataset_path is None) == (self.synthetic is None):
            raise ConfigError("configure exactly one of [data] and [synthetic]")
        if (self.dataset_path is None) != (self.schema_path is None):
            raise ConfigError("[data] needs both dataset and schema")
        if min(self.repeats, self.inducing_count, self.test_count) < 1:
            raise ConfigError("repeats, inducing_count and test_count must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.fit_budget < 1:
            raise ConfigError(f"fit_budget must be at least 1, got {self.fit_budget}")

    def check_pool(self, pool, target_pool, locations):
        """Reject a last checkpoint beyond the pool of an algorithm the run
        lists (``pool`` candidates, or the ``target_pool`` candidates of the
        target type for the single-output baselines), or more inducing
        points than the pool's ``locations`` distinct locations.  Every
        algorithm picks up to the last checkpoint."""
        for algorithm in self.algorithms:
            size, what = ((target_pool, f"{algorithm} target candidate pool")
                          if algorithm in SINGLE_OUTPUT else (pool, "candidate pool"))
            _built("experiment.checkpoints", check_budget, self.checkpoints[-1], size, what)
        if self.inducing_count > locations:
            raise ConfigError(f"experiment.inducing_count: {self.inducing_count} "
                              f"inducing locations from {locations} distinct locations")


@dataclass(frozen=True)
class VerifySweepConfig:
    """A seeded sweep of ``random_instance`` certificates; a shape whose
    instances cannot be built, or whose optimum is beyond the enumeration
    guard, is rejected here rather than mid-sweep."""

    instances: int = 50
    budget: int = 3
    seed: int = 0
    pool_shape: tuple = (6, 6)
    output_dir: str = "results"

    def __post_init__(self):
        if min(self.instances, self.budget, min(self.pool_shape, default=0)) < 1:
            raise ConfigError("a verification sweep needs instances, budget and a "
                              f"pool_shape of at least 1, got pool_shape {self.pool_shape!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        pool = sum(self.pool_shape)
        if pool < INSTANCE_INDUCING:
            raise ConfigError(f"pool_shape {self.pool_shape!r} holds {pool} candidates, "
                              f"fewer than the {INSTANCE_INDUCING} inducing points of an instance")
        check_budget(self.budget, pool)
        if math.comb(pool, self.budget) > ENUMERATION_GUARD:
            raise ConfigError(f"C({pool}, {self.budget}) = {math.comb(pool, self.budget)} "
                              f"subsets exceeds the {ENUMERATION_GUARD} enumeration guard")


def _check_drawable(path, config):
    """Reject, naming ``path``, a ``[synthetic]`` layout that
    ``generate_synthetic`` cannot draw under the hyperparameters, a count
    its split cannot hold out, or a pool that ``check_pool`` rejects."""
    spec, h, test_count = config.synthetic, config.hyperparams, config.test_count
    target = spec.n_locations - test_count  # a one-type draw loses the held-out locations
    try:
        spec.check_drawable(h)
        check_split(test_count, spec.n_locations, h.target_type)
        config.check_pool(spec.n_locations * h.n_types - test_count, target,
                          spec.n_locations if h.n_types > 1 else target)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def load_experiment_config(path) -> ExperimentConfig:
    parser = read_ini(path, "experiment")
    get, check = _getter(path, parser)
    get("experiment", "name")  # a free-text label

    if "hyperparams" in parser:
        h = hyperparams_from_section(path, parser)
    elif get("experiment", "hyperparams_file"):
        h = load_hyperparams(get("experiment", "hyperparams_file"))
    else:
        raise ConfigError(
            f"{path}: provide a [hyperparams] section or hyperparams_file"
        )

    target = get("split", "target_types", kind="int")
    if target is not None:
        h = _built(f"{path}: split.target_types", replace, h, target_type=target)

    synthetic = None
    if "synthetic" in parser:
        synthetic = _built(
            f"{path}: synthetic", GeneratorSpec,
            n_locations=get("synthetic", "n_locations", kind="int", required=True),
            extent=get("synthetic", "extent", kind="float"),
            layout=get("synthetic", "layout"),
        )

    config = _built(
        f"{path}: experiment", ExperimentConfig,
        seed=get("experiment", "seed", kind="int"),
        repeats=get("experiment", "repeats", kind="int"),
        algorithms=get("experiment", "algorithms", kind="names"),
        checkpoints=get("experiment", "checkpoints", kind="ints"),
        inducing_count=get("experiment", "inducing_count", kind="int"),
        test_count=get("split", "test_count", kind="int"),
        hyperparams=h,
        output_dir=get("experiment", "output_dir"),
        svar_mode=get("experiment", "svar_mode"),
        fit=get("experiment", "fit", kind="boolean"),
        fit_budget=get("experiment", "fit_budget", kind="int"),
        dataset_path=get("data", "dataset"),
        schema_path=get("data", "schema"),
        synthetic=synthetic,
    )
    check("experiment", "split", "data", "synthetic")
    if synthetic is not None:
        _check_drawable(path, config)
    return config


def load_verify_config(path) -> VerifySweepConfig:
    get, check = _getter(path, read_ini(path, "verify"))
    config = _built(
        f"{path}: verify", VerifySweepConfig,
        instances=get("verify", "instances", kind="int"),
        budget=get("verify", "budget", kind="int"),
        seed=get("verify", "seed", kind="int"),
        pool_shape=get("verify", "pool_shape", kind="ints"),
        output_dir=get("verify", "output_dir"),
    )
    check("verify")
    return config
