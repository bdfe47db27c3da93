"""Dataset ingestion, normalization, splitting, and the error metric.

Datasets are UTF-8 CSV files whose header lists the coordinate columns
first and then one column per measurement type; empty cells mean the type
was not measured at that location.  A loaded :class:`Dataset` is that table:
one row per location, one column per type, NaN where a cell is blank.  A
small key=value schema file declares which columns are coordinates, which
are types, and any per-type transform (identity or log10).

The rules on a file's own contents live here, and a CSV error names the
physical line its record starts on; the count range of ``split_test`` is
``config.check_split``, and whether a dataset fits a run (``normalize``'s
rule included) is ``experiment.load_experiment_dataset``'s check.
"""

import csv
import io
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .config import _built, _getter, check_split, read_ini, read_utf8
from .errors import ConfigError, DomainError
from .kernels import TypedLocation

__all__ = [
    "Schema", "Dataset", "SplitResult", "load_schema",
    "load_dataset", "save_dataset", "normalize", "denormalize",
    "split_test", "rmse",
]

TRANSFORMS = ("identity", "log10")


@dataclass(frozen=True)
class Schema:
    coord_columns: tuple
    type_columns: tuple
    transforms: dict = field(default_factory=dict)

    def __post_init__(self):
        names = (*self.coord_columns, *self.type_columns)
        for k, name in enumerate(names):
            if name in names[:k]:
                raise ConfigError(f"column {name!r} is named twice")
        for col, tf in self.transforms.items():
            if col not in self.type_columns:
                raise ConfigError(f"transform declared for unknown column {col!r}")
            if tf not in TRANSFORMS:
                raise ConfigError(f"unknown transform {tf!r} for column {col!r}")

    def transform_of(self, col):
        return self.transforms.get(col, "identity")


def load_schema(path) -> Schema:
    parser = read_ini(path, "schema")
    get, check = _getter(path, parser)
    coords, types = get("schema", "coords", kind="names"), get("schema", "types", kind="names")
    if not coords or not types:
        raise ConfigError(f"{path}: schema must declare coords and types")
    transforms = {key[len("transform."):]: get("schema", key).strip()
                  for key in parser["schema"] if key.startswith("transform.")}
    check("schema")
    return _built(f"{path}: schema", Schema, coord_columns=coords, type_columns=types,
                  transforms=transforms)


@dataclass(frozen=True)
class Dataset:
    """Sparse multi-type spatial measurements: a read-only table.

    ``values`` has one row per location of ``coords`` and one column per
    type, each cell the measured value, already transformed as the schema
    declares (the transforms are not kept); NaN marks an unmeasured pair.
    """

    coords: np.ndarray
    type_names: tuple
    values: np.ndarray

    def __post_init__(self):
        coords = np.atleast_2d(np.asarray(self.coords, dtype=float))
        values = np.asarray(self.values, dtype=float)
        for name, array in (("coords", coords), ("values", values)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        if values.shape != (coords.shape[0], len(self.type_names)):
            raise ConfigError(f"values of shape {values.shape} for {coords.shape[0]} "
                              f"locations of {len(self.type_names)} types")
        for name, seen in zip(self.type_names, (~np.isnan(values)).any(axis=0)):
            if not seen:
                raise ConfigError(f"type {name!r} has no measurements")

    @property
    def n_locations(self):
        return self.coords.shape[0]

    @property
    def n_types(self):
        return len(self.type_names)

    def tuple_at(self, loc_index, type_index) -> TypedLocation:
        return TypedLocation(tuple(float(c) for c in self.coords[loc_index]), int(type_index))

    def measured(self, type_index):
        """Ascending location indices measured for one type, and their
        values; none for a type the dataset lacks."""
        column = self.values[:, type_index] if 0 <= type_index < self.n_types else np.empty(0)
        idx = np.flatnonzero(~np.isnan(column))
        return idx, column[idx]


def _apply_transform(raw, transform, where):
    if transform == "identity":
        return raw
    if raw <= 0:
        raise DomainError(f"{where}: log10 transform needs a positive value, got {raw}")
    return math.log10(raw)


def _finite(cell, where, what):
    """``float(cell)``; a cell that does not parse, or parses to nan or inf,
    is a ConfigError naming ``where``."""
    try:
        value = float(cell)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ConfigError(f"{where}: {what}: {cell.strip()!r} is not a finite number")
    return value


def load_dataset(path, schema: Schema) -> Dataset:
    """Parse and validate a CSV dataset, applying declared transforms.

    Malformed rows raise with the number of the physical line they start on
    (a quoted cell may span lines): a row the CSV reader refuses (a cell
    over its field size limit), a cell that is not a finite number, or a row
    that measures a type at coordinates an earlier row measured it at (both
    lines are named).  Missing cells simply leave the
    (location, type) pair unmeasured.  A file that cannot be read or is not
    UTF-8, or a type with no measurements, is a :class:`ConfigError` naming
    the file.
    """
    reader = csv.reader(io.StringIO(read_utf8(path), newline=""))
    rows, line_no = [], 1  # each record with the line it starts on
    try:
        for row in reader:
            rows.append((line_no, row))
            line_no = reader.line_num + 1
    except csv.Error as exc:
        raise ConfigError(f"{path}:{reader.line_num}: {exc}") from None
    if not rows:
        raise ConfigError(f"{path}: empty file")
    header = [c.strip() for c in rows[0][1]]
    expected = list(schema.coord_columns) + list(schema.type_columns)
    if header != expected:
        raise ConfigError(f"{path}: header {header} does not match schema columns {expected}")
    d = len(schema.coord_columns)
    coords, values, first_line = [], [], {}
    for line_no, row in rows[1:]:
        if not row or all(not cell.strip() for cell in row):
            continue
        where = f"{path}:{line_no}"
        if len(row) != len(expected):
            raise ConfigError(f"{where}: expected {len(expected)} cells, got {len(row)}")
        loc = tuple(_finite(c, where, "coordinate") for c in row[:d])
        coords.append(loc)
        values.append([math.nan] * len(schema.type_columns))
        for ti, col in enumerate(schema.type_columns):
            cell = row[d + ti].strip()
            if not cell:
                continue
            raw = _finite(cell, where, f"column {col!r}")
            if (loc, ti) in first_line:
                raise ConfigError(f"{where}: column {col!r} at {list(loc)} was already "
                                  f"measured on line {first_line[loc, ti]}")
            first_line[loc, ti] = line_no
            values[-1][ti] = _apply_transform(raw, schema.transform_of(col), where)
    if not coords:
        raise ConfigError(f"{path}: no data rows")
    return _built(path, Dataset, coords=coords, type_names=tuple(schema.type_columns),
                  values=values)


def save_dataset(ds: Dataset, path):
    """Write the canonical CSV form (used for round-trips and synthesis):
    coordinate columns ``x0, x1, ...``, then one column per type.

    Values are written as repr floats post-transform; reloading with an
    identity-transform schema reproduces the dataset exactly.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{v}" for v in range(ds.coords.shape[1])] + list(ds.type_names))
        for loc, row in zip(ds.coords, ds.values):
            writer.writerow([repr(float(c)) for c in loc]
                            + ["" if math.isnan(v) else repr(float(v)) for v in row])


def normalize(ds: Dataset):
    """Zero-mean unit-variance scaling per type over measured values.

    Returns the scaled dataset and per-type ``(mean, std)`` statistics for
    later de-normalization of predictions.
    """
    stats = []
    for ti in range(ds.n_types):
        _, vals = ds.measured(ti)
        mean, std = float(np.mean(vals)), float(np.std(vals))
        if std == 0.0:
            raise DomainError(f"type {ds.type_names[ti]!r} is constant, cannot normalize")
        stats.append((mean, std))
    mean, std = np.array(stats).T
    return replace(ds, values=(ds.values - mean) / std), stats


def denormalize(values, stats_entry):
    mean, std = stats_entry
    return np.asarray(values, dtype=float) * std + mean


@dataclass(frozen=True)
class SplitResult:
    pool_tuples: list
    pool_values: np.ndarray
    test_tuples: list
    test_values: np.ndarray


def split_test(ds: Dataset, target_type, test_count, seed) -> SplitResult:
    """Remove ``test_count`` seeded-uniform tuples of ``target_type`` from
    the pool; auxiliary pools are untouched.  The candidate pool and the
    test set are disjoint.  A count outside ``config.check_split``'s range
    of the type's measurements (none for a type ``ds`` lacks) is a
    ConfigError.
    """
    idx, vals = ds.measured(target_type)
    check_split(test_count, idx.size, target_type)
    pick = np.sort(np.random.default_rng(seed).choice(idx.size, size=test_count, replace=False))
    # the pool is type-major: each type's measured cells by ascending location
    pool = ~np.isnan(ds.values.T)
    pool[target_type, idx[pick]] = False
    return SplitResult(
        pool_tuples=[ds.tuple_at(li, ti) for ti, li in zip(*np.nonzero(pool))],
        pool_values=ds.values.T[pool],
        test_tuples=[ds.tuple_at(li, target_type) for li in idx[pick]],
        test_values=vals[pick],
    )


def rmse(predictions, truths):
    """Root mean squared prediction error."""
    predictions = np.asarray(predictions, dtype=float).ravel()
    truths = np.asarray(truths, dtype=float).ravel()
    if predictions.shape != truths.shape or predictions.size == 0:
        raise DomainError(
            f"need equal nonempty vectors, got {predictions.shape} and {truths.shape}"
        )
    return float(np.sqrt(np.mean((predictions - truths) ** 2)))
