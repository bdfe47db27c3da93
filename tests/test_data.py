import math

import numpy as np
import pytest

from mogpal import ConfigError, DomainError
from mogpal.data import (
    Dataset,
    Schema,
    denormalize,
    load_dataset,
    load_schema,
    normalize,
    rmse,
    save_dataset,
    split_test,
)

SCHEMA_TEXT = """[schema]
coords = x, y
types = lg-cd, ni, lg-zn
transform.lg-cd = log10
transform.lg-zn = log10
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


@pytest.fixture
def jura_like(tmp_path):
    """A synthetic file with the three-type layout: coords then per-type
    columns, log transforms on the first and third."""
    schema = load_schema(_write(tmp_path, "jura.schema", SCHEMA_TEXT))
    rng = np.random.default_rng(0)
    lines = ["x,y,lg-cd,ni,lg-zn"]
    for k in range(359):
        x, y = rng.uniform(0, 5, 2)
        cd = math.exp(rng.normal(0.2, 0.5))
        ni = rng.uniform(5, 40)
        zn = math.exp(rng.normal(3.5, 0.6))
        lines.append(f"{x},{y},{cd},{ni},{zn}")
    path = _write(tmp_path, "jura.csv", "\n".join(lines) + "\n")
    return path, schema


class TestDataset:
    @pytest.mark.parametrize("values", [[1.0, 2.0], [[1.0, 2.0], [3.0, 4.0]], [[1.0]]],
                             ids=["flat", "extra-type", "missing-location"])
    def test_wrong_shape_rejected(self, values):
        with pytest.raises(ConfigError, match="values of shape"):
            Dataset(coords=[[0.0], [1.0]], type_names=("a",), values=values)

    def test_values_are_read_only(self):
        ds = Dataset(coords=[[0.0], [1.0]], type_names=("a", "b"),
                     values=[[1.0, math.nan], [2.0, 3.0]])
        with pytest.raises(ValueError, match="read-only"):
            ds.values[0, 1] = 1.0


class TestSchema:
    def test_parse(self, tmp_path):
        schema = load_schema(_write(tmp_path, "s.schema", SCHEMA_TEXT))
        assert schema.coord_columns == ("x", "y")
        assert schema.type_columns == ("lg-cd", "ni", "lg-zn")
        assert schema.transform_of("lg-cd") == "log10"
        assert schema.transform_of("ni") == "identity"

    def test_rejects_unknown_transform(self):
        with pytest.raises(ConfigError):
            Schema(("x",), ("a",), {"a": "sqrt"})

    def test_rejects_transform_for_unknown_column(self):
        with pytest.raises(ConfigError):
            Schema(("x",), ("a",), {"b": "log10"})

    @pytest.mark.parametrize("coords, types", [(("x",), ("a", "a")), (("x",), ("x", "a")),
                                               (("x", "x"), ("a",))])
    def test_rejects_a_column_named_twice(self, coords, types):
        with pytest.raises(ConfigError, match="is named twice"):
            Schema(coords, types)


class TestLoadDataset:
    def test_two_rows_single_type(self, tmp_path):
        schema = load_schema(
            _write(tmp_path, "s.schema", "[schema]\ncoords = x\ntypes = a\n")
        )
        path = _write(tmp_path, "d.csv", "x,a\n0.0,1.5\n2.0,2.5\n")
        ds = load_dataset(path, schema)
        assert ds.n_locations == 2
        assert np.array_equal(ds.values, [[1.5], [2.5]])

    def test_unreadable_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="nope.csv: No such file"):
            load_dataset(tmp_path / "nope.csv", Schema(("x",), ("a",)))
        with pytest.raises(ConfigError, match="nope.schema: No such file"):
            load_schema(tmp_path / "nope.schema")

    def test_jura_like_shape(self, jura_like):
        path, schema = jura_like
        ds = load_dataset(path, schema)
        assert ds.n_locations == 359
        assert ds.n_types == 3
        # the declared transforms are applied to the values, cell by cell
        raw = [float(c) for c in path.read_text().splitlines()[1].split(",")[2:]]
        assert ds.values[(0, 0)] == math.log10(raw[0])
        assert ds.values[(0, 1)] == raw[1]
        assert ds.values[(0, 2)] == math.log10(raw[2])

    def test_missing_cells_stay_unmeasured(self, tmp_path):
        schema = load_schema(
            _write(tmp_path, "s.schema", "[schema]\ncoords = x\ntypes = a, b\n")
        )
        path = _write(tmp_path, "d.csv", "x,a,b\n0.0,1.5,\n1.0,,2.5\n")
        ds = load_dataset(path, schema)
        assert np.isnan(ds.values[0, 1])
        assert np.isnan(ds.values[1, 0])
        assert ds.values[1, 1] == 2.5

    def test_shared_coordinates_of_other_types_stay_valid(self, tmp_path):
        schema = load_schema(
            _write(tmp_path, "s.schema", "[schema]\ncoords = x\ntypes = a, b\n")
        )
        path = _write(tmp_path, "d.csv", "x,a,b\n0.0,1.5,\n0.0,,2.5\n")
        assert np.array_equal(load_dataset(path, schema).values,
                              [[1.5, math.nan], [math.nan, 2.5]], equal_nan=True)

    def test_capitalized_column_takes_its_transform(self, tmp_path):
        schema = load_schema(_write(tmp_path, "s.schema", "[schema]\ncoords = x\n"
                                    "types = Cd, Ni\ntransform.Cd = log10\n"))
        assert schema.transforms == {"Cd": "log10"}
        path = _write(tmp_path, "d.csv", "x,Cd,Ni\n0.0,1.5,20.0\n1.0,0.25,30.0\n")
        ds = load_dataset(path, schema)
        assert np.array_equal(ds.values[:, 0], [math.log10(1.5), math.log10(0.25)])
        assert np.array_equal(ds.values[:, 1], [20.0, 30.0])

    @pytest.mark.parametrize("text, message", [
        ("x,a\n0.0,1.5\noops,2.0\n", ":3: coordinate: 'oops' is not a finite number"),
        ("x,a\n-inf,1.5\n", ":2: coordinate: '-inf' is not a finite number"),
        ("x,a\n0.0,1.5\n1.0,nan\n", ":3: column 'a': 'nan' is not a finite number"),
        ("x,a\n0.0,1.5\n1.0,2.0\n0.0,2.5\n",
         ":4: column 'a' at [0.0] was already measured on line 2"),
    ], ids=["malformed", "inf-coordinate", "nan-value", "repeat"])
    def test_malformed_row_cites_line(self, tmp_path, text, message):
        schema = load_schema(
            _write(tmp_path, "s.schema", "[schema]\ncoords = x\ntypes = a\n")
        )
        path = _write(tmp_path, "d.csv", text)
        with pytest.raises(ConfigError) as info:
            load_dataset(path, schema)
        assert str(info.value) == f"{path}{message}"

    def test_blank_rows_are_skipped(self, tmp_path):
        # an empty line and a whitespace-only row load as if absent, and a
        # later bad row is still named by its physical line
        schema = load_schema(
            _write(tmp_path, "s.schema", "[schema]\ncoords = x\ntypes = a\n")
        )
        plain = load_dataset(_write(tmp_path, "plain.csv", "x,a\n0.0,1.5\n2.0,2.5\n"), schema)
        ds = load_dataset(_write(tmp_path, "d.csv", "x,a\n0.0,1.5\n\n  \n2.0,2.5\n"), schema)
        assert np.array_equal(ds.coords, plain.coords)
        assert np.array_equal(ds.values, plain.values)
        path = _write(tmp_path, "bad.csv", "x,a\n0.0,1.5\n\n  \n2.0,2.5\noops,1.0\n")
        with pytest.raises(ConfigError) as info:
            load_dataset(path, schema)
        assert str(info.value) == f"{path}:6: coordinate: 'oops' is not a finite number"

    def test_nonpositive_under_log_rejected(self, tmp_path):
        schema = load_schema(
            _write(
                tmp_path, "s.schema",
                "[schema]\ncoords = x\ntypes = a\ntransform.a = log10\n",
            )
        )
        path = _write(tmp_path, "d.csv", "x,a\n0.0,-3.0\n")
        with pytest.raises(DomainError, match=":2"):
            load_dataset(path, schema)

    def test_header_mismatch(self, tmp_path):
        schema = load_schema(
            _write(tmp_path, "s.schema", "[schema]\ncoords = x\ntypes = a\n")
        )
        path = _write(tmp_path, "d.csv", "x,b\n0.0,1.0\n")
        with pytest.raises(ConfigError):
            load_dataset(path, schema)

    def test_round_trip(self, tmp_path, jura_like):
        path, schema = jura_like
        ds = load_dataset(path, schema)
        out = tmp_path / "canon.csv"
        save_dataset(ds, out)
        coords = tuple(f"x{v}" for v in range(len(schema.coord_columns)))
        plain = Schema(coords, schema.type_columns, {})
        again = load_dataset(out, plain)
        assert np.array_equal(ds.coords, again.coords)
        assert np.array_equal(ds.values, again.values, equal_nan=True)


class TestNormalize:
    def test_zero_mean_unit_std(self, jura_like):
        path, schema = jura_like
        ds = load_dataset(path, schema)
        norm, stats = normalize(ds)
        for ti in range(norm.n_types):
            _, vals = norm.measured(ti)
            assert abs(float(np.mean(vals))) < 1e-12
            assert abs(float(np.std(vals)) - 1.0) < 1e-12

    def test_round_trip_denormalize(self, jura_like):
        path, schema = jura_like
        ds = load_dataset(path, schema)
        norm, stats = normalize(ds)
        for ti in range(ds.n_types):
            _, raw = ds.measured(ti)
            _, scaled = norm.measured(ti)
            np.testing.assert_allclose(denormalize(scaled, stats[ti]), raw, atol=1e-12)

    def test_constant_column_rejected(self):
        ds = Dataset(
            coords=[[0.0], [1.0]], type_names=("a",),
            values=[[2.0], [2.0]],
        )
        with pytest.raises(DomainError):
            normalize(ds)


class TestSplit:
    def test_counts_and_disjointness(self, jura_like):
        path, schema = jura_like
        ds, _ = normalize(load_dataset(path, schema))
        split = split_test(ds, 0, 100, 4)
        assert len(split.test_tuples) == 100
        target_pool = [t for t in split.pool_tuples if t.type_index == 0]
        assert len(target_pool) == 259
        assert not set(split.test_tuples) & set(split.pool_tuples)
        assert all(t.type_index == 0 for t in split.test_tuples)

    def test_auxiliary_untouched(self, jura_like):
        path, schema = jura_like
        ds, _ = normalize(load_dataset(path, schema))
        split = split_test(ds, 0, 50, 1)
        aux = [t for t in split.pool_tuples if t.type_index != 0]
        assert len(aux) == 2 * 359

    def test_seed_determinism(self, jura_like):
        path, schema = jura_like
        ds, _ = normalize(load_dataset(path, schema))
        a = split_test(ds, 0, 30, 9)
        b = split_test(ds, 0, 30, 9)
        assert a.test_tuples == b.test_tuples
        assert np.array_equal(a.pool_values, b.pool_values)

    def test_last_type_as_target_counts(self, jura_like):
        path, schema = jura_like
        ds, _ = normalize(load_dataset(path, schema))
        split = split_test(ds, 2, 40, 2)
        assert len(split.test_tuples) == 40
        assert all(t.type_index == 2 for t in split.test_tuples)
        pool_types = [t.type_index for t in split.pool_tuples]
        assert [pool_types.count(i) for i in range(3)] == [359, 359, 319]

    @pytest.mark.parametrize("target_type, test_count, measured", [
        (0, 359, 359), (0, 0, 359), (0, -1, 359), (3, 1, 0),
    ], ids=["all", "none", "negative", "absent-type"])
    def test_guard(self, jura_like, target_type, test_count, measured):
        path, schema = jura_like
        ds, _ = normalize(load_dataset(path, schema))
        with pytest.raises(ConfigError, match=f"split.test_count: {test_count} must be below "
                                              f"the {measured} measurements of target type "
                                              f"{target_type} and at least 1"):
            split_test(ds, target_type, test_count, 0)


class TestRmse:
    def test_exact_predictions(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_unit_residuals(self):
        assert rmse([1.0, 3.0, 0.0], [0.0, 2.0, 1.0]) == pytest.approx(1.0)

    def test_three_four(self):
        assert rmse([3.0, 0.0], [0.0, 4.0]) == pytest.approx(3.5355339059327378)

    def test_permutation_invariant(self, rng):
        pred = rng.normal(size=10)
        truth = rng.normal(size=10)
        perm = rng.permutation(10)
        assert rmse(pred, truth) == pytest.approx(rmse(pred[perm], truth[perm]))

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            rmse([1.0], [1.0, 2.0])
