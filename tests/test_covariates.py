import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blocklasso as bl
from blocklasso.covariates import CovariateError
from blocklasso.graphs import _dyads

from helpers import graph_from_weights


def attrs_graph(values: dict, n=None):
    n = n if n is not None else len(next(iter(values.values())))
    graph = graph_from_weights(np.zeros((n, n), dtype=int))
    attrs = bl.AttributeTable(graph.node_ids, {k: tuple(v) for k, v in values.items()})
    return graph, attrs


def dyad_value(table, name, i, j):
    i, j = sorted((i, j))
    first, second = _dyads(len(table.node_ids))
    k = np.flatnonzero((first == i) & (second == j))[0]
    return table.column(name)[k]


class TestPairDummies:
    def spec(self):
        return bl.CovariateSpec(kind="pair_dummies", attribute="gender", reference=("M", "M"))

    def test_reference_pair_all_zero(self):
        graph, attrs = attrs_graph({"gender": ["M", "M", "F"]})
        table = bl.build_dyad_table(graph, attrs, [self.spec()])
        assert table.covariate_names == ("gender:F-F", "gender:F-M")
        assert dyad_value(table, "gender:F-F", 0, 1) == 0.0
        assert dyad_value(table, "gender:F-M", 0, 1) == 0.0

    def test_mixed_and_same_pairs(self):
        graph, attrs = attrs_graph({"gender": ["F", "M", "F"]})
        table = bl.build_dyad_table(graph, attrs, [self.spec()])
        assert dyad_value(table, "gender:F-M", 0, 1) == 1.0
        assert dyad_value(table, "gender:F-F", 0, 2) == 1.0
        assert dyad_value(table, "gender:F-M", 0, 2) == 0.0

    def test_bad_reference_rejected(self):
        graph, attrs = attrs_graph({"gender": ["F", "M", "F"]})
        spec = bl.CovariateSpec(kind="pair_dummies", attribute="gender", reference=("Q", "Q"))
        with pytest.raises(CovariateError, match="reference"):
            bl.build_dyad_table(graph, attrs, [spec])

    @settings(max_examples=30, deadline=None)
    @given(values=st.lists(st.sampled_from(["a", "b", "c"]), min_size=3, max_size=6))
    def test_dummy_completeness(self, values):
        # exactly one dummy is 1 unless the dyad is the reference pair
        graph, attrs = attrs_graph({"lv": values})
        levels = sorted(set(values))
        reference = (levels[0], levels[0])
        spec = bl.CovariateSpec(kind="pair_dummies", attribute="lv", reference=reference)
        table = bl.build_dyad_table(graph, attrs, [spec])
        for k, (i, j) in enumerate(zip(*_dyads(len(table.node_ids)))):
            pair = tuple(sorted((values[i], values[j])))
            row_sum = table.covariates[k].sum()
            assert row_sum == (0.0 if pair == reference else 1.0)


class TestOtherKinds:
    def test_equal_ages_give_zero(self):
        graph, attrs = attrs_graph({"age": ["40", "40", "52"]})
        spec = bl.CovariateSpec(kind="abs_difference", attribute="age")
        table = bl.build_dyad_table(graph, attrs, [spec])
        assert dyad_value(table, "absdiff:age", 0, 1) == 0.0
        assert dyad_value(table, "absdiff:age", 0, 2) == 12.0

    def test_same_value_indicator(self):
        graph, attrs = attrs_graph({"region": ["Lazio", "Lazio", "Veneto"]})
        spec = bl.CovariateSpec(kind="same_value", attribute="region")
        table = bl.build_dyad_table(graph, attrs, [spec])
        assert dyad_value(table, "same:region", 0, 1) == 1.0
        assert dyad_value(table, "same:region", 0, 2) == 0.0

    def test_edge_table_passthrough(self, tmp_path):
        graph, attrs = attrs_graph({"x": ["1", "2", "3"]})
        path = tmp_path / "vals.csv"
        a, b, c = graph.node_ids
        path.write_text(f"{a},{b},2.5\n{c},{a},-1.0\n", encoding="utf-8")
        spec = bl.CovariateSpec(kind="edge_table", path=str(path), name="affinity")
        table = bl.build_dyad_table(graph, attrs, [spec])
        assert dyad_value(table, "affinity", 0, 1) == 2.5
        assert dyad_value(table, "affinity", 0, 2) == -1.0
        assert dyad_value(table, "affinity", 1, 2) == 0.0

    def test_edge_table_short_row_reports_column_count(self, tmp_path):
        graph, attrs = attrs_graph({"x": ["1", "2", "3"]})
        path = tmp_path / "vals.csv"
        a, b, c = graph.node_ids
        path.write_text(f"{a},{b},2.5\n{c},{a}\n", encoding="utf-8")
        spec = bl.CovariateSpec(kind="edge_table", path=str(path), name="affinity")
        with pytest.raises(CovariateError, match="line 2: expected 3 columns, got 2"):
            bl.build_dyad_table(graph, attrs, [spec])

    def test_edge_table_byte_order_mark_ignored(self, tmp_path):
        graph, attrs = attrs_graph({"x": ["1", "2", "3"]})
        path = tmp_path / "vals.csv"
        a, b, _ = graph.node_ids
        path.write_text(f"\ufeff{a},{b},2.5\n", encoding="utf-8")
        spec = bl.CovariateSpec(kind="edge_table", path=str(path), name="affinity")
        table = bl.build_dyad_table(graph, attrs, [spec])
        assert dyad_value(table, "affinity", 0, 1) == 2.5

    def test_missing_attribute_names_node(self):
        graph, attrs = attrs_graph({"age": ["40", "", "52"]})
        spec = bl.CovariateSpec(kind="abs_difference", attribute="age")
        with pytest.raises(CovariateError, match="missing attribute"):
            bl.build_dyad_table(graph, attrs, [spec])

    def test_non_numeric_age_names_node(self):
        graph, attrs = attrs_graph({"age": ["40", "old", "52"]})
        spec = bl.CovariateSpec(kind="abs_difference", attribute="age")
        with pytest.raises(CovariateError, match="not numeric"):
            bl.build_dyad_table(graph, attrs, [spec])

    @settings(max_examples=30, deadline=None)
    @given(values=st.lists(st.integers(min_value=20, max_value=70), min_size=3, max_size=6))
    def test_symmetry_in_endpoints(self, values):
        graph, attrs = attrs_graph({"age": [str(v) for v in values]})
        spec = bl.CovariateSpec(kind="abs_difference", attribute="age")
        table = bl.build_dyad_table(graph, attrs, [spec])
        for k, (i, j) in enumerate(zip(*_dyads(len(table.node_ids)))):
            assert table.covariates[k, 0] == abs(values[j] - values[i])
            assert table.covariates[k, 0] == abs(values[i] - values[j])


class TestDyadTable:
    def test_lexicographic_dyad_order(self):
        graph = graph_from_weights(np.zeros((4, 4), dtype=int))
        table = bl.build_dyad_table(graph)
        iu, ju = np.triu_indices(4, k=1)
        assert np.array_equal(np.column_stack(_dyads(len(table.node_ids))),
                              np.column_stack([iu, ju]))

    def test_response_matches_weights(self):
        w = np.array([[0, 3, 0], [3, 0, 1], [0, 1, 0]])
        graph = graph_from_weights(w)
        table = bl.build_dyad_table(graph)
        assert list(table.response) == [3, 0, 1]

    def test_non_finite_covariates_rejected(self):
        graph = graph_from_weights(np.zeros((3, 3), dtype=int))
        with pytest.raises(ValueError, match="finite"):
            bl.DyadTable(graph.node_ids, np.zeros(3), np.array([[np.inf], [0.0], [0.0]]), ("x",))

    @pytest.mark.parametrize("response", [[1], [0, 1, 0, 1], [[0, 1], [1, 0]]],
                             ids=["short", "long", "matrix"])
    def test_response_must_cover_every_dyad(self, response):
        with pytest.raises(ValueError, match="response must have length 3"):
            bl.DyadTable(("a", "b", "c"), np.array(response), np.empty((3, 0)), ())

    def test_dyads_shape_checked_and_empty_table_accepted(self):
        with pytest.raises(ValueError, match="shape"):
            bl.DyadTable(("a", "b"), np.zeros(2), np.empty((1, 0)), ())
        table = bl.DyadTable(("a",), np.zeros(0), np.empty((0, 0)), ())
        assert table.dyad_count == 0
        assert np.column_stack(_dyads(len(table.node_ids))).shape == (0, 2)


class TestStandardize:
    def test_zero_spread_rejected(self):
        graph = graph_from_weights(np.zeros((3, 3), dtype=int))
        attrs = bl.AttributeTable(graph.node_ids, {"k": ("c", "c", "c")})
        spec = bl.CovariateSpec(kind="same_value", attribute="k")
        table = bl.build_dyad_table(graph, attrs, [spec])
        with pytest.raises(CovariateError, match="zero spread"):
            bl.standardize(table, ["same:k"])

    def test_two_valued_column_becomes_symmetric_unit_sd(self):
        # a column taking values {0, 2} standardizes to {-x, +x} with sample sd 1
        column = np.array([0.0, 2.0, 0.0, 2.0, 0.0, 2.0])
        table = bl.DyadTable(
            ("a", "b", "c", "d"), np.zeros(6), column[:, None], ("x",))
        rescaled, record = bl.standardize(table, ["x"])
        values = set(np.round(rescaled.column("x"), 12))
        assert len(values) == 2
        assert values == {-max(values), max(values)}
        assert record.means["x"] == pytest.approx(1.0)
        assert np.std(rescaled.column("x"), ddof=1) == pytest.approx(1.0)
        assert record.sds["x"] == pytest.approx(np.std(column, ddof=1))

    def test_round_trip_coefficients_match_raw_fit(self):
        # fit the same Poisson model on raw and standardized covariates;
        # back-transforming the standardized coefficients recovers the raw ones
        from helpers import poisson_instance

        _, table, partition, _ = poisson_instance(42, n=10, p=2, n_covariates=2)
        spec = bl.ModelSpec.covariate_adjusted(table.covariate_names)
        raw_fit = bl.fit_mle(bl.encode(table, partition, spec), table.response)
        rescaled, record = bl.standardize(table, list(table.covariate_names))
        std_fit = bl.fit_mle(bl.encode(rescaled, partition, spec), rescaled.response)
        assert raw_fit.converged and std_fit.converged
        # the record's map back: a coefficient c on (x - mean) / sd is c / sd
        # on x, and the intercept absorbs -c * mean / sd
        recovered = std_fit.coefficients.copy()
        for name, sd in record.sds.items():
            k = std_fit.column_names.index(name)
            recovered[k] /= sd
            recovered[0] -= recovered[k] * record.means[name]
        assert std_fit.column_names[0] == "intercept"
        assert np.abs(recovered - raw_fit.coefficients).max() < 1e-8
