import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blocklasso as bl
from blocklasso.cli import main
from blocklasso.graphs import (AttributeTableError, EdgeListError, PartitionError, _dyad_index,
                               _dyads, _pair_key)

from helpers import edge_weight, graph_from_weights, one_block_partition


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadEdgeList:
    def test_binary_rows(self, tmp_path):
        path = write(tmp_path / "e.csv", "a,b\nb,c\n")
        graph = bl.load_edge_list(path, mode="binary")
        assert graph.node_ids == ("a", "b", "c")
        assert edge_weight(graph, "a", "b") == 1 and edge_weight(graph, "b", "c") == 1
        assert edge_weight(graph, "a", "c") == 0
        assert graph.edge_count == 2

    def test_weighted_duplicates_sum(self, tmp_path):
        path = write(tmp_path / "e.csv", "a,b,2\na,b,3\n")
        graph = bl.load_edge_list(path, mode="weighted")
        assert edge_weight(graph, "a", "b") == 5

    def test_binary_duplicates_or(self, tmp_path):
        path = write(tmp_path / "e.csv", "a,b\nb,a\na,b\n")
        graph = bl.load_edge_list(path, mode="binary")
        assert edge_weight(graph, "b", "a") == 1

    def test_self_loop_rejected_with_line(self, tmp_path):
        path = write(tmp_path / "e.csv", "a,b\nc,c\n")
        with pytest.raises(EdgeListError, match=r"line 2.*self-loop"):
            bl.load_edge_list(path, mode="binary")

    def test_negative_weight_rejected(self, tmp_path):
        path = write(tmp_path / "e.csv", "a,b,-1\n")
        with pytest.raises(EdgeListError, match="negative"):
            bl.load_edge_list(path, mode="weighted")

    @pytest.mark.parametrize("rows,line", [
        ("a,b,1\nv000,v033,99999999999999999999\n", 2),
        # two weights within int64 whose sum is not
        ("a,b,9223372036854775807\nb,a,1\n", 2),
    ], ids=["one_weight", "summed_duplicates"])
    def test_weight_beyond_int64_names_line(self, tmp_path, rows, line):
        path = write(tmp_path / "e.csv", rows)
        with pytest.raises(EdgeListError, match=rf"line {line}: weight .* past the largest weight"):
            bl.load_edge_list(path, mode="weighted")

    def test_largest_weight_accepted(self, tmp_path):
        path = write(tmp_path / "e.csv", "a,b,9223372036854775807\n")
        graph = bl.load_edge_list(path, mode="weighted")
        assert edge_weight(graph, "a", "b") == np.iinfo(np.int64).max

    def test_non_integer_weight_rejected(self, tmp_path):
        path = write(tmp_path / "e.csv", "a,b,1.5\n")
        with pytest.raises(EdgeListError, match="non-integer"):
            bl.load_edge_list(path, mode="weighted")

    def test_malformed_row_names_line_number(self, tmp_path):
        path = write(tmp_path / "e.csv", "a,b\na\n")
        with pytest.raises(EdgeListError, match="line 2"):
            bl.load_edge_list(path, mode="binary")

    def test_binary_mode_rejects_weight_column(self, tmp_path):
        path = write(tmp_path / "e.csv", "a,b,1\n")
        with pytest.raises(EdgeListError, match="expected 2 columns"):
            bl.load_edge_list(path, mode="binary")

    def test_weighted_mode_requires_weight_column(self, tmp_path):
        path = write(tmp_path / "e.csv", "a,b\n")
        with pytest.raises(EdgeListError, match="expected 3 columns"):
            bl.load_edge_list(path, mode="weighted")

    def test_tab_delimiter_autodetected(self, tmp_path):
        path = write(tmp_path / "e.tsv", "a\tb\nb\tc\n")
        graph = bl.load_edge_list(path, mode="binary")
        assert graph.node_count == 3

    def test_header_flag(self, tmp_path):
        path = write(tmp_path / "e.csv", "source,target\na,b\n")
        graph = bl.load_edge_list(path, mode="binary", has_header=True)
        assert graph.node_ids == ("a", "b")

    def test_extra_and_file_nodes_are_isolated(self, tmp_path):
        path = write(tmp_path / "e.csv", "a,b\n")
        nodes = write(tmp_path / "n.txt", "z\n\na\n")
        graph = bl.load_edge_list(path, mode="binary", extra_nodes=("q",), node_file=nodes)
        assert graph.node_ids == ("a", "b", "q", "z")
        assert sum(edge_weight(graph, "q", v) for v in "abz") == 0

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            bl.load_edge_list(tmp_path / "nope.csv")

    def test_byte_order_mark_ignored(self, tmp_path):
        # spreadsheet exports often start with a UTF-8 byte-order mark
        path = write(tmp_path / "e.csv", "\ufeffv00,v01\nv01,v02\n")
        graph = bl.load_edge_list(path, mode="binary")
        assert graph.node_ids == ("v00", "v01", "v02")

    def test_node_list_byte_order_mark_ignored(self, tmp_path):
        path = write(tmp_path / "n.txt", "\ufeffa\nb\n")
        assert bl.load_node_list(path) == ("a", "b")

    @settings(max_examples=25, deadline=None)
    @given(rows=st.permutations(["a,b", "b,c", "c,d", "a,d", "b,d"]), weighted=st.booleans())
    def test_row_order_invariance(self, tmp_path_factory, rows, weighted):
        tmp = tmp_path_factory.mktemp("perm")
        canonical = sorted(rows)
        if weighted:
            rows = [f"{r},2" for r in rows]
            canonical = [f"{r},2" for r in canonical]
        mode = "weighted" if weighted else "binary"
        permuted = bl.load_edge_list(write(tmp / "a.csv", "\n".join(rows) + "\n"), mode=mode)
        reference = bl.load_edge_list(write(tmp / "b.csv", "\n".join(canonical) + "\n"), mode=mode)
        assert permuted.node_ids == reference.node_ids
        assert np.array_equal(permuted.weights, reference.weights)


def reference_edge_list(text, weighted):
    """The edge list read line by line, as the loader did before it read
    columns: ``(node ids, weights)``, or the error text of the first
    faulty line in file order."""
    width, sep, accum = 3 if weighted else 2, None, {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        if not raw.strip():
            continue
        sep = sep or ("\t" if "\t" in raw else ",")
        fields = [f.strip() for f in raw.split(sep)]
        if len(fields) != width:
            return f"line {lineno}: expected {width} columns"
        a, b = fields[0], fields[1]
        if not a or not b:
            return f"line {lineno}: empty node id"
        if a == b:
            return f"line {lineno}: self-loop"
        key = (min(a, b), max(a, b))
        if weighted:
            try:
                weight = int(fields[2])
            except ValueError:
                return f"line {lineno}: non-integer weight"
            if weight < 0:
                return f"line {lineno}: negative weight"
            accum[key] = accum.get(key, 0) + weight
        else:
            accum[key] = 1
    node_ids = sorted({v for key in accum for v in key})
    # the node pairs enumerated in lexicographic order, the order of
    # Graph.weights
    weights = np.array([accum.get(pair, 0) for pair in itertools.combinations(node_ids, 2)],
                       dtype=np.int64)
    return tuple(node_ids), weights


class TestLoadEdgeListAgainstLines:
    @settings(max_examples=150, deadline=None)
    @given(rows=st.lists(st.tuples(st.sampled_from(["a", "b", " c", "d ", "", "e f"]),
                                   st.sampled_from(["a", "b", " c", "d ", "", "e f"]),
                                   st.sampled_from(["1", " 2", "0", "-1", "x", None])),
                         max_size=8),
           blank=st.lists(st.booleans(), min_size=8, max_size=8),
           weighted=st.booleans(), sep=st.sampled_from([",", "\t"]))
    def test_same_graph_or_same_first_fault(self, tmp_path_factory, rows, blank, weighted,
                                            sep):
        lines = []
        for (a, b, w), skip in zip(rows, blank):
            if skip:
                lines.append("  ")
            lines.append(sep.join([a, b] if w is None else [a, b, w]))
        text = "\n".join(lines) + "\n"
        path = write(tmp_path_factory.mktemp("lines") / "e.csv", text)
        expected = reference_edge_list(text, weighted)
        mode = "weighted" if weighted else "binary"
        if isinstance(expected, str):
            with pytest.raises(EdgeListError, match=expected):
                bl.load_edge_list(path, mode=mode)
        else:
            graph = bl.load_edge_list(path, mode=mode)
            assert graph.node_ids == expected[0]
            assert np.array_equal(graph.weights, expected[1])


class TestDyadOrder:
    def test_dyads_are_the_lexicographic_pairs(self):
        for n in range(8):
            assert list(zip(*_dyads(n))) == list(itertools.combinations(range(n), 2))

    def test_index_is_the_position_in_the_order_either_way_round(self):
        for n in range(41):
            i, j = _dyads(n)
            positions = np.arange(n * (n - 1) // 2)
            assert np.array_equal(_dyad_index(i, j, n), positions)
            assert np.array_equal(_dyad_index(j, i, n), positions)

    def test_pair_key_is_symmetric_and_distinct(self):
        r, s = np.divmod(np.arange(25), 5)
        keys = _pair_key(r, s, 5)
        assert np.array_equal(keys, _pair_key(s, r, 5))
        assert len(set(keys[r <= s].tolist())) == 15

    def test_endpoints_refuse_writes(self):
        for ends in _dyads(6):
            with pytest.raises(ValueError, match="read-only"):
                ends[0] = 1

    def test_one_fit_builds_the_endpoints_once(self, tmp_path, monkeypatch):
        sim = tmp_path / "sim"
        assert main(["simulate", "--n", "30", "--p", "3", "--seed", "4", "--out", str(sim)]) == 0
        calls = []
        triu_indices = np.triu_indices

        def counting(n, *args, **kwargs):
            calls.append(n)
            return triu_indices(n, *args, **kwargs)

        monkeypatch.setattr(np, "triu_indices", counting)
        _dyads.cache_clear()
        # validate, the dyad table, the design and the reduced graph all read them
        assert main(["fit", "--edges", str(sim / "edges.csv"), "--attributes",
                     str(sim / "attributes.csv"), "--partition-key", "block", "--model",
                     "degree_corrected", "--threshold", "0.2", "--grid-size", "5",
                     "--out", str(tmp_path / "out")]) == 0
        assert calls.count(30) == 1


class TestLoadAttributes:
    def test_short_row_after_blank_line_names_physical_line(self, tmp_path):
        path = write(tmp_path / "a.csv", "node_id,block\na,X\n\nb\n")
        with pytest.raises(AttributeTableError, match="line 4: expected 2 columns, got 1"):
            bl.load_attributes(path)

    def test_byte_order_mark_ignored(self, tmp_path):
        path = write(tmp_path / "a.csv", "\ufeffnode_id,block\na,X\nb,Y\n")
        attrs = bl.load_attributes(path)
        assert attrs.node_ids == ("a", "b")
        assert attrs.columns == {"block": ("X", "Y")}


class TestGraphInvariants:
    @pytest.mark.parametrize("weights", [[1], [0, 1, 0, 1], [[0, 1], [1, 0]]],
                             ids=["short", "long", "matrix"])
    def test_weights_must_cover_every_pair(self, weights):
        with pytest.raises(ValueError, match="weights must have length 3"):
            bl.Graph(("a", "b", "c"), np.array(weights))

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            bl.Graph(("a", "b"), np.array([-1]))

    def test_is_binary(self):
        graph = graph_from_weights(np.array([[0, 2], [2, 0]]))
        assert not graph.is_binary


class TestPartitionFromAttributes:
    def test_cross_product(self):
        attrs = bl.AttributeTable(
            ("n1", "n2", "n3", "n4"),
            {"class": ("1A", "1A", "1B", "1B"), "gender": ("F", "M", "F", "M")},
        )
        partition = bl.partition_from_attributes(attrs, ["class", "gender"])
        assert partition.block_count == 4
        assert partition.block_labels == ("1A-F", "1A-M", "1B-F", "1B-M")

    def test_school_style_blocks(self):
        # 10 classes x 2 genders plus a teacher override block: 21 blocks
        node_ids, classes, genders = [], [], []
        for grade in range(1, 6):
            for section in "AB":
                for gender in "FM":
                    node = f"s{grade}{section}{gender}"
                    node_ids.append(node)
                    classes.append(f"{grade}{section}")
                    genders.append(gender)
        for t in range(3):
            node_ids.append(f"t{t}")
            classes.append("")
            genders.append("")
        attrs = bl.AttributeTable(tuple(node_ids),
                                  {"class": tuple(classes), "gender": tuple(genders)})
        overrides = {f"t{t}": "Teachers" for t in range(3)}
        partition = bl.partition_from_attributes(attrs, ["class", "gender"], overrides)
        assert partition.block_count == 21
        assert "Teachers" in partition.block_labels

    def test_all_override_single_block(self):
        attrs = bl.AttributeTable(("a", "b"), {})
        partition = bl.partition_from_attributes(attrs, [], {"a": "one", "b": "one"})
        assert partition.block_count == 1

    def test_missing_value_names_node(self):
        attrs = bl.AttributeTable(("a", "b"), {"k": ("x", "")})
        with pytest.raises(PartitionError, match="'b'.*'k'"):
            bl.partition_from_attributes(attrs, ["k"])

    def test_override_only_node_is_included(self):
        attrs = bl.AttributeTable(("a",), {"k": ("x",)})
        partition = bl.partition_from_attributes(attrs, ["k"], {"zz": "extra"})
        assert partition.block_of["zz"] == partition.block_labels.index("extra")

    def test_labels_sorted_deterministically(self):
        attrs = bl.AttributeTable(("a", "b", "c"), {"k": ("z", "m", "a")})
        partition = bl.partition_from_attributes(attrs, ["k"])
        assert partition.block_labels == ("a", "m", "z")


class TestPartitionInvariants:
    def test_every_block_used(self):
        with pytest.raises(PartitionError, match="empty blocks"):
            bl.Partition(("x", "y"), {"a": 0})

    def test_index_range(self):
        with pytest.raises(PartitionError, match="out-of-range"):
            bl.Partition(("x",), {"a": 3})


class TestValidate:
    def test_single_block_pass_and_density(self):
        graph = graph_from_weights(np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]))
        report = bl.validate(graph, one_block_partition(graph))
        assert report.passed
        assert report.density == pytest.approx(2 / 3)

    def test_unknown_node_fails(self):
        graph = graph_from_weights(np.zeros((2, 2), dtype=int))
        partition = bl.Partition(("all",), {graph.node_ids[0]: 0,
                                            graph.node_ids[1]: 0, "ghost": 0})
        report = bl.validate(graph, partition)
        assert not report.passed
        assert any("ghost" in msg for msg in report.problems)

    def test_graph_node_missing_from_partition_left_out_of_tallies(self):
        # v02 is in no block: its edges are left out of every pair, and the
        # block S holds only a node that is not in the graph
        w = np.zeros((5, 5), dtype=int)
        for i, j in [(0, 2), (1, 2), (2, 3), (1, 3)]:
            w[i, j] = w[j, i] = 1
        graph = graph_from_weights(w)
        partition = bl.Partition(("L", "R", "S"), {"v00": 0, "v01": 1, "v03": 1, "v04": 0,
                                                   "ghost": 2})
        report = bl.validate(graph, partition)
        assert not report.passed
        assert any("v02" in msg for msg in report.problems)
        assert report.block_sizes == {"L": 2, "R": 2, "S": 0}
        # covered dyads: L-L (v00, v04), R-R (v01, v03) with the one covered
        # edge, and the four L-R pairs
        assert report.data_sparse_pairs == (("L", "L"), ("L", "R"))
        assert report.empty_pairs == (("L", "S"), ("R", "S"), ("S", "S"))

    def test_singleton_pair_flagged_data_sparse(self):
        # blocks {v00}, {v01}: the between pair has a dyad but no edge,
        # and each within pair has no dyads at all
        graph = graph_from_weights(np.zeros((2, 2), dtype=int))
        partition = bl.Partition(("L", "R"), {graph.node_ids[0]: 0, graph.node_ids[1]: 1})
        report = bl.validate(graph, partition)
        assert report.passed
        assert ("L", "R") in report.data_sparse_pairs
        assert ("L", "L") in report.empty_pairs and ("R", "R") in report.empty_pairs

    def test_report_serializes(self):
        graph = graph_from_weights(np.zeros((2, 2), dtype=int))
        report = bl.validate(graph, one_block_partition(graph))
        assert "status: PASS" in report.to_text()
        assert report.to_json_dict()["passed"] is True
