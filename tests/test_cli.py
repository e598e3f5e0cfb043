import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import blocklasso
from blocklasso.cli import main


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "sim"
    code = run("simulate", "--n", 25, "--p", 3, "--fraction-zero", 0.4,
               "--magnitude", 0.9, "--intercept", -0.6, "--seed", 21, "--out", out)
    assert code == 0
    return out


def fit_args(dataset, out, *extra):
    return ("fit", "--edges", dataset / "edges.csv",
            "--attributes", dataset / "attributes.csv",
            "--partition-key", "block", "--model", "custom",
            "--family", "bernoulli_logit", "--grid-size", 30,
            "--out", out, *extra)


class TestFit:
    def test_full_run_artifacts(self, dataset, tmp_path):
        out = tmp_path / "run"
        assert run(*fit_args(dataset, out)) == 0
        for name in ("mle_fit.json", "mle_coefficients.csv", "reduced_mle.json",
                     "reduced_mle.dot", "path_summary.csv", "selected_fit.json",
                     "selected_coefficients.csv", "reduced_selected.json",
                     "summary.json", "manifest.json", "validation.json"):
            assert (out / name).exists(), name
        summary = json.loads((out / "summary.json").read_text())
        p = summary["p"]
        signs = summary["mle"]["sign_summary"]
        assert signs["positive"] + signs["zero"] + signs["negative"] == p * (p + 1) // 2

    def test_missing_edge_file_is_io_error(self, tmp_path, capsys):
        code = run("fit", "--edges", tmp_path / "absent.csv", "--out", tmp_path / "o")
        assert code == 2
        assert "absent.csv" in capsys.readouterr().err

    def test_weight_beyond_int64_is_data_error(self, dataset, tmp_path, capsys):
        edges = tmp_path / "edges.csv"
        edges.write_text("v00,v01,1\nv00,v02,99999999999999999999\n")
        code = run("fit", "--edges", edges, "--mode", "weighted",
                   "--attributes", dataset / "attributes.csv", "--partition-key", "block",
                   "--out", tmp_path / "out")
        assert code == 3
        err = capsys.readouterr().err
        assert "line 2" in err and "Traceback" not in err

    def test_byte_identical_reruns(self, dataset, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(*fit_args(dataset, out1)) == 0
        assert run(*fit_args(dataset, out2)) == 0
        for name in ("mle_coefficients.csv", "selected_coefficients.csv",
                     "reduced_mle.json", "reduced_selected.json", "path_summary.csv",
                     "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        assert m1["config_hash"] == m2["config_hash"]
        assert m1["inputs"] == m2["inputs"]

    def test_config_file_with_flag_override(self, dataset, tmp_path):
        config = {
            "edges": str(dataset / "edges.csv"),
            "attributes": str(dataset / "attributes.csv"),
            "partition": {"keys": ["block"]},
            "model": "custom",
            "family": "bernoulli_logit",
            "penalty": {"grid_size": 12},
            "out": str(tmp_path / "cfg_out"),
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "flag_out"
        assert run("fit", "--config", cfg_path, "--out", out) == 0
        path_rows = (out / "path_summary.csv").read_text().splitlines()
        assert len(path_rows) == 13  # header + grid_size rows
        assert not (tmp_path / "cfg_out").exists()

    @pytest.mark.parametrize("extra", [
        ("--grid-ratio", 2),
        ("--gamma-w", -1),
        ("--lambda", -1),
        ("--lambda", "inf"),
        ("--threshold", 1.5),
        ("--threshold", "nan"),
        ("--family", "poisson_log", "--threshold", 0.5),
    ], ids=["grid_ratio_above_one", "negative_gamma_w", "negative_lambda",
            "infinite_lambda", "threshold_above_one", "threshold_nan",
            "threshold_with_poisson"])
    def test_bad_penalty_settings_fail_before_any_work(self, dataset, tmp_path, capsys, extra):
        out = tmp_path / "bad"
        assert run(*fit_args(dataset, out, *extra)) == 3
        assert "error (data)" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("config,key", [
        ({"formats": ["svg"]}, "formats"),
        ({"formats": "dot"}, "formats"),
        ({"styling": ["x"]}, "styling"),
        ({"styling": {"B1": ["x"]}}, "styling"),
        ({"penalty": None}, "penalty"),
        ({"partition": []}, "partition"),
        ({"penalty": {"lambda": None}}, "penalty.lambda"),
        ({"penalty": {"gamma_w": None}}, "penalty.gamma_w"),
        ({"penalty": {"gama_w": 2}}, "penalty.gama_w"),
        ({"penalty": {"selection": "fixed_lambda"}}, "penalty.selection"),
        ({"partition": {"keys": "block"}}, "partition.keys"),
        ({"covariates": ["x"]}, "covariates[0]"),
        ({"covariates": [{"attribute": "block"}]}, "covariates[0]"),
        ({"covariates": [{"kind": "same_level", "attribute": "block"}]}, "covariates[0]"),
        ({"covariates": [{"kind": "same_value", "attribute": "block"},
                         {"kind": "same_value", "attribute": "block", "weight": 2}]},
         "covariates[1]"),
        ({"covariates": [{"kind": "same_value", "attribute": 3}]}, "covariates[0]"),
        ({"covariates": [{"kind": "pair_dummies", "attribute": "block", "reference": "B1"}]},
         "covariates[0]"),
    ], ids=["unknown_format", "formats_not_a_list", "styling_not_an_object",
            "block_styling_not_an_object", "penalty_null", "partition_not_an_object",
            "lambda_null", "gamma_w_null", "misspelled_key", "removed_selection_key",
            "partition_keys_not_a_list", "covariate_not_an_object", "covariate_without_kind",
            "covariate_unknown_kind", "covariate_unknown_key", "covariate_attribute_not_a_string",
            "covariate_reference_not_a_list"])
    def test_bad_config_shapes_fail_before_any_work(self, dataset, tmp_path, capsys,
                                                     config, key):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "bad"
        # no --partition-key, which would override the config's partition keys
        assert run("fit", "--edges", dataset / "edges.csv", "--attributes",
                   dataset / "attributes.csv", "--model", "custom", "--family",
                   "bernoulli_logit", "--config", cfg_path, "--out", out) == 3
        err = capsys.readouterr().err
        assert "error (data)" in err and repr(key) in err
        assert not out.exists() or not any(out.iterdir())

    def test_manifest_config_reproduces_the_run(self, dataset, tmp_path):
        first = tmp_path / "first"
        assert run(*fit_args(dataset, first, "--threshold", 0.5, "--gamma-w", 1.5,
                             "--format", "graphml", "--format", "dot")) == 0
        manifest = json.loads((first / "manifest.json").read_text())
        second = tmp_path / "second"
        cfg_path = tmp_path / "recorded.json"
        cfg_path.write_text(json.dumps({**manifest["config"], "out": str(second)}))
        assert run("fit", "--config", cfg_path) == 0
        names = sorted(path.name for path in first.iterdir())
        assert names == sorted(path.name for path in second.iterdir())
        for name in names:
            if name != "manifest.json":
                assert (first / name).read_bytes() == (second / name).read_bytes(), name
        rerun = json.loads((second / "manifest.json").read_text())
        assert rerun["config_hash"] == manifest["config_hash"]

    def test_gamma_w_out_of_range_is_data_error(self, dataset, tmp_path, capsys):
        # weights |ref| ** -2000 overflow or underflow for any |ref| outside [0.70, 1.45]
        assert run(*fit_args(dataset, tmp_path / "gamma", "--gamma-w", 2000)) == 3
        err = capsys.readouterr().err
        assert "error (data)" in err and "gamma_w=2000" in err

    def test_unpenalized_run(self, dataset, tmp_path):
        out = tmp_path / "plain"
        assert run(*fit_args(dataset, out, "--no-penalized")) == 0
        assert not (out / "selected_fit.json").exists()

    def test_threshold_rule_artifacts(self, dataset, tmp_path):
        out = tmp_path / "thresh"
        assert run(*fit_args(dataset, out, "--threshold", 0.5)) == 0
        rg = json.loads((out / "reduced_mle_threshold.json").read_text())
        assert rg["rule"] == "threshold"

    def test_null_support_selected_on_null_data(self, tmp_path):
        sim = tmp_path / "null"
        assert run("simulate", "--n", 40, "--p", 4, "--fraction-zero", 1.0,
                   "--intercept", -0.8, "--seed", 5, "--out", sim) == 0
        out = tmp_path / "nullfit"
        assert run(*fit_args(sim, out, "--grid-size", 50)) == 0
        selected = json.loads((out / "selected_fit.json").read_text())
        assert selected["diagnostics"]["active_set_size"] == 0
        interactions = np.array(selected["block_interactions"])
        assert np.all(interactions == 0.0)


IMPORT_PROBE = """
import json, sys
def loaded():
    return sorted(m for m in sys.modules
                  if m.split(".")[:2] in (["scipy", "sparse"], ["scipy", "special"]))
import blocklasso
after_import = loaded()
from blocklasso import cli
code = cli.main(sys.argv[1:])
print(json.dumps({"import": after_import, "fit": loaded(), "code": code}))
"""


def test_fit_imports_neither_scipy_sparse_nor_special(dataset, tmp_path):
    # a fresh interpreter: the test process itself may have imported both
    src = str(Path(blocklasso.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    argv = [str(a) for a in fit_args(dataset, tmp_path / "out", "--format", "dot")]
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report == {"import": [], "fit": [], "code": 0}


def test_repeated_calls_in_one_process_are_independent(dataset, tmp_path):
    # ``main`` builds its parser once and reuses it: flags of one call must
    # not leak into the next
    first, second = tmp_path / "first", tmp_path / "second"
    assert run(*fit_args(dataset, first, "--format", "graphml", "--threshold", 0.2)) == 0
    assert (first / "reduced_mle.graphml").exists()
    assert (first / "reduced_mle_threshold.json").exists()
    assert run(*fit_args(dataset, second)) == 0
    assert not list(second.glob("*.graphml"))
    assert not list(second.glob("reduced_mle_threshold.*"))
    fresh = tmp_path / "fresh"
    src = str(Path(blocklasso.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "blocklasso.cli",
                           *[str(a) for a in fit_args(dataset, fresh)]],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert (second / "summary.json").read_bytes() == (fresh / "summary.json").read_bytes()
    assert sorted(f.name for f in second.iterdir()) == sorted(f.name for f in fresh.iterdir())


@pytest.mark.parametrize("blocks", [("X", "Y"), ("X", "X")])
def test_two_node_degree_corrected_fit_names_the_inestimable_column(tmp_path, capsys, blocks):
    # the one dyad holds both nodes, so the fold cancels the one node column;
    # a Poisson model with node effects, since a one-dyad Bernoulli graph
    # has no finite MLE and is refused before the design is built
    edges, attributes = tmp_path / "edges.csv", tmp_path / "attributes.csv"
    config = tmp_path / "config.json"
    edges.write_text("a,b,2\n")
    attributes.write_text(f"node_id,block\na,{blocks[0]}\nb,{blocks[1]}\n")
    config.write_text(json.dumps({"mode": "weighted", "model": "custom",
                                  "family": "poisson_log", "node_effects": True}))
    code = run("fit", "--edges", edges, "--attributes", attributes, "--partition-key", "block",
               "--config", config, "--out", tmp_path / "out")
    assert code == 3
    err = capsys.readouterr().err
    assert "node:a" in err and "cannot be estimated" in err and "three nodes" in err


class TestUnidentifiedDesigns:
    """A design whose columns cannot all be estimated exits 3 before any
    fit, naming the settings or the blocks that make it so."""

    def fit(self, tmp_path, config, blocks="XXXXXYYYYYZZZZZ"):
        rng = np.random.default_rng(9)
        nodes = [f"n{k:02d}" for k in range(len(blocks))]
        edges = "".join(f"{u},{v}\n" for k, u in enumerate(nodes) for v in nodes[k + 1:]
                        if rng.random() < 0.4)
        (tmp_path / "edges.csv").write_text(edges)
        (tmp_path / "attributes.csv").write_text(
            "node_id,block\n" + "".join(f"{v},{b}\n" for v, b in zip(nodes, blocks)))
        (tmp_path / "config.json").write_text(json.dumps(config))
        return run("fit", "--edges", tmp_path / "edges.csv", "--attributes",
                   tmp_path / "attributes.csv", "--partition-key", "block", "--config",
                   tmp_path / "config.json", "--grid-size", 5, "--out", tmp_path / "out")

    def test_node_and_block_effects_refused(self, tmp_path, capsys):
        config = {"model": "custom", "family": "bernoulli_logit", "node_effects": True,
                  "block_main_effects": True}
        assert self.fit(tmp_path, config) == 3
        assert "node_effects and block_main_effects" in capsys.readouterr().err
        assert not (tmp_path / "out" / "mle_fit.json").exists()

    def test_one_node_block_refused_by_name(self, tmp_path, capsys):
        assert self.fit(tmp_path, {"model": "degree_corrected"}, blocks="SXXXXXYYYYYZZZZ") == 3
        assert "block(s) S hold one node" in capsys.readouterr().err
        assert not (tmp_path / "out" / "mle_fit.json").exists()


class TestConstantCovariate:
    """A covariate with one value on every dyad: a nonzero one copies the
    intercept and is refused by name, a zero one is inestimable and held
    at zero."""

    def fit(self, tmp_path, covariate):
        rng = np.random.default_rng(8)
        nodes = "abcdefgh"
        edges = "".join(f"{u},{v},{w}\n" for k, u in enumerate(nodes) for v in nodes[k + 1:]
                        if (w := rng.poisson(2.0)))
        (tmp_path / "edges.csv").write_text(edges)
        (tmp_path / "attributes.csv").write_text(
            "node_id,block,constituency,age\n"
            + "".join(f"{v},{'XY'[k % 2]},c00,40\n" for k, v in enumerate(nodes)))
        (tmp_path / "config.json").write_text(json.dumps(
            {"mode": "weighted", "model": "covariate_adjusted", "covariates": [covariate]}))
        return run("fit", "--edges", tmp_path / "edges.csv", "--attributes",
                   tmp_path / "attributes.csv", "--partition-key", "block", "--config",
                   tmp_path / "config.json", "--grid-size", 5, "--out", tmp_path / "out")

    def test_constant_covariate_refused_by_name(self, tmp_path, capsys):
        assert self.fit(tmp_path, {"kind": "same_value", "attribute": "constituency"}) == 3
        err = capsys.readouterr().err
        assert "same:constituency" in err and "intercept" in err

    def test_zero_covariate_held_at_zero(self, tmp_path):
        assert self.fit(tmp_path, {"kind": "abs_difference", "attribute": "age"}) == 0
        mle = json.loads((tmp_path / "out" / "mle_fit.json").read_text())
        assert mle["coefficients"]["absdiff:age"] == 0.0
        assert mle["diagnostics"]["fixed_zero"] == ["absdiff:age"]


class TestNonFiniteCovariate:
    """A non-finite covariate value exits 3 naming the line, or the node
    and the attribute, that holds it, as every other bad value does."""

    def fit(self, tmp_path, covariate, value="0.5", age="40"):
        (tmp_path / "edges.csv").write_text("a,b,1\na,c,2\nb,d,1\nc,d,3\n")
        (tmp_path / "attributes.csv").write_text(
            f"node_id,block,age\na,X,30\nb,X,{age}\nc,Y,50\nd,Y,60\n")
        (tmp_path / "values.csv").write_text(f"a,b,1.5\nb,c,{value}\n")
        (tmp_path / "config.json").write_text(json.dumps(
            {"mode": "weighted", "model": "covariate_adjusted", "covariates": [covariate]}))
        return run("fit", "--edges", tmp_path / "edges.csv", "--attributes",
                   tmp_path / "attributes.csv", "--partition-key", "block", "--config",
                   tmp_path / "config.json", "--grid-size", 5, "--out", tmp_path / "out")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_edge_table_value_names_the_line(self, tmp_path, capsys, value):
        path = tmp_path / "values.csv"
        covariate = {"kind": "edge_table", "path": str(path)}
        assert self.fit(tmp_path, covariate, value=value) == 3
        err = capsys.readouterr().err
        assert f"{path}: line 2: non-finite value '{value}'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("age", ["nan", "inf"])
    def test_attribute_value_names_the_node(self, tmp_path, capsys, age):
        covariate = {"kind": "abs_difference", "attribute": "age"}
        assert self.fit(tmp_path, covariate, age=age) == 3
        err = capsys.readouterr().err
        assert f"attribute 'age' of node 'b' is not finite: '{age}'" in err
        assert "Traceback" not in err


class TestNoFiniteMle:
    """Graphs whose response is all zero, or all one under the Bernoulli
    family, are refused by name before the dyad table is built."""

    NODES = "node_id,block\na,X\nb,X\nc,Y\nd,Y\ne,Y\n"

    def fit(self, tmp_path, edges, *args):
        (tmp_path / "edges.csv").write_text(edges)
        (tmp_path / "attributes.csv").write_text(self.NODES)
        return run("fit", "--edges", tmp_path / "edges.csv", "--attributes",
                   tmp_path / "attributes.csv", "--partition-key", "block",
                   "--grid-size", 5, "--out", tmp_path / "out", *args)

    @pytest.mark.parametrize("args", [
        ("--mode", "weighted", "--model", "covariate_adjusted"),
        ("--model", "custom", "--family", "bernoulli_logit"),
        ("--model", "degree_corrected"),
    ], ids=["covariate_adjusted", "bernoulli", "degree_corrected"])
    def test_edgeless_graph_refused(self, tmp_path, capsys, args):
        assert self.fit(tmp_path, "", *args) == 3
        assert "the graph has no edges" in capsys.readouterr().err
        assert not (tmp_path / "out" / "mle_fit.json").exists()

    @pytest.mark.parametrize("args", [
        ("--model", "custom", "--family", "bernoulli_logit"),
        ("--model", "degree_corrected"),
    ], ids=["bernoulli", "degree_corrected"])
    def test_complete_bernoulli_graph_refused(self, tmp_path, capsys, args):
        edges = "".join(f"{u},{v}\n" for k, u in enumerate("abcde") for v in "abcde"[k + 1:])
        assert self.fit(tmp_path, edges, *args) == 3
        assert "every dyad is an edge" in capsys.readouterr().err

    def test_complete_poisson_graph_fits(self, tmp_path):
        edges = "".join(f"{u},{v},{k + 1}\n"
                        for k, u in enumerate("abcde") for v in "abcde"[k + 1:])
        assert self.fit(tmp_path, edges, "--mode", "weighted",
                        "--model", "covariate_adjusted") == 0


class TestSimulate:
    def test_fixed_seed_identical_files(self, tmp_path):
        a, b = tmp_path / "s1", tmp_path / "s2"
        for out in (a, b):
            assert run("simulate", "--n", 20, "--p", 2, "--seed", 33, "--out", out) == 0
        for name in ("edges.csv", "attributes.csv", "truth.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @pytest.mark.parametrize("config,key", [
        ({"simulate": {"n": 20, "seeds": 3}}, "simulate.seeds"),
        ({"simulate": {"n": None}}, "simulate.n"),
    ], ids=["unknown_key", "n_null"])
    def test_bad_config_fails_before_any_work(self, tmp_path, capsys, config, key):
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "bad"
        assert run("simulate", "--config", cfg_path, "--out", out) == 3
        err = capsys.readouterr().err
        assert "error (data)" in err and repr(key) in err
        assert not out.exists() or not any(out.iterdir())

    def test_weighted_family_round_trip(self, tmp_path):
        sim = tmp_path / "pois"
        assert run("simulate", "--n", 20, "--p", 2, "--family", "poisson_log",
                   "--intercept", -0.5, "--seed", 3, "--out", sim) == 0
        out = tmp_path / "poisfit"
        assert run("fit", "--edges", sim / "edges.csv", "--mode", "weighted",
                   "--attributes", sim / "attributes.csv", "--partition-key", "block",
                   "--model", "covariate_adjusted", "--grid-size", 20,
                   "--out", out) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["family"] == "poisson_log"


class TestCompare:
    def test_self_comparison_zero_deltas(self, dataset, tmp_path, capsys):
        out = tmp_path / "base"
        assert run(*fit_args(dataset, out)) == 0
        report_path = tmp_path / "cmp.json"
        assert run("compare", out / "mle_fit.json", out / "mle_fit.json",
                   "--out", report_path) == 0
        report = json.loads(report_path.read_text())
        assert report["max_abs_delta"] == 0.0
        assert report["pairs_zeroed"] == 0

    def test_mle_vs_lambda_zero_penalized(self, dataset, tmp_path):
        out = tmp_path / "base"
        assert run(*fit_args(dataset, out)) == 0
        zero = tmp_path / "zero"
        assert run(*fit_args(dataset, zero, "--lambda", "0.0", "--grid-size", 4)) == 0
        report_path = tmp_path / "cmp0.json"
        assert run("compare", out / "mle_fit.json", zero / "selected_fit.json",
                   "--out", report_path) == 0
        report = json.loads(report_path.read_text())
        assert report["max_abs_delta"] < 1e-6

    def test_mle_vs_selected_reports_zeroed_pairs(self, dataset, tmp_path):
        out = tmp_path / "base"
        assert run(*fit_args(dataset, out)) == 0
        report_path = tmp_path / "cmp_sel.json"
        assert run("compare", out / "mle_fit.json", out / "selected_fit.json",
                   "--out", report_path) == 0
        report = json.loads(report_path.read_text())
        sign_b = report["sign_summary"]["b"]
        assert report["pairs_zeroed"] == sign_b["zero"] - report["sign_summary"]["a"]["zero"]

    @pytest.mark.parametrize("document,message", [({}, "no key 'coefficients'"),
                                                  ([1, 2], "must be a JSON object")])
    def test_malformed_fit_document_is_data_error(self, tmp_path, capsys, document, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(document))
        assert run("compare", bad, bad) == 3
        err = capsys.readouterr().err
        assert str(bad) in err and message in err

    def test_mismatched_designs_rejected(self, dataset, tmp_path, capsys):
        out = tmp_path / "base"
        assert run(*fit_args(dataset, out)) == 0
        other_sim = tmp_path / "other"
        assert run("simulate", "--n", 12, "--p", 2, "--seed", 77, "--out", other_sim) == 0
        other = tmp_path / "otherfit"
        assert run(*fit_args(other_sim, other)) == 0
        code = run("compare", out / "mle_fit.json", other / "mle_fit.json")
        assert code == 3
        assert "different designs" in capsys.readouterr().err


class TestValidate:
    def test_pass(self, dataset, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = run("validate", "--edges", dataset / "edges.csv",
                   "--attributes", dataset / "attributes.csv",
                   "--partition-key", "block", "--out", report_path)
        assert code == 0
        assert "status: PASS" in capsys.readouterr().out
        assert json.loads(report_path.read_text())["passed"] is True

    def test_missing_partition_key_fails(self, dataset, capsys):
        code = run("validate", "--edges", dataset / "edges.csv",
                   "--attributes", dataset / "attributes.csv",
                   "--partition-key", "nope")
        assert code == 3
