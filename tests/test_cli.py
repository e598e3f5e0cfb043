import json

import numpy as np
import pytest

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
        ("--select", "fixed"),
        ("--grid-ratio", 2),
        ("--gamma-w", -1),
        ("--select", "fixed", "--lambda", -1),
    ], ids=["fixed_without_lambda", "grid_ratio_above_one", "negative_gamma_w",
            "negative_lambda"])
    def test_bad_penalty_settings_fail_before_any_work(self, dataset, tmp_path, capsys, extra):
        out = tmp_path / "bad"
        assert run(*fit_args(dataset, out, *extra)) == 3
        assert "error (data)" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

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


class TestSimulate:
    def test_fixed_seed_identical_files(self, tmp_path):
        a, b = tmp_path / "s1", tmp_path / "s2"
        for out in (a, b):
            assert run("simulate", "--n", 20, "--p", 2, "--seed", 33, "--out", out) == 0
        for name in ("edges.csv", "attributes.csv", "truth.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

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
        assert run(*fit_args(dataset, zero, "--select", "fixed", "--lambda", "0.0",
                             "--grid-size", 4)) == 0
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
