"""Command-line interface: schemas, determinism, exit codes, config parsing."""

import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import lossyphase

from lossyphase.cli import (
    DATASET_COLUMNS,
    ESTIMATES_COLUMNS,
    MAX_COUNT,
    REPORT_COLUMNS,
    SEED_ENV_VAR,
    ConfigError,
    _FIELDS,
    _PARSE_CHUNK,
    _WRITE_BLOCK,
    _blocks,
    _config_dict,
    _write_lines,
    build_parser,
    config_from_dict,
    _fmt,
    main,
    read_dataset_csv,
    write_dataset_csv,
)
from lossyphase import bounds, cli, montecarlo, workers
from lossyphase.detection import Setting
from lossyphase.estimator import analyze, estimate_dataset
from lossyphase.imperfections import ImperfectionParams
from lossyphase.montecarlo import PROBES, SETTINGS, EventDataset, ExperimentConfig, ProbeKind, probe_designs
from oracles import parse_config, read_dataset_rows

SMALL_CONFIG = """\
# compact campaign for integration checks
eta_list = 0.361, 0.547
probe = optimal
phases = -0.04, 0.0, 0.04
series = 6
events = 300
seed = 99
poissonize_m = true
include_cc = true
"""


#: The manifest config object simulate writes for SMALL_CONFIG.
SMALL_MANIFEST_CONFIG = {
    "eta_list": [0.361, 0.547],
    "probe": "optimal",
    "phases": [-0.04, 0.0, 0.04],
    "series": 6,
    "events": 300,
    "seed": 99,
    "epsilon": 0.0,
    "delta": 0.0,
    "lambda_hom": 1.0,
    "v_classical": 1.0,
    "poissonize_m": True,
    "include_cc": True,
}


def manifest_text(drop=None, **changes) -> str:
    """A manifest whose config is SMALL_MANIFEST_CONFIG with one key dropped or changed."""
    config = {key: value for key, value in SMALL_MANIFEST_CONFIG.items() if key != drop}
    return json.dumps({"command": "simulate", "config": {**config, **changes}})


@pytest.fixture
def sim_dir(tmp_path):
    config_path = tmp_path / "campaign.cfg"
    config_path.write_text(SMALL_CONFIG)
    out_dir = tmp_path / "sim"
    assert main(["simulate", "--config", str(config_path), "--out-dir", str(out_dir)]) == 0
    return out_dir


class TestParseConfig:
    def test_full_round_trip(self):
        kwargs, include_cc = parse_config(SMALL_CONFIG)
        assert kwargs["eta_list"] == (0.361, 0.547)
        assert kwargs["probe_kind"] is ProbeKind.OPTIMAL
        assert kwargs["series_count"] == 6
        assert kwargs["master_seed"] == 99
        assert include_cc is True

    def test_unknown_key(self):
        from lossyphase.cli import ConfigError

        with pytest.raises(ConfigError, match="line 1"):
            parse_config("bogus = 3\n")

    def test_bad_value_diagnostic(self):
        from lossyphase.cli import ConfigError

        with pytest.raises(ConfigError, match="line 2"):
            parse_config("series = 5\nevents = many\n")

    def test_env_seed_lowest_precedence(self, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "424242")
        kwargs, _ = parse_config("series = 5\n")
        assert kwargs["master_seed"] == 424242
        kwargs, _ = parse_config("seed = 7\n")
        assert kwargs["master_seed"] == 7


class TestBounds:
    def test_lossless_row(self, tmp_path):
        out = tmp_path / "bounds.csv"
        rc = main(["bounds", "--eta-min", "1.0", "--eta-max", "1.0", "--steps", "1", "--out", str(out)])
        assert rc == 0
        header, row = out.read_text().splitlines()
        assert header == "eta,dphi_optimal,dphi_noon,dphi_sil,x0,x1,x2,prep_success_p"
        fields = row.split(",")
        assert float(fields[1]) == pytest.approx(0.5, abs=1e-9)
        assert float(fields[2]) == pytest.approx(0.5, abs=1e-12)
        assert float(fields[3]) == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_default_grid_contains_experimental_etas(self, tmp_path):
        out = tmp_path / "bounds.csv"
        rc = main(["bounds", "--eta-min", "0.15", "--eta-max", "0.6", "--steps", "4", "--out", str(out)])
        assert rc == 0
        etas = {line.split(",")[0] for line in out.read_text().splitlines()[1:]}
        for eta in ("0.2", "0.361", "0.4", "0.547"):
            assert eta in etas

    def test_bad_range_exits_2(self, tmp_path):
        rc = main(["bounds", "--eta-min", "0.0", "--eta-max", "1.0", "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    @pytest.mark.parametrize("eta_min", ["4e-13", "1e-300"])
    def test_eta_min_rounding_to_zero_exits_2(self, tmp_path, capsys, eta_min):
        """The grid is rounded to 12 decimals; an eta-min that rounds to 0 is
        named, not reported as a vanishing information at eta = 0."""
        out = tmp_path / "b.csv"
        assert main(["bounds", "--eta-min", eta_min, "--eta-max", "0.5", "--steps", "3", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "--eta-min" in err and eta_min in err and "12-decimal" in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_invariant_violation_exits_3(self, tmp_path, monkeypatch, capsys):
        """An optimum above the N00N bound breaks precision_curve's invariant."""
        monkeypatch.setattr(bounds, "optimize_weights", lambda etas: [(bounds.NOON_WEIGHTS, 1e-6) for _ in etas])
        out = tmp_path / "b.csv"
        assert main(["bounds", "--eta-min", "0.5", "--eta-max", "0.5", "--steps", "1", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "internal invariant violated" in err and len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("eta", ["1e-12", "2e-12"])
    def test_tiny_eta_row(self, tmp_path, eta):
        """At eta ~ 1e-12 the bounds are ~3.5e5; the optimum may exceed the
        SIL by a few parts in 1e12, which is rounding, not a broken invariant."""
        out = tmp_path / "b.csv"
        assert main(["bounds", "--eta-min", eta, "--eta-max", eta, "--steps", "1", "--out", str(out)]) == 0
        rows = {line.split(",")[0]: line.split(",") for line in out.read_text().splitlines()[1:]}
        dphi_opt, dphi_noon, dphi_sil = (float(v) for v in rows[eta][1:4])
        assert dphi_opt == pytest.approx(dphi_sil, rel=1e-9) and dphi_opt < dphi_noon

    def test_rerun_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["bounds", "--eta-min", "0.3", "--eta-max", "0.5", "--steps", "3"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestFringes:
    def test_noon_loss_fringes_constant(self, tmp_path):
        out = tmp_path / "fringes.csv"
        rc = main(["fringes", "--eta", "0.361", "--probe", "noon", "--phi-steps", "41", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "phi,setting,AA,AB,BB,AC,BC,CC"
        ac = [float(l.split(",")[5]) for l in lines[1:] if l.split(",")[1] == "half"]
        assert max(ac) - min(ac) < 1e-12

    def test_lossless_has_no_loss_labels(self, tmp_path):
        out = tmp_path / "fringes.csv"
        assert main(["fringes", "--eta", "1.0", "--probe", "noon", "--phi-steps", "11", "--out", str(out)]) == 0
        for line in out.read_text().splitlines()[1:]:
            fields = line.split(",")
            assert float(fields[5]) == 0.0 and float(fields[6]) == 0.0 and float(fields[7]) == 0.0

    def test_bad_eta_exits_2(self, tmp_path):
        assert main(["fringes", "--eta", "1.5", "--out", str(tmp_path / "f.csv")]) == 2

    def test_unpreparable_optimal_weights_name_eta(self, tmp_path, capsys):
        """Below eta ~ 3e-22 the optimal weights have x1 > 0 but x0 = 0; 1e-21 still prepares."""
        out = tmp_path / "f.csv"
        assert main(["fringes", "--eta", "1e-22", "--probe", "optimal", "--phi-steps", "3", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: optimal probe at eta=1e-22: weights (0.0, ")
        assert err.endswith(": targets with x1 > 0 need weight on both |20> and |02>\n")
        assert len(err.splitlines()) == 1
        assert not out.exists()
        assert main(["fringes", "--eta", "1e-21", "--probe", "optimal", "--phi-steps", "3", "--out", str(out)]) == 0

    @pytest.mark.parametrize("steps", ["0", "-3"])
    def test_nonpositive_phi_steps_exits_2(self, tmp_path, capsys, steps):
        out = tmp_path / "f.csv"
        assert main(["fringes", "--eta", "0.361", "--phi-steps", steps, "--out", str(out)]) == 2
        assert "phi-steps" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_counts_exits_2(self, tmp_path, capsys):
        out = tmp_path / "f.csv"
        assert main(["fringes", "--eta", "0.361", "--counts", "-5", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "--counts" in err and "-5" in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("counts", [str(2**63), "100000000000000000000"])
    def test_counts_beyond_int64_exits_2(self, tmp_path, capsys, counts):
        out = tmp_path / "f.csv"
        assert main(["fringes", "--eta", "0.361", "--phi-steps", "3", "--counts", counts, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "--counts" in err and counts in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_largest_int64_counts_draw(self, tmp_path):
        out = tmp_path / "f.csv"
        assert main(["fringes", "--eta", "0.361", "--phi-steps", "3", "--counts", str(2**63 - 1), "--out", str(out)]) == 0
        for line in out.read_text().splitlines()[1:]:
            assert sum(map(int, line.split(",")[2:])) == 2**63 - 1

    @pytest.mark.parametrize("counts", [[], ["--counts", "10"]], ids=["probabilities", "counts"])
    @pytest.mark.parametrize("env, flags, named", [
        (None, ["--seed", "-1"], "--seed"),
        ("-3", [], SEED_ENV_VAR),
    ], ids=["flag", "env"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, monkeypatch, counts, env, flags, named):
        if env is not None:
            monkeypatch.setenv(SEED_ENV_VAR, env)
        out = tmp_path / "f.csv"
        assert main(["fringes", "--eta", "0.361", *flags, *counts, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert named in err and "non-negative" in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("epsilon", ["0", "0.1"])
    def test_nan_delta_exits_2(self, tmp_path, capsys, epsilon):
        out = tmp_path / "f.csv"
        assert main(["fringes", "--eta", "0.361", "--delta", "nan", "--epsilon", epsilon, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "delta must be finite, got nan" in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_counts_mode(self, tmp_path):
        out = tmp_path / "fringes.csv"
        rc = main([
            "fringes", "--eta", "0.361", "--probe", "optimal", "--phi-steps", "5",
            "--counts", "1000", "--seed", "4", "--out", str(out),
        ])
        assert rc == 0
        for line in out.read_text().splitlines()[1:]:
            values = [float(v) for v in line.split(",")[2:]]
            assert sum(values) == 1000
            assert all(v == int(v) for v in values)

    @pytest.mark.parametrize("flags, digest", [
        (
            ["--probe", "optimal", "--epsilon", "0.02", "--delta", "0.1", "--lambda-hom", "0.95", "--v-classical", "0.97"],
            "bed616d264a72aecdf49f8513501e16d92696ba68f2ab449f2e38ef492d9da43",
        ),
        (["--probe", "noon"], "74741a45b4d332621c138c6635f22fc0ec6fb43b8ca36e30909328d7ff9bd017"),
        (
            ["--probe", "optimal", "--counts", "2000", "--seed", "7"],
            "8d4e389880452213174c42fc63e8a5436c8d21429120754919df2f475a15af9b",
        ),
    ], ids=["optimal-imperfect", "noon", "optimal-counts"])
    def test_pinned_output(self, tmp_path, flags, digest):
        """The fringe table's bytes at eta = 0.361: probabilities of an
        imperfect optimal probe and of the N00N probe, and drawn counts."""
        out = tmp_path / "fringes.csv"
        assert main(["fringes", "--eta", "0.361", *flags, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestSimulate:
    def test_dataset_schema(self, sim_dir):
        lines = (sim_dir / "dataset.csv").read_text().splitlines()
        assert lines[0] == ",".join(DATASET_COLUMNS)
        # 2 etas x 3 phases x 6 series x 2 settings
        assert len(lines) == 1 + 2 * 3 * 6 * 2

    def test_manifest_lists_outputs(self, sim_dir):
        manifest = json.loads((sim_dir / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["config"]["seed"] == 99
        assert manifest["config"] == SMALL_MANIFEST_CONFIG
        assert any(path.endswith("dataset.csv") for path in manifest["outputs"])

    def test_manifest_records_design(self, sim_dir):
        """One entry per eta in eta_list order, each an exact copy of the resolved design."""
        entries = json.loads((sim_dir / "manifest.json").read_text())["design"]
        assert [entry["eta"] for entry in entries] == SMALL_MANIFEST_CONFIG["eta_list"]
        for entry in entries:
            [(weights, quarter)] = probe_designs(ProbeKind.OPTIMAL, [entry["eta"]], ImperfectionParams())
            assert entry == {
                "probe": "optimal", "eta": entry["eta"], "x0": weights.x0, "x1": weights.x1, "x2": weights.x2,
                "theta_d": quarter.theta_d, "conditional_phase": quarter.phase_offset,
            }

    def test_noon_design_is_balanced_at_quarter_phase(self, tmp_path):
        config_path = tmp_path / "c.cfg"
        config_path.write_text(SMALL_CONFIG)
        assert main(["simulate", "--config", str(config_path), "--out-dir", str(tmp_path / "s"), "--probe", "noon"]) == 0
        entries = json.loads((tmp_path / "s" / "manifest.json").read_text())["design"]
        assert [(entry["probe"], entry["eta"]) for entry in entries] == [("noon", 0.361), ("noon", 0.547)]
        for entry in entries:
            assert (entry["x0"], entry["x1"], entry["x2"], entry["theta_d"]) == (0.5, 0.0, 0.5, 0.5)
            assert entry["conditional_phase"] == math.pi / 4

    def test_manifest_replay_reproduces(self, sim_dir, tmp_path):
        manifest = json.loads((sim_dir / "manifest.json").read_text())
        config, _ = config_from_dict(manifest["config"])
        from lossyphase.cli import write_dataset_csv
        from lossyphase.montecarlo import run_campaign

        replay = tmp_path / "replay.csv"
        write_dataset_csv(replay, run_campaign(config))
        assert replay.read_bytes() == (sim_dir / "dataset.csv").read_bytes()

    def test_subset_flags(self, tmp_path):
        config_path = tmp_path / "c.cfg"
        config_path.write_text(SMALL_CONFIG)
        out_dir = tmp_path / "noon"
        rc = main([
            "simulate", "--config", str(config_path), "--out-dir", str(out_dir),
            "--probe", "noon", "--eta", "0.361",
        ])
        assert rc == 0
        dataset = read_dataset_csv(out_dir / "dataset.csv", ExperimentConfig())
        assert set(dataset.probe.tolist()) == {PROBES.index(ProbeKind.NOON)}
        assert set(dataset.eta.tolist()) == {0.361}

    def test_parse_error_exits_1(self, tmp_path):
        config_path = tmp_path / "bad.cfg"
        config_path.write_text("series = 5\nnonsense line\n")
        rc = main(["simulate", "--config", str(config_path), "--out-dir", str(tmp_path / "o")])
        assert rc == 1

    def test_non_utf8_config_exits_1(self, tmp_path, capsys):
        config_path = tmp_path / "latin.cfg"
        config_path.write_bytes(b"series = 2\n# caf\xe9 \xff\n")
        rc = main(["simulate", "--config", str(config_path), "--out-dir", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert str(config_path) in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("epsilon", ["0", "0.1"])
    def test_nan_delta_exits_2(self, tmp_path, capsys, epsilon):
        """A NaN delta is rejected by name, so no manifest carries a NaN token."""
        config_path = tmp_path / "c.cfg"
        config_path.write_text(f"eta_list = 0.361\nphases = 0.0\nseries = 2\nevents = 20\nepsilon = {epsilon}\ndelta = nan\n")
        assert main(["simulate", "--config", str(config_path), "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "delta must be finite, got nan" in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "line, named",
        [
            ("eta_list = 0.361, 0.361", "eta_list"),
            ("phases = 0, -0.0", "phase_list"),
            ("eta_list = 0.1, 0.1000000000001", "eta_list"),
            ("phases = 0.01, 0.0100000000000001", "phase_list"),
        ],
        ids=["equal-etas", "zero-and-minus-zero", "etas-printed-alike", "phases-printed-alike"],
    )
    def test_repeated_value_exits_2(self, tmp_path, capsys, line, named):
        """Values that are equal, or that the dataset prints alike, would key
        the same rows, which estimate rejects; simulate refuses them first."""
        config_path = tmp_path / "c.cfg"
        config_path.write_text(f"probe = noon\nseries = 2\nevents = 20\n{line}\n")
        out_dir = tmp_path / "o"
        assert main(["simulate", "--config", str(config_path), "--out-dir", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert named in err and len(err.strip().splitlines()) == 1
        assert not out_dir.exists()

    @pytest.mark.parametrize("seed_line, flags, seed", [("seed = 3\n", [], 3), ("", ["--seed", "4"], 4)])
    def test_bad_env_seed_ignored_when_seed_given(self, tmp_path, monkeypatch, seed_line, flags, seed):
        monkeypatch.setenv(SEED_ENV_VAR, "abc")
        config_path = tmp_path / "c.cfg"
        config_path.write_text(f"eta_list = 0.361\nphases = 0.0\nseries = 2\nevents = 20\n{seed_line}")
        out_dir = tmp_path / "o"
        assert main(["simulate", "--config", str(config_path), "--out-dir", str(out_dir), *flags]) == 0
        assert json.loads((out_dir / "manifest.json").read_text())["config"]["seed"] == seed

    @pytest.mark.parametrize("env, flags, named", [
        (None, ["--seed", "-2"], "--seed"),
        ("-3", [], SEED_ENV_VAR),
    ], ids=["flag", "env"])
    def test_negative_seed_exits_2(self, tmp_path, monkeypatch, capsys, env, flags, named):
        if env is not None:
            monkeypatch.setenv(SEED_ENV_VAR, env)
        config_path = tmp_path / "c.cfg"
        config_path.write_text("eta_list = 0.361\nphases = 0.0\nseries = 2\nevents = 20\n")
        out_dir = tmp_path / "o"
        assert main(["simulate", "--config", str(config_path), "--out-dir", str(out_dir), *flags]) == 2
        err = capsys.readouterr().err
        assert named in err and "non-negative" in err
        assert len(err.strip().splitlines()) == 1
        assert not out_dir.exists()

    @pytest.mark.parametrize("poissonize", ["true", "false"])
    def test_events_at_the_count_bound_estimate(self, tmp_path, poissonize):
        """At events = MAX_COUNT every count stays within the bound the dataset
        reader holds, Poissonized or not, so estimate reads what simulate wrote."""
        config_path = tmp_path / "c.cfg"
        config_path.write_text(
            f"eta_list = 0.361\nphases = 0.0\nseries = 2\nevents = {MAX_COUNT}\npoissonize_m = {poissonize}\n"
        )
        sim = tmp_path / "sim"
        assert main(["simulate", "--config", str(config_path), "--out-dir", str(sim)]) == 0
        assert main(["estimate", "--dataset", str(sim / "dataset.csv"), "--out-dir", str(tmp_path / "est")]) == 0
        counts = [list(map(int, line.split(",")[5:11])) for line in (sim / "dataset.csv").read_text().splitlines()[1:]]
        assert max(map(max, counts)) <= MAX_COUNT and sum(map(sum, counts)) > MAX_COUNT // 2

    def test_bad_env_seed_exits_1_without_other_seed(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(SEED_ENV_VAR, "abc")
        config_path = tmp_path / "c.cfg"
        config_path.write_text("eta_list = 0.361\nphases = 0.0\nseries = 2\nevents = 20\n")
        assert main(["simulate", "--config", str(config_path), "--out-dir", str(tmp_path / "o")]) == 1
        assert SEED_ENV_VAR in capsys.readouterr().err


class TestEstimate:
    def test_outputs_and_schema(self, sim_dir, tmp_path):
        out_dir = tmp_path / "est"
        rc = main([
            "estimate", "--dataset", str(sim_dir / "dataset.csv"), "--out-dir", str(out_dir),
            "--hist-bin", "0.01",
        ])
        assert rc == 0
        est_lines = (out_dir / "estimates.csv").read_text().splitlines()
        assert est_lines[0] == ",".join(ESTIMATES_COLUMNS)
        assert len(est_lines) == 1 + 2 * 3 * 6
        report_lines = (out_dir / "report.csv").read_text().splitlines()
        assert report_lines[0] == ",".join(REPORT_COLUMNS)
        assert len(report_lines) == 1 + 2 * 3
        hist_lines = (out_dir / "histograms.csv").read_text().splitlines()
        assert hist_lines[0] == "eta,probe,phi_true,bin_left,bin_right,count"
        for line in est_lines[1:]:
            phi_hat = float(line.split(",")[4])
            assert -math.pi / 2 <= phi_hat < math.pi / 2

    def test_schema_mismatch_names_column(self, sim_dir, tmp_path, capsys):
        broken = tmp_path / "broken.csv"
        text = (sim_dir / "dataset.csv").read_text().replace("n_AA", "n_XX", 1)
        broken.write_text(text)
        rc = main(["estimate", "--dataset", str(broken), "--manifest", str(sim_dir / "manifest.json"), "--out-dir", str(tmp_path / "o")])
        assert rc == 1
        assert "n_AA" in capsys.readouterr().err

    def test_missing_manifest_exits_1(self, tmp_path):
        data = tmp_path / "dataset.csv"
        data.write_text(",".join(DATASET_COLUMNS) + "\n")
        rc = main(["estimate", "--dataset", str(data), "--out-dir", str(tmp_path / "o")])
        assert rc == 1

    @pytest.mark.parametrize("name, content", [("missing.csv", None), ("latin.csv", b"eta,probe\n\xff\n")])
    def test_unreadable_dataset_exits_1(self, sim_dir, tmp_path, capsys, name, content):
        dataset = tmp_path / name
        if content is not None:
            dataset.write_bytes(content)
        rc = main([
            "estimate", "--dataset", str(dataset), "--manifest", str(sim_dir / "manifest.json"),
            "--out-dir", str(tmp_path / "o"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"cannot read dataset {dataset}" in err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_degenerate_series_named_in_plain_text(self, tmp_path, capsys):
        """At three events per series some series register no coincidence."""
        config_path = tmp_path / "c.cfg"
        config_path.write_text("eta_list = 0.361\nprobe = noon\nphases = 0.0\nseries = 20\nevents = 3\nseed = 0\n")
        sim, est = tmp_path / "sim", tmp_path / "est"
        assert main(["simulate", "--config", str(config_path), "--out-dir", str(sim)]) == 0
        assert main(["estimate", "--dataset", str(sim / "dataset.csv"), "--out-dir", str(est)]) == 2
        err = capsys.readouterr().err
        assert "error: series eta=0.361 probe=noon phi_true=0 series_id=0: " in err
        assert "ProbeKind" not in err and len(err.strip().splitlines()) == 1

    @staticmethod
    def estimate_edited(sim_dir, tmp_path, edit):
        """Run estimate on a copy of the dataset whose data lines ``edit`` changed."""
        lines = (sim_dir / "dataset.csv").read_text().splitlines()
        data = [line.split(",") for line in lines[1:]]
        edit(data)
        edited = tmp_path / "edited.csv"
        edited.write_text("\n".join([lines[0], *(",".join(parts) for parts in data)]) + "\n")
        return main([
            "estimate", "--dataset", str(edited), "--manifest", str(sim_dir / "manifest.json"),
            "--out-dir", str(tmp_path / "o"),
        ])

    @pytest.mark.parametrize("index, column", [(2, "n_AA"), (17, "n_BC")])
    def test_negative_count_exits_1(self, sim_dir, tmp_path, capsys, index, column):
        def edit(data):
            data[index][DATASET_COLUMNS.index(column)] = "-7"

        assert self.estimate_edited(sim_dir, tmp_path, edit) == 1
        err = capsys.readouterr().err
        assert f"line {index + 2}:" in err and column in err and "-7" in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text", [str(MAX_COUNT + 1), "9223372036854775807", "1" + "0" * 30])
    def test_count_above_bound_exits_1(self, sim_dir, tmp_path, capsys, text):
        def edit(data):
            data[5][DATASET_COLUMNS.index("n_CC")] = text

        assert self.estimate_edited(sim_dir, tmp_path, edit) == 1
        err = capsys.readouterr().err
        assert f"line 7: n_CC must be at most 2**49, got {text}" in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "o").exists()

    def test_counts_at_bound_sum_exactly(self, sim_dir, tmp_path):
        """Every count of the first series at MAX_COUNT: its n_coinc is the
        exact sum of its kept counts."""
        def edit(data):
            for row in data[:2]:
                row[5:11] = [str(MAX_COUNT)] * 6

        assert self.estimate_edited(sim_dir, tmp_path, edit) == 0
        first = (tmp_path / "o" / "estimates.csv").read_text().splitlines()[1]
        kept = len(Setting.QUARTER.kept_labels) + len(Setting.HALF.kept_labels)
        assert first.split(",")[-1] == str(kept * MAX_COUNT)

    @pytest.mark.parametrize("eta_text", ["1.5", "0", "-0.2", "nan"])
    def test_eta_outside_unit_interval_exits_1(self, sim_dir, tmp_path, capsys, eta_text):
        def edit(data):
            data[4][0] = eta_text

        assert self.estimate_edited(sim_dir, tmp_path, edit) == 1
        err = capsys.readouterr().err
        assert f"{tmp_path / 'edited.csv'}: line 6: eta" in err and f"got {eta_text}" in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("width", ["nan", "inf", "-inf", "0", "-0.01"])
    def test_bad_hist_bin_exits_2_before_reading(self, sim_dir, tmp_path, capsys, width):
        rc = main([
            "estimate", "--dataset", str(tmp_path / "missing.csv"), "--manifest", str(sim_dir / "manifest.json"),
            "--out-dir", str(tmp_path / "o"), f"--hist-bin={width}",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"--hist-bin must be a positive finite width, got {float(width)}" in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("width", ["1e-300", "1e-8"])
    def test_too_fine_hist_bin_exits_2_before_writing(self, sim_dir, tmp_path, capsys, width):
        out_dir = tmp_path / "o"
        rc = main(["estimate", "--dataset", str(sim_dir / "dataset.csv"), "--out-dir", str(out_dir), "--hist-bin", width])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"--hist-bin {float(width)!r}: " in err and "bins" in err
        assert len(err.strip().splitlines()) == 1
        assert not out_dir.exists() or not any(out_dir.iterdir())

    @pytest.mark.parametrize("width", ["1e308", "1.7e308"])
    def test_hist_bin_edges_past_float_range_exit_2(self, tmp_path, capsys, width):
        """Estimates of both signs put the snapped edges at -width and +width,
        whose span overflows."""
        config_path = tmp_path / "c.cfg"
        config_path.write_text("eta_list = 0.361\nprobe = noon\nphases = 0.0\nseries = 2\nevents = 40\nseed = 1\n")
        sim, out_dir = tmp_path / "sim", tmp_path / "o"
        assert main(["simulate", "--config", str(config_path), "--out-dir", str(sim)]) == 0
        assert main(["estimate", "--dataset", str(sim / "dataset.csv"), "--out-dir", str(tmp_path / "plain")]) == 0
        lines = (tmp_path / "plain" / "estimates.csv").read_text().splitlines()
        phi_hat = [float(line.split(",")[ESTIMATES_COLUMNS.index("phi_hat")]) for line in lines[1:]]
        assert min(phi_hat) < 0.0 < max(phi_hat)
        rc = main(["estimate", "--dataset", str(sim / "dataset.csv"), "--out-dir", str(out_dir), "--hist-bin", width])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"--hist-bin {float(width)!r}: " in err and "float range" in err
        assert len(err.strip().splitlines()) == 1
        assert not out_dir.exists() or not any(out_dir.iterdir())

    def test_hist_bin_near_float_range_bins_each_sign(self, tmp_path):
        """At --hist-bin 1e300 the edges are -1e300, 0 and 1e300: each of the
        two estimates, one of each sign, lands in the bin of its sign."""
        config_path = tmp_path / "c.cfg"
        config_path.write_text("eta_list = 0.361\nprobe = noon\nphases = 0.0\nseries = 2\nevents = 40\nseed = 1\n")
        sim, out_dir = tmp_path / "sim", tmp_path / "o"
        assert main(["simulate", "--config", str(config_path), "--out-dir", str(sim)]) == 0
        assert main(["estimate", "--dataset", str(sim / "dataset.csv"), "--out-dir", str(out_dir), "--hist-bin", "1e300"]) == 0
        lines = (out_dir / "histograms.csv").read_text().splitlines()
        assert [line.split(",")[-3:] for line in lines[1:]] == [["-1e+300", "0", "1"], ["0", "1e+300", "1"]]

    def test_hist_bin_budget_covers_the_whole_file(self, tmp_path, capsys):
        """Six groups each under MAX_BINS bins at 1e-6 rad, together over it."""
        config_path = tmp_path / "c.cfg"
        config_path.write_text("eta_list = 0.361, 0.547\nprobe = noon\nphases = -0.02, 0.0, 0.02\nseries = 30\nevents = 300\n")
        sim, out_dir = tmp_path / "sim", tmp_path / "o"
        assert main(["simulate", "--config", str(config_path), "--out-dir", str(sim)]) == 0
        rc = main(["estimate", "--dataset", str(sim / "dataset.csv"), "--out-dir", str(out_dir), "--hist-bin", "1e-6"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--hist-bin 1e-06: " in err and "over all groups" in err
        assert len(err.strip().splitlines()) == 1
        assert not out_dir.exists() or not any(out_dir.iterdir())

    @pytest.mark.parametrize("setting", ["quarter", "half"])
    def test_signed_zero_phase_within_a_series(self, sim_dir, tmp_path, setting):
        """A series whose rows spell phi_true 0 and -0 is one series, and
        estimates.csv and report.csv print its first row's spelling."""
        def edit(data):
            for row in data:
                if row[:5] == ["0.361", "optimal", "0", setting, "0"]:
                    row[2] = "-0"

        assert self.estimate_edited(sim_dir, tmp_path, edit) == 0
        assert main(["estimate", "--dataset", str(sim_dir / "dataset.csv"), "--out-dir", str(tmp_path / "plain")]) == 0
        for name, first_line in (("estimates.csv", "0.361,optimal,0,0,"), ("report.csv", "0.361,optimal,0,")):
            expected = (tmp_path / "plain" / name).read_text()
            if setting == "quarter":  # the first row of series 0, and so of its group
                expected = expected.replace("\n" + first_line, "\n" + first_line.replace(",0,", ",-0,", 1), 1)
                assert "-0" in expected
            assert (tmp_path / "o" / name).read_text() == expected

    @pytest.mark.parametrize("eta_text", [None, "0.3610"], ids=["same-text", "same-value"])
    def test_duplicate_row_exits_1(self, sim_dir, tmp_path, capsys, eta_text):
        def edit(data):
            copy = list(data[1])
            copy[0] = eta_text or copy[0]
            data.append(copy)

        assert self.estimate_edited(sim_dir, tmp_path, edit) == 1
        err = capsys.readouterr().err
        # data line 1 is file line 3; its copy, data line 73, is file line 74
        assert "line 74:" in err and "line 3 " in err
        assert len(err.strip().splitlines()) == 1

    def test_degenerate_series_names_first_in_dataset_order(self, sim_dir, tmp_path, capsys):
        """Zero-coincidence series in both transmission blocks: the one met
        first in the file is named, although its block is estimated second."""
        first, later = ("0.547", "0", "3"), ("0.361", "0.04", "5")

        def edit(data):
            for parts in data:
                if (parts[0], parts[2], parts[4]) in (first, later):
                    parts[5:11] = ["0"] * 6
            # move the 0.361 series behind every 0.547 row
            data.sort(key=lambda parts: (parts[0], parts[2], parts[4]) == later)

        assert self.estimate_edited(sim_dir, tmp_path, edit) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert "series eta=0.547 probe=optimal phi_true=0 series_id=3:" in err
        assert "no registered coincidences" in err

    @pytest.mark.parametrize(
        "text, named",
        [
            ('{"command": "simulate"}', "config"),
            ('{"config": {"probe": "noon", "phases": [0.0], "series": 2, "events": 10, "seed": 0}}', "eta_list"),
            ('{"config": ', "JSON"),
            ('[1, 2]', "config"),
            (
                '{"config": {"eta_list": [0.361], "probe": "bogus", "phases": [0.0], "series": 2, "events": 10, "seed": 0}}',
                "probe",
            ),
            (manifest_text(include_cc="false"), "include_cc"),
            (manifest_text(poissonize_m="no"), "poissonize_m"),
            (manifest_text(seed=3.5), "seed"),
            (manifest_text(events=True), "events"),
            (manifest_text(drop="epsilon"), "epsilon"),
        ],
        ids=[
            "no-config", "no-eta-list", "malformed-json", "not-an-object", "unknown-probe",
            "string-include-cc", "string-poissonize-m", "float-seed", "bool-events", "no-epsilon",
        ],
    )
    def test_bad_manifest_exits_1(self, sim_dir, tmp_path, capsys, text, named):
        manifest = tmp_path / "bad.manifest.json"
        manifest.write_text(text)
        rc = main([
            "estimate", "--dataset", str(sim_dir / "dataset.csv"), "--manifest", str(manifest),
            "--out-dir", str(tmp_path / "o"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert str(manifest) in err and named in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "o").exists()


def _edit_design(edit):
    """A change to the design list of the SMALL_CONFIG simulate manifest."""
    def change(manifest):
        edit(manifest["design"])
    return change


def _set(index, key, value):
    return _edit_design(lambda design: design[index].__setitem__(key, value))


class TestDesignReplay:
    """estimate rebuilds its models from the design the simulate manifest records."""

    @staticmethod
    def expected_outputs(sim_dir) -> tuple[str, str]:
        """estimates.csv and report.csv text from in-process estimation with
        designs optimised afresh, formatted field by field."""
        manifest = json.loads((sim_dir / "manifest.json").read_text())
        config, include_cc = config_from_dict(manifest["config"])
        dataset = read_dataset_csv(sim_dir / "dataset.csv", config)
        estimates = estimate_dataset(dataset, include_cc=include_cc)
        report = analyze(estimates)
        estimate_rows = [
            [_fmt(eta), probe.value, _fmt(phi), _fmt(series_id), *map(_fmt, (phi_hat, loglik, n_coinc))]
            for (eta, probe, phi, series_id), phi_hat, loglik, n_coinc in zip(
                map(estimates.key, range(len(estimates))), estimates.phi_hat, estimates.loglik, estimates.n_coinc
            )
        ]
        report_rows = [
            [_fmt(r.eta), r.probe.value, *map(_fmt, (r.phi_true, r.mean, r.sigma, r.m_bar, r.sigma_scaled, r.crb))]
            for r in report
        ]
        return tuple(
            "\n".join(",".join(row) for row in [header, *rows]) + "\n"
            for header, rows in ((ESTIMATES_COLUMNS, estimate_rows), (REPORT_COLUMNS, report_rows))
        )

    @pytest.mark.parametrize("probe", ["optimal", "noon"])
    @pytest.mark.parametrize(
        "imperfections", ["", "epsilon = 0.02\ndelta = 0.1\nlambda_hom = 0.95\nv_classical = 0.97\n"], ids=["ideal", "imperfect"]
    )
    def test_estimate_matches_fresh_optimisation(self, tmp_path, probe, imperfections):
        config_path = tmp_path / "c.cfg"
        config_path.write_text(SMALL_CONFIG + imperfections)
        sim, est = tmp_path / "sim", tmp_path / "est"
        assert main(["simulate", "--config", str(config_path), "--out-dir", str(sim), "--probe", probe]) == 0
        assert main(["estimate", "--dataset", str(sim / "dataset.csv"), "--out-dir", str(est)]) == 0
        estimates, report = self.expected_outputs(sim)
        assert (est / "estimates.csv").read_text() == estimates
        assert (est / "report.csv").read_text() == report

    def test_estimate_does_not_optimise(self, sim_dir, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("estimate must replay the recorded design")

        for module in (bounds, montecarlo):
            monkeypatch.setattr(module, "optimize_weights", refuse)
        monkeypatch.setattr(montecarlo, "optimize_theta_d", refuse)
        assert main(["estimate", "--dataset", str(sim_dir / "dataset.csv"), "--out-dir", str(tmp_path / "est")]) == 0
        assert len((tmp_path / "est" / "report.csv").read_text().splitlines()) == 1 + 2 * 3

    def test_estimate_manifest_lists_replayed_entries(self, sim_dir, tmp_path):
        assert main(["estimate", "--dataset", str(sim_dir / "dataset.csv"), "--out-dir", str(tmp_path / "est")]) == 0
        recorded = json.loads((tmp_path / "est" / "estimate.manifest.json").read_text())["design"]
        assert recorded == json.loads((sim_dir / "manifest.json").read_text())["design"]

    def test_estimate_manifest_lists_only_replayed_entries(self, tmp_path):
        """A dataset of one transmission replays one of the two entries."""
        config_path = tmp_path / "c.cfg"
        config_path.write_text(SMALL_CONFIG.replace("probe = optimal", "probe = noon"))
        sim, est = tmp_path / "sim", tmp_path / "est"
        assert main(["simulate", "--config", str(config_path), "--out-dir", str(sim)]) == 0
        lines = (sim / "dataset.csv").read_text().splitlines()
        subset = tmp_path / "subset.csv"
        subset.write_text("\n".join([lines[0], *(line for line in lines[1:] if line.startswith("0.547,"))]) + "\n")
        assert main(["estimate", "--dataset", str(subset), "--manifest", str(sim / "manifest.json"), "--out-dir", str(est)]) == 0
        recorded = json.loads((est / "estimate.manifest.json").read_text())["design"]
        assert recorded == json.loads((sim / "manifest.json").read_text())["design"][1:]

    def test_repeated_entry_of_an_unused_eta_exits_1(self, tmp_path, capsys):
        """Two entries of one probe and printed eta are rejected when the
        manifest loads, also for an eta the dataset does not hold."""
        config_path = tmp_path / "c.cfg"
        config_path.write_text(SMALL_CONFIG.replace("probe = optimal", "probe = noon"))
        sim = tmp_path / "sim"
        assert main(["simulate", "--config", str(config_path), "--out-dir", str(sim)]) == 0
        lines = (sim / "dataset.csv").read_text().splitlines()
        subset = tmp_path / "subset.csv"
        subset.write_text("\n".join([lines[0], *(line for line in lines[1:] if line.startswith("0.547,"))]) + "\n")
        manifest = json.loads((sim / "manifest.json").read_text())
        manifest["design"].append(dict(manifest["design"][0], x0=0.5, x1=0.0, x2=0.5))
        path = tmp_path / "repeated.manifest.json"
        path.write_text(json.dumps(manifest))
        assert main(["estimate", "--dataset", str(subset), "--manifest", str(path), "--out-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert f"manifest {path}: design[2] repeats design[0] (probe=noon eta=0.361)" in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "o").exists()

    def test_eta_with_fifteen_digits_finds_its_entry(self, tmp_path):
        eta = 0.361234567891234
        config_path = tmp_path / "c.cfg"
        config_path.write_text(f"eta_list = {eta!r}\nprobe = noon\nphases = -0.04, 0.04\nseries = 4\nevents = 300\nseed = 2\n")
        sim, est = tmp_path / "sim", tmp_path / "est"
        assert main(["simulate", "--config", str(config_path), "--out-dir", str(sim)]) == 0
        assert (sim / "dataset.csv").read_text().splitlines()[1].startswith("0.361234567891,noon,")
        assert main(["estimate", "--dataset", str(sim / "dataset.csv"), "--out-dir", str(est)]) == 0
        assert json.loads((est / "estimate.manifest.json").read_text())["design"][0]["eta"] == eta

    @pytest.mark.parametrize(
        "edit, named",
        [
            (lambda manifest: manifest.pop("design"), "'design'"),
            (lambda manifest: manifest.__setitem__("design", {}), "'design'"),
            (_edit_design(lambda design: design.pop(1)), "no design entries for probe=optimal eta=0.547"),
            (_edit_design(lambda design: design.append(dict(design[0]))), "design[2] repeats design[0] (probe=optimal eta=0.361)"),
            (_set(1, "eta", 0.54700000001), "no design entries for probe=optimal eta=0.547"),
            (_set(0, "probe", "noon"), "no design entries for probe=optimal eta=0.361"),
            (_edit_design(lambda design: design.__setitem__(0, [0.361])), "design[0]"),
            (_edit_design(lambda design: design[0].pop("x0")), "design[0] lacks required field 'x0'"),
            (_set(0, "x1", "0.2"), "design[0].x1"),
            (_set(0, "eta", True), "design[0].eta"),
            (_set(0, "probe", "bogus"), "design[0].probe"),
            (_set(1, "theta_d", math.nan), "design[1].theta_d"),
            (_set(0, "conditional_phase", math.inf), "design[0].conditional_phase"),
            (_set(0, "x2", 10**400), "design[0].x2"),
            (_set(0, "x1", -0.1), "x1 must be non-negative"),
            (_set(0, "x0", 0.5), "weights must sum to one"),
            (_edit_design(lambda design: design[0].update(x0=0.5, x1=0.5, x2=0.0)), "x2 = 0"),
            (_set(1, "theta_d", 1.5), "theta_d must be in [0, 1]"),
            (_set(1, "theta_d", -0.01), "theta_d must be in [0, 1]"),
        ],
        ids=[
            "no-design", "design-not-a-list", "no-entry", "two-entries", "eta-other-text", "other-probe",
            "entry-not-an-object", "no-x0", "string-x1", "bool-eta", "unknown-probe", "nan-theta-d",
            "inf-conditional-phase", "huge-x2", "negative-x1", "weights-off-simplex", "x2-zero",
            "theta-d-above-1", "theta-d-below-0",
        ],
    )
    def test_bad_design_exits_1(self, sim_dir, tmp_path, capsys, edit, named):
        manifest = json.loads((sim_dir / "manifest.json").read_text())
        edit(manifest)
        path = tmp_path / "edited.manifest.json"
        path.write_text(json.dumps(manifest))
        rc = main([
            "estimate", "--dataset", str(sim_dir / "dataset.csv"), "--manifest", str(path), "--out-dir", str(tmp_path / "o"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"manifest {path}: " in err and named in err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert not (tmp_path / "o").exists()


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_BOOL_TEXT = st.sampled_from(["true", "False", "1", "0", "yes", "no", "on", "OFF"])


def _float_list_text(elements):
    return st.lists(elements, min_size=1, max_size=4, unique=True).map(lambda values: ", ".join(map(repr, values)))


#: Valid config-file text of every schema key.
VALUE_TEXT = {
    "eta_list": _float_list_text(st.floats(0.0, 1.0, exclude_min=True)),
    "probe": st.sampled_from(["optimal", "noon", "NOON", "Optimal"]),
    "phases": _float_list_text(_FINITE),
    "series": st.integers(1, 10**6).map(str),
    "events": st.integers(1, 10**6).map(str),
    "seed": st.integers(0, 2**70).map(str),
    "epsilon": st.floats(0.0, 1.0).map(repr),
    "delta": _FINITE.map(repr),
    "lambda_hom": st.floats(0.0, 1.0).map(repr),
    "v_classical": st.floats(0.0, 1.0).map(repr),
    "poissonize_m": _BOOL_TEXT,
    "include_cc": _BOOL_TEXT,
}


@st.composite
def config_texts(draw):
    """Valid config text: any subset of the schema keys, in any order, with comments."""
    values = draw(st.fixed_dictionaries({}, optional=VALUE_TEXT))
    lines = [f"{key} = {value}" for key, value in values.items()]
    lines = draw(st.permutations(lines)) + draw(st.lists(st.just("# comment"), max_size=2))
    return "\n".join(lines) + "\n"


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)


def parses_or_rejects(build) -> None:
    """``build()`` returns or raises ConfigError/ValueError, never anything else."""
    try:
        build()
    except (ConfigError, ValueError):
        pass


class TestConfigSchema:
    """parse_config, the simulate manifest and config_from_dict share one schema."""

    def test_strategies_cover_the_schema(self):
        assert set(VALUE_TEXT) == set(_FIELDS)

    def test_every_imperfection_is_a_config_key(self):
        """Every model input of a run can be set in a config file and is
        written to the simulate manifest."""
        manifest_config = _config_dict(ExperimentConfig(), True)
        for field in fields(ImperfectionParams):
            assert _FIELDS.get(field.name, (None,))[0] == field.name
            assert field.name in manifest_config

    @given(config_texts())
    def test_round_trip(self, text):
        with mock.patch.dict(os.environ):
            os.environ.pop(SEED_ENV_VAR, None)
            kwargs, include_cc = parse_config(text)
        config = ExperimentConfig(**kwargs)
        manifest_config = json.loads(json.dumps(_config_dict(config, include_cc)))
        assert list(manifest_config) == list(_FIELDS)
        assert config_from_dict(manifest_config) == (config, include_cc)

    @given(st.text())
    def test_any_text(self, text):
        parses_or_rejects(lambda: ExperimentConfig(**parse_config(text)[0]))

    @given(st.lists(st.tuples(st.sampled_from(list(_FIELDS)) | st.text(max_size=8), st.text(max_size=12))))
    def test_any_key_value_lines(self, pairs):
        text = "\n".join(f"{key} = {value}" for key, value in pairs)
        parses_or_rejects(lambda: ExperimentConfig(**parse_config(text)[0]))

    @given(st.dictionaries(st.sampled_from(list(_FIELDS)) | st.text(max_size=8), _JSON))
    def test_any_json_object(self, data):
        parses_or_rejects(lambda: config_from_dict(data))

    @given(st.sampled_from(list(_FIELDS)), _JSON)
    @example("epsilon", 10**400)
    @example("eta_list", [10**400])
    def test_one_json_value_replaced(self, key, value):
        parses_or_rejects(lambda: config_from_dict({**SMALL_MANIFEST_CONFIG, key: value}))


def _csv_float(value: float) -> float:
    """The float a dataset CSV stores for ``value``."""
    return float(_fmt(value))


@st.composite
def datasets(draw):
    """Datasets of unique rows over three etas and four phases, whose zero
    phase, if any, may be -0.0."""
    etas = draw(st.lists(st.floats(0.01, 1.0).map(_csv_float), min_size=3, max_size=3, unique=True))
    phases = draw(st.lists(_FINITE.map(_csv_float), min_size=4, max_size=4, unique=True))
    phases = [-0.0 if phi == 0.0 and draw(st.booleans()) else phi for phi in phases]
    keys = st.tuples(st.integers(0, 2), st.integers(0, 1), st.integers(0, 3), st.integers(0, 1), st.integers(-5, 2**63 - 1))
    rows = draw(st.lists(keys, max_size=20, unique=True))
    counts = draw(st.lists(st.lists(st.integers(0, MAX_COUNT), min_size=6, max_size=6), min_size=len(rows), max_size=len(rows)))
    seeds = draw(st.lists(st.integers(0, 2**64 - 1), min_size=len(rows), max_size=len(rows)))
    columns = np.array(rows, dtype=np.int64).reshape(-1, 5).T
    return EventDataset(
        ExperimentConfig(),
        eta=np.array(etas)[columns[0]],
        probe=columns[1],
        phi_true=np.array(phases)[columns[2]],
        setting=columns[3],
        series_id=columns[4],
        counts=np.array(counts, dtype=np.int64).reshape(-1, 6),
        seed_used=np.array(seeds, dtype=np.uint64),
    )


class TestDatasetRoundTrip:
    @given(datasets())
    def test_write_read_write_is_byte_identical(self, tmp_path_factory, dataset):
        first, second = (tmp_path_factory.mktemp("rt") / "dataset.csv" for _ in range(2))
        write_dataset_csv(first, dataset)
        parsed = read_dataset_csv(first, ExperimentConfig())
        write_dataset_csv(second, parsed)
        assert second.read_bytes() == first.read_bytes()
        np.testing.assert_array_equal(np.signbit(parsed.phi_true), np.signbit(dataset.phi_true))
        for name in ("eta", "probe", "phi_true", "setting", "series_id", "counts", "seed_used"):
            np.testing.assert_array_equal(getattr(parsed, name), getattr(dataset, name))

    def test_simulated_and_parsed_datasets_hold_one_layout(self, tmp_path):
        """Every column of a campaign has the dtype, shape and bits of the
        same column parsed back from its written CSV."""
        config = ExperimentConfig(eta_list=(0.361, 0.547), phase_list=(-0.02, 0.0), series_count=3, events_per_series=200)
        dataset = montecarlo.run_campaign(config)
        path = tmp_path / "dataset.csv"
        write_dataset_csv(path, dataset)
        parsed = read_dataset_csv(path, config)
        columns = [f.name for f in fields(EventDataset) if f.name != "config"]
        assert len(columns) == 7
        for name in columns:
            simulated, read = getattr(dataset, name), getattr(parsed, name)
            assert (read.dtype, read.shape) == (simulated.dtype, simulated.shape), name
            assert read.tobytes() == simulated.tobytes(), name

    @given(datasets().filter(lambda d: len(d.series_id) > 0), st.data())
    def test_value_equal_duplicate_rejected_with_its_line(self, tmp_path_factory, dataset, data):
        path = tmp_path_factory.mktemp("dup") / "dataset.csv"
        write_dataset_csv(path, dataset)
        header, *rows = path.read_text().splitlines()
        k = data.draw(st.integers(0, len(rows) - 1))
        at = data.draw(st.integers(0, len(rows)))
        rows.insert(at, "+" + rows[k])  # eta spelled differently, same value
        path.write_text("\n".join([header, *rows]) + "\n")
        original, copy = (k + 3, at + 2) if at <= k else (k + 2, at + 2)
        later, earlier = max(original, copy), min(original, copy)
        with pytest.raises(ConfigError, match=f": line {later}: duplicates line {earlier} "):
            read_dataset_csv(path, ExperimentConfig())


#: A small N00N campaign whose dataset rows the fuzz below mutates.
FUZZ_CONFIG = "eta_list = 0.361\nprobe = noon\nphases = 0.0, 0.04\nseries = 3\nevents = 200\nseed = 4\n"

#: Texts a mutation writes into a field: values of other columns, integers
#: at and beyond the int64 and uint64 ranges, and malformed numbers.
_FIELD_TEXTS = (
    st.sampled_from([
        "", " ", "-0", "+3", "1_0", "0x1f", "nan", "inf", "-inf", "1e999", "0.3610", "1.5", "0", "noon", "optimal",
        "quarter", "half", "9223372036854775807", "-9223372036854775809", "18446744073709551616", "9" * 30,
    ])
    | st.integers(-(2**65), 2**65).map(str)
    | st.text(max_size=4)
)


@st.composite
def mutated_rows(draw, rows: list[str]) -> list[str]:
    """``rows`` after one to three edits: a field replaced, dropped or added,
    a row copied, dropped or moved, or a line inserted."""
    rows = list(rows)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(rows) - 1))
        fields_ = rows[i].split(",")
        edit = draw(st.sampled_from(["replace", "drop", "add", "copy", "delete", "move", "insert"]))
        if edit in ("replace", "drop", "add"):
            k = draw(st.integers(0, len(fields_) - 1))
            if edit == "replace":
                fields_[k] = draw(_FIELD_TEXTS)
            elif edit == "drop":
                del fields_[k]
            else:
                fields_.insert(k, draw(_FIELD_TEXTS))
            rows[i] = ",".join(fields_)
        elif edit == "insert":
            rows.insert(i, draw(st.sampled_from(["", "   ", rows[i] + ","]) | st.text(max_size=12)))
        elif len(rows) > 1:
            row = rows[i] if edit == "copy" else rows.pop(i)
            if edit != "delete":
                rows.insert(draw(st.integers(0, len(rows))), row)
    return rows


@pytest.fixture(scope="module")
def fuzz_sim(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "c.cfg").write_text(FUZZ_CONFIG)
    assert main(["simulate", "--config", str(root / "c.cfg"), "--out-dir", str(root / "sim")]) == 0
    return root / "sim"


class TestDatasetFuzz:
    @given(st.data())
    def test_mutated_rows_end_with_a_designed_exit(self, fuzz_sim, tmp_path_factory, data):
        """estimate ends with exit 0, 1 or 2 and at most one stderr line, warnings
        included: none of them escapes as a traceback."""
        header, *rows = (fuzz_sim / "dataset.csv").read_text().splitlines()
        path = tmp_path_factory.mktemp("mutated") / "dataset.csv"
        path.write_text("\n".join([header, *data.draw(mutated_rows(rows))]) + "\n")
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main([
                "estimate", "--dataset", str(path), "--manifest", str(fuzz_sim / "manifest.json"),
                "--out-dir", str(path.parent / "o"),
            ])
        assert rc in (0, 1, 2)
        assert len(stderr.getvalue().splitlines()) == (rc != 0)


#: Transmissions of the generated campaigns: edges that stopped runs before,
#: and any value in (0, 1].
_GUARD_ETAS = st.sampled_from([1e-300, 1e-14, 1e-12, 1.0]) | st.floats(0.0, 1.0, exclude_min=True)
#: Phases of the generated campaigns: the search interval's edges, phases
#: outside it, and any value in [-4, 4].
_GUARD_PHASES = st.sampled_from([0.0, math.pi / 2, -math.pi / 2, 2.0, -3.5, 100.0]) | st.floats(-4.0, 4.0)
#: An imperfection bounded to [0, 1]: at its bounds or inside them.
_UNIT = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def small_campaigns(draw) -> dict:
    """Config values of a small campaign: 1-3 etas and phases, 1-4 series of
    1-300 events, either probe and toggle, and the imperfections."""
    return {
        "eta_list": draw(st.lists(_GUARD_ETAS, min_size=1, max_size=3, unique=True)),
        "phases": draw(st.lists(_GUARD_PHASES, min_size=1, max_size=3, unique=True)),
        "probe": draw(st.sampled_from(["optimal", "noon"])),
        "series": draw(st.integers(1, 4)),
        "events": draw(st.integers(1, 300)),
        "seed": draw(st.integers(0, 2**32 - 1)),
        "poissonize_m": draw(st.booleans()),
        "include_cc": draw(st.booleans()),
        "epsilon": draw(_UNIT),
        "delta": draw(st.sampled_from([0.0]) | st.floats(-4.0, 4.0)),
        "lambda_hom": draw(_UNIT),
        "v_classical": draw(_UNIT),
    }


def stopped_at_degenerate(err: str) -> bool:
    """Whether estimate stopped at a degenerate series or group, with exit 2:
    a series without phase information, as a few events can leave (events =
    3), or a group of fewer than two estimates (series = 1). The first one
    ends the run today; once they are counted in the report instead, this
    one predicate changes."""
    return any(reason in err for reason in ("likelihood is", "no registered coincidences", "fewer than 2 estimates"))


def read_table(path: Path, header) -> list[list]:
    """The rows of a CSV an estimate writes under ``header``: probe as text,
    every other field as a number."""
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(header)
    rows = [line.split(",") for line in lines[1:]]
    assert all(len(row) == len(header) for row in rows)
    return [[text if name == "probe" else float(text) for name, text in zip(header, row)] for row in rows]


class TestGeneratedCampaigns:
    """simulate then estimate of generated small campaigns, in process on one
    worker: a designed exit with one diagnostic line, or outputs of the
    expected size that parse back, never a traceback."""

    @staticmethod
    def run(argv) -> tuple[int, str]:
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        return code, stderr.getvalue()

    @settings(max_examples=200)
    @given(small_campaigns())
    def test_designed_exit_or_complete_outputs(self, tmp_path_factory, values):
        root = tmp_path_factory.mktemp("generated")
        text = "".join(f"{key} = {', '.join(map(repr, v)) if isinstance(v, list) else v}\n" for key, v in values.items())
        (root / "c.cfg").write_text(text)
        sim, est = root / "sim", root / "est"
        with mock.patch.object(workers, "cpu_count", lambda: 1):
            code, err = self.run(["simulate", "--config", str(root / "c.cfg"), "--out-dir", str(sim)])
            estimated = code == 0
            if estimated:
                code, err = self.run(["estimate", "--dataset", str(sim / "dataset.csv"), "--out-dir", str(est), "--hist-bin", "0.01"])
        assert code in (0, 1, 2)
        assert (err.startswith("error: ") and len(err.splitlines()) == 1) if code else err == ""
        if code:
            assert not est.exists()
            # estimate reads what simulate wrote: it stops only where the design carries no information or at degeneracy
            assert not estimated or code == 2 and (stopped_at_degenerate(err) or "positive Cramér-Rao bound" in err)
            return
        groups = len(values["eta_list"]) * len(values["phases"])
        config, _ = config_from_dict(json.loads((sim / "manifest.json").read_text())["config"])
        assert len(read_dataset_csv(sim / "dataset.csv", config).series_id) == groups * values["series"] * 2
        assert len(read_table(est / "estimates.csv", ESTIMATES_COLUMNS)) == groups * values["series"]
        assert len(read_table(est / "report.csv", REPORT_COLUMNS)) == groups
        bins = read_table(est / "histograms.csv", ("eta", "probe", "phi_true", "bin_left", "bin_right", "count"))
        assert sum(row[-1] for row in bins) == groups * values["series"]
        assert (est / "estimate.manifest.json").exists()


class TestNumberSpelling:
    """estimate reads only the number spellings write_dataset_csv writes;
    int and float would also take whitespace, ``_``, ``+`` and non-ASCII
    digits."""

    @staticmethod
    def estimate_with(fuzz_sim, tmp_path, column, text):
        """estimate on the fuzz dataset with ``column`` of line 9 (phi_true
        0.04, series 0, half setting) replaced by ``text``."""
        header, *rows = (fuzz_sim / "dataset.csv").read_text().splitlines()
        parts = rows[7].split(",")
        assert parts[:5] == ["0.361", "noon", "0.04", "half", "0"]
        parts[DATASET_COLUMNS.index(column)] = text
        rows[7] = ",".join(parts)
        path = tmp_path / "dataset.csv"
        path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        return main([
            "estimate", "--dataset", str(path), "--manifest", str(fuzz_sim / "manifest.json"),
            "--out-dir", str(tmp_path / "o"),
        ])

    @pytest.mark.parametrize("column", ["series_id", "n_AA", "n_CC", "seed_used"])
    @pytest.mark.parametrize(
        "text",
        ["1_0", "\u0663", " 7 ", "+4", "7\t", "\uff17", "--4", "4-"],
        ids=["underscore", "arabic-indic", "spaces", "plus", "tab", "fullwidth", "two-minus", "trailing-minus"],
    )
    def test_integer_spelling_exits_1(self, fuzz_sim, tmp_path, capsys, column, text):
        assert self.estimate_with(fuzz_sim, tmp_path, column, text) == 1
        err = capsys.readouterr().err
        assert f"line 9: {column} must be an integer of ASCII digits, got {text!r}" in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("column", ["eta", "phi_true"])
    @pytest.mark.parametrize("spell", [
        lambda text: text[:-1] + "_" + text[-1],
        lambda text: " " + text,
        lambda text: text + "\t",
        lambda text: "\u0660" + text[1:],
    ], ids=["underscore", "leading-space", "trailing-tab", "arabic-indic"])
    def test_float_spelling_exits_1(self, fuzz_sim, tmp_path, capsys, column, spell):
        value = {"eta": "0.361", "phi_true": "0.04"}[column]
        text = spell(value)
        assert float(text) == float(value)  # the row's own value, spelled otherwise
        assert self.estimate_with(fuzz_sim, tmp_path, column, text) == 1
        err = capsys.readouterr().err
        assert f"line 9: {column} must be a decimal number, got {text!r}" in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "o").exists()

    def test_digits_beyond_the_int_limit_exit_1(self, fuzz_sim, tmp_path, capsys):
        assert self.estimate_with(fuzz_sim, tmp_path, "seed_used", "9" * 5000) == 1
        err = capsys.readouterr().err
        assert "line 9: series_id, a count or seed_used is out of range" in err
        assert len(err.strip().splitlines()) == 1

    def test_wide_count_past_the_range_exits_1(self, fuzz_sim, tmp_path, capsys):
        """A count of 100,000 characters whose first digit is not 0."""
        assert self.estimate_with(fuzz_sim, tmp_path, "n_AA", "9" + "0" * 99_998 + "7") == 1
        err = capsys.readouterr().err
        assert "line 9: series_id, a count or seed_used is out of range" in err
        assert len(err.strip().splitlines()) == 1

    def test_bad_row_after_a_wide_count_named(self, fuzz_sim, tmp_path):
        """A count zero-padded past the 4,300 digits ``int`` reads, then a bad
        row in the same block: the bad row is named."""
        lines = (fuzz_sim / "dataset.csv").read_text().splitlines()
        TestDatasetBlocks.set_field(lines, 5, "n_AA", "0" * 99_999 + "7")
        TestDatasetBlocks.set_field(lines, 9, "n_CC", "x")
        path = tmp_path / "dataset.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match=": line 9: n_CC must be an integer of ASCII digits, got 'x'$"):
            read_dataset_csv(path, ExperimentConfig())

    @pytest.mark.parametrize("text", ["-0", "007", pytest.param("0" * 99_999 + "7", id="100000-wide")])
    def test_ascii_digit_counts_still_read(self, fuzz_sim, tmp_path, text):
        assert self.estimate_with(fuzz_sim, tmp_path, "n_AA", text) == 0


#: A campaign of 100 eta x 200 phases x 2**32 series: its substream keys are
#: 1.03e15 int64 words, more than numpy can allocate.
_UNALLOCATABLE_CONFIG = (
    f"eta_list = {', '.join(str(k / 1000) for k in range(1, 101))}\n"
    f"phases = {', '.join(str(k / 1000) for k in range(200))}\n"
    f"series = {2**32}\n"
)


class TestDiagnostics:
    """Bad inputs end with their designed exit code and one stderr line, before
    any output is written. Sizes are 10**15 elements or more, which numpy
    refuses before it allocates anything."""

    @staticmethod
    def run(kind, value, fuzz_sim, tmp_path) -> int:
        """The command ``kind`` with ``value``, its outputs under tmp_path / "o"."""
        out = tmp_path / "o"
        dataset, manifest = fuzz_sim / "dataset.csv", fuzz_sim / "manifest.json"
        if kind == "config":
            (tmp_path / "c.cfg").write_text(value)
            return main(["simulate", "--config", str(tmp_path / "c.cfg"), "--out-dir", str(out)])
        if kind in ("bounds", "fringes"):
            return main([kind, *value, "--out", str(out / "t.csv")])
        if kind == "dataset":
            dataset = tmp_path / "dataset.csv"
            dataset.write_text(value)
        elif kind == "manifest":
            data = json.loads(manifest.read_text())
            data["config"].update(value)
            manifest = tmp_path / "manifest.json"
            manifest.write_text(json.dumps(data))
        elif kind == "campaign":  # the config simulated, then its dataset estimated
            (tmp_path / "c.cfg").write_text(value)
            assert main(["simulate", "--config", str(tmp_path / "c.cfg"), "--out-dir", str(tmp_path / "sim")]) == 0
            dataset, manifest = tmp_path / "sim" / "dataset.csv", tmp_path / "sim" / "manifest.json"
        else:
            return TestNumberSpelling.estimate_with(fuzz_sim, tmp_path, *value)
        return main(["estimate", "--dataset", str(dataset), "--manifest", str(manifest), "--out-dir", str(out)])

    @pytest.mark.parametrize("kind, value, code, message", [
        pytest.param("config", "poissonize_m = maybe\n", 1, "line 1: expected a boolean for poissonize_m, got 'maybe'",
                     id="bool-spelling"),
        pytest.param("config", "series = 2\nseries = 3\n", 1, "line 2: duplicate key 'series'", id="repeated-key"),
        pytest.param("bounds", ["--steps", "0"], 2, "--steps must be positive, got 0", id="zero-steps"),
        pytest.param("dataset", "", 1, "empty dataset file", id="empty-dataset"),
        pytest.param("dataset", ",".join(DATASET_COLUMNS) + ",extra\n", 1, "expected 12 columns, found 13",
                     id="13-columns"),
        pytest.param("manifest", {"series": 0}, 1, "invalid config: series_count must be at least 1",
                     id="manifest-zero-series"),
        pytest.param("manifest", {"eta_list": [1.5]}, 1, "invalid config: eta_list must be non-empty", id="manifest-eta"),
        pytest.param("row", ("series_id", str(2**63)), 1, "line 9: series_id, a count or seed_used is out of range",
                     id="series-id-2**63"),
        pytest.param("row", ("seed_used", str(2**64)), 1, "line 9: series_id, a count or seed_used is out of range",
                     id="seed-used-2**64"),
        pytest.param("row", ("seed_used", "-1"), 1, "line 9: series_id, a count or seed_used is out of range",
                     id="seed-used-negative"),
        pytest.param("bounds", ["--steps", str(10**15)], 2, f"--steps {10**15}: ", id="steps-1e15"),
        pytest.param("bounds", ["--steps", str(10**20)], 2, f"--steps {10**20}: ", id="steps-1e20"),
        pytest.param("fringes", ["--eta", "0.5", "--phi-steps", str(10**15)], 2, f"--phi-steps {10**15}: ",
                     id="phi-steps-1e15"),
        pytest.param("fringes", ["--eta", "0.5", "--phi-steps", str(10**20)], 2, f"--phi-steps {10**20}: ",
                     id="phi-steps-1e20"),
        pytest.param("config", f"eta_list = 0.361\nphases = 0\nseries = {10**15}\n", 2,
                     f"series must be at most 2**32, got {10**15}", id="series-1e15"),
        pytest.param("config", _UNALLOCATABLE_CONFIG, 2, f"series {2**32}: ", id="unallocatable-campaign"),
        pytest.param("config", f"events = {MAX_COUNT + 1}\n", 2, f"events must be at most 2**49, got {MAX_COUNT + 1}",
                     id="events-above-2**49"),
        pytest.param("manifest", {"events": MAX_COUNT + 1}, 1, "invalid config: events must be at most 2**49",
                     id="manifest-events"),
        pytest.param("campaign", "eta_list = 1e-200\nprobe = noon\nphases = 0\nseries = 2\nevents = 100\n", 2,
                     "eta=1e-200 probe=noon: quantum Fisher information 0.0 gives no finite, positive Cramér-Rao bound",
                     id="zero-fisher-information"),
        # the information 8e-28 is finite here, but no count carries the phase
        pytest.param("campaign", "eta_list = 1e-14\nprobe = noon\nphases = 0\nseries = 2\nevents = 100\n", 2,
                     "series eta=1e-14 probe=noon phi_true=0 series_id=0: likelihood is flat over the search interval",
                     id="flat-likelihood-at-tiny-eta"),
    ])
    def test_bad_input_exits_with_one_line(self, fuzz_sim, tmp_path, capsys, monkeypatch, kind, value, code, message):
        resolved = []  # the etas of each probe_designs call
        monkeypatch.setattr(
            "lossyphase.cli.probe_designs",
            lambda kind, etas, params: resolved.append(etas) or montecarlo.probe_designs(kind, etas, params),
        )
        assert self.run(kind, value, fuzz_sim, tmp_path) == code
        err = capsys.readouterr().err
        assert message in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "o").exists()
        if kind == "config":  # a refused config resolves no design first: a 2**32-series campaign took 3 s of them
            assert resolved == []


class TestOutputPaths:
    """An output that cannot be made or written exits 1 with one line naming
    its path. In each case ``obstacle`` (a file, or a directory for a name
    ending in "/") stands where the command writes. ``{t}`` is tmp_path,
    ``{sim}`` a simulate output directory."""

    @pytest.mark.parametrize("argv, obstacle, named", [
        pytest.param("bounds --steps 3 --out {t}/o", "o/", "o", id="bounds-out-is-a-directory"),
        pytest.param("bounds --steps 3 --out {t}/o.csv", "o.csv.manifest.json/", "o.csv.manifest.json",
                     id="bounds-manifest-is-a-directory"),
        pytest.param("fringes --eta 0.5 --probe noon --out {t}/f/x.csv", "f", "f", id="fringes-out-under-a-file"),
        pytest.param("simulate --config {t}/c.cfg --out-dir {t}/f", "f", "f", id="simulate-out-dir-is-a-file"),
        pytest.param("simulate --config {t}/c.cfg --out-dir {t}/o", "o/manifest.json/", "o/manifest.json",
                     id="simulate-manifest-is-a-directory"),
        pytest.param("estimate --dataset {sim}/dataset.csv --out-dir {t}/f", "f", "f", id="estimate-out-dir-is-a-file"),
        pytest.param("estimate --dataset {sim}/dataset.csv --out-dir {t}/o", "o/report.csv/", "o/report.csv",
                     id="estimate-report-is-a-directory"),
    ])
    def test_unwritable_output_exits_1(self, fuzz_sim, tmp_path, capsys, argv, obstacle, named):
        (tmp_path / "c.cfg").write_text(FUZZ_CONFIG)
        if obstacle.endswith("/"):
            (tmp_path / obstacle).mkdir(parents=True)
        else:
            (tmp_path / obstacle).write_text("")
        assert main(argv.format(t=tmp_path, sim=fuzz_sim).split()) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {tmp_path / named}: ")
        assert len(err.splitlines()) == 1


#: The benchmark's workload definitions; they write the configs it runs.
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


class TestNumberGrammar:
    """Config values, LOSSYPHASE_SEED and the numeric flags read numbers by
    the rules of the dataset parser: ASCII digits after an optional "-" for
    an integer, and for a decimal what ``float`` reads in ASCII without "_"
    or surrounding whitespace."""

    BASE = {"eta_list": "0.361", "phases": "0.0", "series": "2", "events": "20"}

    def simulate_with(self, tmp_path, **values):
        config_path = tmp_path / "c.cfg"
        lines = [f"{key} = {value}" for key, value in {**self.BASE, **values}.items()]
        config_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return main(["simulate", "--config", str(config_path), "--out-dir", str(tmp_path / "o")])

    @pytest.mark.parametrize("key, text", [
        ("series", "1_0"),
        ("events", "2_0"),
        ("seed", "٣"),
        ("seed", "+3"),
        ("events", "２０"),
        ("epsilon", "0.0_1"),
        ("delta", "٠.1"),
        ("phases", "0.0, 0.0_4"),
        ("eta_list", "0.361, ٠.5"),
    ])
    def test_config_spelling_exits_1(self, tmp_path, capsys, key, text):
        assert self.simulate_with(tmp_path, **{key: text}) == 1
        err = capsys.readouterr().err
        assert f"expected {_FIELDS[key][1].expected} for {key}, got {text!r}" in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("env", [" 1_2 ", "1_2", "٣", "+5", " 7", "7\n"])
    def test_env_seed_spelling_exits_1(self, tmp_path, capsys, monkeypatch, env):
        monkeypatch.setenv(SEED_ENV_VAR, env)
        assert self.simulate_with(tmp_path) == 1
        err = capsys.readouterr().err
        assert f"environment variable {SEED_ENV_VAR} must be an integer, got {env!r}" in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, flag, text", [
        ("bounds", "--steps", "1_0"),
        ("bounds", "--eta-min", "0.0_5"),
        ("bounds", "--eta-max", "١"),
        ("fringes", "--phi-steps", "١١"),
        ("fringes", "--counts", "+10"),
        ("fringes", "--seed", "4_2"),
        ("fringes", "--epsilon", "0.0_1"),
        ("fringes", "--eta", "0.3_61"),
        ("simulate", "--seed", "٣"),
        ("simulate", "--eta", " 0.361"),
        ("estimate", "--hist-bin", "0.0_1"),
    ])
    def test_flag_spelling_exits_2(self, tmp_path, capsys, command, flag, text):
        out = tmp_path / "o"
        required = {
            "bounds": ["--out", str(out)],
            "fringes": ["--eta", "0.361", "--out", str(out)],
            "simulate": ["--config", str(tmp_path / "c.cfg"), "--out-dir", str(out)],
            "estimate": ["--dataset", str(tmp_path / "d.csv"), "--out-dir", str(out)],
        }[command]
        with pytest.raises(SystemExit) as exit_info:
            main([command, *required, flag, text])
        assert exit_info.value.code == 2
        assert f"argument {flag}: invalid" in capsys.readouterr().err
        assert not out.exists()

    def test_written_spellings_read(self):
        """The spellings the README, the benchmark workloads and repr write."""
        kwargs, _ = parse_config("eta_list = 0.2, 0.361\nphases = -0.04, 0, 1e-11, -0.0\nseries = 007\nseed = -0\ndelta = 1E-11\n")
        assert kwargs["eta_list"] == (0.2, 0.361)
        assert kwargs["phase_list"] == (-0.04, 0.0, 1e-11, -0.0)
        assert (kwargs["series_count"], kwargs["master_seed"], kwargs["imperfections"].delta) == (7, 0, 1e-11)
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        kwargs, _ = parse_config(readme.split("### Config file", 1)[1].split("```", 2)[1])
        assert kwargs["eta_list"] == (0.2, 0.361, 0.4, 0.547) and kwargs["phase_list"] == (-0.04, 0.0, 0.04)
        args = build_parser().parse_args(["bounds", "--eta-min", "4e-13", "--eta-max", "1", "--steps", "96", "--out", "b"])
        assert (args.eta_min, args.eta_max, args.steps) == (4e-13, 1.0, 96)

    def test_workload_configs_read(self):
        spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
        workloads = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = workloads  # dataclasses look their module up by name
        try:
            spec.loader.exec_module(workloads)
            texts = [
                text
                for scale in (workloads.FULL, workloads.SMALL)
                for plan in (build(0, scale) for build in workloads.WORKLOADS.values())
                for text in plan.files.values()
            ]
        finally:
            del sys.modules[spec.name]
        assert texts
        for text in texts:
            kwargs, _ = parse_config(text)
            assert kwargs["series_count"] >= 1


def block_dataset(n: int) -> EventDataset:
    """n rows with distinct series ids whose prefixes change from row to row."""
    i = np.arange(n)
    return EventDataset(
        ExperimentConfig(),
        eta=np.array([0.361, 0.547, 1.0])[i % 3],
        probe=i % 2,
        phi_true=np.array([0.0, -0.0, 0.04, -1e-11])[i // 3 % 4],
        setting=i // 2 % 2,
        series_id=i,
        counts=(i[:, None] * 7 + np.arange(6)) % 2001,
        seed_used=np.uint64(2**64 - 1) - i.astype(np.uint64),
    )


def one_shot_csv(dataset: EventDataset) -> bytes:
    """The dataset CSV built as one string, each row formatted on its own."""
    d = dataset
    lines = [
        ",".join([
            _fmt(d.eta[i]), PROBES[d.probe[i]].value, _fmt(d.phi_true[i]), SETTINGS[d.setting[i]].value,
            *map(str, [d.series_id[i], *d.counts[i], d.seed_used[i]]),
        ])
        for i in range(len(d.series_id))
    ]
    return ("\n".join([",".join(DATASET_COLUMNS), *lines]) + "\n").encode()


class TestDatasetBlocks:
    """The writers write, and the parser splits, a block of lines at a time;
    bytes and diagnostics do not depend on where the blocks end."""

    @pytest.mark.parametrize("n", [0, 1, _WRITE_BLOCK - 1, _WRITE_BLOCK, _WRITE_BLOCK + 1])
    def test_writer_bytes_match_one_shot_join(self, tmp_path, n):
        path = tmp_path / "dataset.csv"
        dataset = block_dataset(n)
        write_dataset_csv(path, dataset)
        assert path.read_bytes() == one_shot_csv(dataset)
        lines = [f"{k},{k * k}" for k in range(n)]
        _write_lines(path, ("a", "b"), iter(lines))
        assert path.read_bytes() == ("\n".join(["a,b", *lines]) + "\n").encode()

    @given(st.lists(st.sampled_from(["a", ",", "", "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x85", " "])), st.integers(1, 3))
    def test_line_blocks_are_splitlines(self, pieces, size):
        data = "".join(pieces).encode()
        with mock.patch("lossyphase.cli._PARSE_CHUNK", size):
            blocks = list(_blocks(data))
        lines = [data[start : stops[-1] + 1].decode().splitlines() for start, stops in blocks]
        assert [line for block in lines for line in block] == data.decode().splitlines()
        assert all(len(block) >= size for block in lines[:-1])
        assert all(len(block) == size for block in lines[:-1]) or not data.isascii()  # a non-ASCII break ends no block
        assert all(len(stops) == size for _, stops in blocks[:-1])
        starts = [start for start, _ in blocks]
        assert starts == sorted(starts)
        for start in starts[1:]:  # just after an ASCII line break, never inside a "\r\n"
            assert data[start - 1 : start] in b"\n\r\v\f\x1c\x1d\x1e" and data[start - 1 : start + 1] != b"\r\n"

    @staticmethod
    def lines_of(n: int) -> list[str]:
        """The lines of the dataset CSV of ``block_dataset(n)``, header first."""
        return one_shot_csv(block_dataset(n)).decode().splitlines()

    @staticmethod
    def read(tmp_path, lines, newline="\n"):
        path = tmp_path / "dataset.csv"
        path.write_bytes((newline.join(lines) + newline).encode())
        return read_dataset_csv(path, ExperimentConfig())

    def test_blocks_end_where_the_tests_expect(self):
        data = ("\n".join(self.lines_of(2 * _PARSE_CHUNK + 100)) + "\n").encode()
        blocks = [data[start : stops[-1] + 1].splitlines() for start, stops in _blocks(data)]
        assert [len(block) for block in blocks] == [_PARSE_CHUNK, _PARSE_CHUNK, 101]

    @staticmethod
    def set_field(lines, line_no, column, text):
        parts = lines[line_no - 1].split(",")
        parts[DATASET_COLUMNS.index(column)] = text
        lines[line_no - 1] = ",".join(parts)

    @pytest.mark.parametrize("bad", [
        [_PARSE_CHUNK], [_PARSE_CHUNK + 1], [_PARSE_CHUNK, _PARSE_CHUNK + 1], [_PARSE_CHUNK + 1, 2 * _PARSE_CHUNK + 1],
        [2 * _PARSE_CHUNK],
    ], ids=["last-of-block", "first-of-next", "both", "first-of-two-blocks", "last-of-second"])
    def test_bad_row_at_a_block_boundary_named(self, tmp_path, bad):
        """``bad`` holds 1-based line numbers; the first is named."""
        lines = self.lines_of(2 * _PARSE_CHUNK + 100)
        for line_no in bad:
            self.set_field(lines, line_no, "n_AA", "x")
        with pytest.raises(ConfigError, match=f": line {bad[0]}: n_AA must be an integer of ASCII digits, got 'x'$"):
            self.read(tmp_path, lines)

    def test_bad_row_late_in_a_cr_file_named(self, tmp_path):
        """A file whose lines end in "\\r" alone is cut into blocks at those
        ends: a bad row in its third block, after blank lines in the first
        two, is named by its line."""
        lines = self.lines_of(2 * _PARSE_CHUNK + 100)
        for at in (3, _PARSE_CHUNK + 5):
            lines.insert(at, "")
        bad = 2 * _PARSE_CHUNK + 90
        self.set_field(lines, bad, "n_AC", "-2")
        with pytest.raises(ConfigError, match=f": line {bad}: n_AC must be non-negative, got -2$"):
            self.read(tmp_path, lines, "\r")

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_blank_lines_and_line_endings(self, tmp_path, newline):
        n = 2 * _PARSE_CHUNK
        lines = self.lines_of(n)
        for at in (1, 5, _PARSE_CHUNK - 1, _PARSE_CHUNK, _PARSE_CHUNK + 3):
            lines.insert(at, " " * (at % 3))
        parsed = self.read(tmp_path, lines, newline)
        expected = block_dataset(n)
        for name in ("eta", "probe", "phi_true", "setting", "series_id", "counts", "seed_used"):
            np.testing.assert_array_equal(getattr(parsed, name), getattr(expected, name))
        np.testing.assert_array_equal(np.signbit(parsed.phi_true), np.signbit(expected.phi_true))
        assert not lines[_PARSE_CHUNK - 1].strip() and not lines[_PARSE_CHUNK].strip()  # blank: end of one block, start of the next
        for bad in (_PARSE_CHUNK + 2, _PARSE_CHUNK + 7):
            self.set_field(lines, bad, "n_BB", "-1")
        with pytest.raises(ConfigError, match=f": line {_PARSE_CHUNK + 2}: n_BB must be non-negative, got -1$"):
            self.read(tmp_path, lines, newline)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("copy_at", [_PARSE_CHUNK, _PARSE_CHUNK + 1, 2 * _PARSE_CHUNK - 3])
    def test_duplicate_across_blocks_named(self, tmp_path, newline, copy_at):
        """A row of the first block copied to line ``copy_at``, with blank
        lines before both and between them."""
        lines = self.lines_of(2 * _PARSE_CHUNK)
        row = lines[_PARSE_CHUNK - 3]
        lines.insert(copy_at - 1, row)
        for at in (2, _PARSE_CHUNK - 10):
            lines.insert(at, "\t")
        first, copy = (i + 1 for i, line in enumerate(lines) if line == row)
        assert first <= _PARSE_CHUNK < copy  # the original ends the first block
        with pytest.raises(ConfigError, match=f": line {copy}: duplicates line {first} "):
            self.read(tmp_path, lines, newline)

    def test_undecodable_later_block_exits_1(self, sim_dir, tmp_path, capsys):
        dataset = tmp_path / "dataset.csv"
        lines = self.lines_of(_PARSE_CHUNK + 10)
        dataset.write_bytes(("\n".join(lines) + "\n").encode() + b"0.361,noon,0,half,\xff\n")
        rc = main([
            "estimate", "--dataset", str(dataset), "--manifest", str(sim_dir / "manifest.json"),
            "--out-dir", str(tmp_path / "o"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"cannot read dataset {dataset}" in err and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "o").exists()


#: Integer-field texts at the edges of what the byte path reads: leading
#: zeros (a 20-digit seed and fields wider than 20 characters among them),
#: 18, 19 and 20 digits, counts at and past MAX_COUNT, series_ids and seeds
#: at and past the ends of their ranges, a "-" on zero and nonzero values.
_EDGE_TEXTS = (
    "007", "0" * 18 + "42", "0" * 20, "9" * 18, "1" + "0" * 17, "9" * 19, "1" + "0" * 18, "9" * 20, "1" + "0" * 19,
    str(MAX_COUNT), str(MAX_COUNT + 1), str(2**63 - 1), str(2**63), str(2**64 - 1), str(2**64), "-0",
    "0" * 20 + "7", "0" * 40 + str(2**64 - 1), "0" * 40 + str(2**64), "1" + "0" * 40, "-" + "0" * 30, "-7",
    str(-(2**63)), str(-(2**63) - 1), "-" + "0" * 25 + str(2**63),
)

#: Characters spliced into a row: NUL, the ASCII ones str.splitlines also
#: ends a line at, a tab and a non-ASCII one.
_SPLICED = ("\0", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\t", "\x85")


def splice(row: str, text: str) -> str:
    """``row`` with ``text`` at the end of its prefix, before the fourth comma."""
    at = [i for i, c in enumerate(row) if c == ","][3]
    return row[:at] + text + row[at:]


@st.composite
def edited_csv(draw, header: str, rows: list[str]) -> bytes:
    """The bytes of a dataset CSV of ``header`` and ``rows`` after random
    edits: the edits of ``mutated_rows``, an integer field set to an edge
    text, a character spliced into a row and a blank line; every row may go,
    and the last line may lack its "\\n"."""
    rows = draw(mutated_rows(rows)) if draw(st.booleans()) else list(rows)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(rows) - 1))
        edit = draw(st.sampled_from(["edge", "splice", "blank"]))
        if edit == "edge":
            fields_ = rows[i].split(",")
            k = draw(st.integers(min(4, len(fields_) - 1), len(fields_) - 1))
            fields_[k] = draw(st.sampled_from(_EDGE_TEXTS))
            rows[i] = ",".join(fields_)
        elif edit == "splice":
            at = draw(st.integers(0, len(rows[i])))
            rows[i] = rows[i][:at] + draw(st.sampled_from(_SPLICED)) + rows[i][at:]
        else:
            rows.insert(i, draw(st.sampled_from(["", " "])))
    if draw(st.integers(0, 7)) == 0:
        rows = []
    return ("\n".join([header, *rows]) + draw(st.sampled_from(["\n", ""]))).encode()


def read_outcome(read, path) -> list | str:
    """What ``read``, read_dataset_csv or the reference reader, gives for
    ``path``: each column's dtype, shape and bytes, or its ConfigError's
    text."""
    try:
        d = read(path, ExperimentConfig())
    except ConfigError as exc:
        return str(exc)
    columns = (d.eta, d.probe, d.phi_true, d.setting, d.series_id, d.counts, d.seed_used)
    return [(column.dtype.str, column.shape, column.tobytes()) for column in columns]


class TestWriterForm:
    """The byte path reads every dataset block, in the writer's line form or
    rejoined into it. ``oracles.read_dataset_rows``, the row routine that
    read every other block before, is the reference: both read the same
    dataset, or fail with the same diagnostic."""

    @staticmethod
    def both(path) -> tuple:
        """``read_outcome`` of ``path`` for read_dataset_csv, and the reference reader's."""
        return read_outcome(read_dataset_csv, path), read_outcome(read_dataset_rows, path)

    @given(st.data(), st.sampled_from([1, 2, 3, _PARSE_CHUNK]))
    def test_edited_rows_read_as_the_row_routine_reads_them(self, fuzz_sim, tmp_path_factory, data, chunk):
        header, *rows = (fuzz_sim / "dataset.csv").read_text().splitlines()
        path = tmp_path_factory.mktemp("edited") / "dataset.csv"
        path.write_bytes(data.draw(edited_csv(header, rows)))
        with mock.patch("lossyphase.cli._PARSE_CHUNK", chunk):
            outcome, oracle = self.both(path)
        assert outcome == oracle

    @staticmethod
    def edited(fuzz_sim, tmp_path, edit) -> Path:
        """The fuzz dataset with its lines after ``edit``, written to ``tmp_path``."""
        lines = (fuzz_sim / "dataset.csv").read_text().splitlines()
        path = tmp_path / "dataset.csv"
        path.write_bytes(edit(lines).encode())
        return path

    @pytest.mark.parametrize("column", ["series_id", "n_AA", "n_CC", "seed_used"])
    @pytest.mark.parametrize("text", _EDGE_TEXTS)
    def test_edge_integers_read_as_the_row_routine_reads_them(self, fuzz_sim, tmp_path, column, text):
        lines = (fuzz_sim / "dataset.csv").read_text().splitlines()
        parts = lines[8].split(",")
        parts[DATASET_COLUMNS.index(column)] = text
        lines[8] = ",".join(parts)
        path = tmp_path / "dataset.csv"
        path.write_text("\n".join(lines) + "\n")
        outcome, oracle = self.both(path)
        assert outcome == oracle

    @pytest.mark.parametrize("edit", [
        *(pytest.param(lambda lines, c=c: "\n".join([*lines[:5], splice(lines[5], c), *lines[6:]]) + "\n",
                       id=f"splice-{ord(c):#04x}") for c in _SPLICED),
        pytest.param(lambda lines: "\n".join(lines[:4] + [""] + lines[4:]) + "\n", id="blank-line"),
        pytest.param(lambda lines: "\r\n".join(lines) + "\r\n", id="crlf"),
        pytest.param(lambda lines: "\r\n".join(lines[:4] + [" \x1f\u3000"] + lines[4:]), id="crlf-blank-no-final-newline"),
        pytest.param(lambda lines: "\r".join(lines[:1] + lines[1:] + lines[6:7]) + "\r", id="cr-duplicate"),
        pytest.param(lambda lines: lines[0] + "\n", id="header-only"),
        pytest.param(lambda lines: lines[0], id="header-only-no-final-newline"),
        pytest.param(lambda lines: lines[0] + "\n\n \r\n", id="header-and-blank-lines"),
        pytest.param(lambda lines: "\n".join(lines), id="no-final-newline"),
    ])
    def test_line_edits_read_as_the_row_routine_reads_them(self, fuzz_sim, tmp_path, edit):
        outcome, oracle = self.both(self.edited(fuzz_sim, tmp_path, edit))
        assert outcome == oracle

    @pytest.mark.parametrize("newline, blank", [("\n", False), ("\r\n", True)], ids=["writer", "crlf-blank-line"])
    def test_writer_files_take_the_byte_path(self, tmp_path, newline, blank):
        """The default N00N campaign's dataset, as written and as a CRLF copy
        with a blank line: the byte path reads each block, and parses each
        prefix once a read."""
        path = tmp_path / "dataset.csv"
        write_dataset_csv(path, montecarlo.run_campaign(ExperimentConfig(probe_kind=ProbeKind.NOON, master_seed=0)))
        lines = path.read_text().splitlines()
        lines[5:5] = [""] * blank
        path.write_bytes((newline.join(lines) + newline).encode())
        with mock.patch("lossyphase.cli._parse_prefix", wraps=cli._parse_prefix) as parse_prefix, \
                mock.patch("lossyphase.cli._writer_rows", wraps=cli._writer_rows) as writer_rows:
            outcome = read_outcome(read_dataset_csv, path)
        assert writer_rows.call_count == -(-len(lines) // _PARSE_CHUNK)
        assert parse_prefix.call_count == 4 * 15 * 2  # each (eta, phi_true, setting) text once a read
        assert outcome == read_outcome(read_dataset_rows, path)


class TestDeterminism:
    def test_end_to_end_byte_identical(self, tmp_path):
        config_path = tmp_path / "c.cfg"
        config_path.write_text(SMALL_CONFIG)
        outputs = []
        for name in ("one", "two"):
            sim = tmp_path / name / "sim"
            est = tmp_path / name / "est"
            assert main(["simulate", "--config", str(config_path), "--out-dir", str(sim)]) == 0
            assert main(["estimate", "--dataset", str(sim / "dataset.csv"), "--out-dir", str(est)]) == 0
            outputs.append((sim / "dataset.csv", est / "estimates.csv", est / "report.csv"))
        for first, second in zip(*outputs):
            assert first.read_bytes() == second.read_bytes()


#: Small campaigns whose estimate outputs are pinned by sha256: config text,
#: histogram bin width, then the digests of estimates.csv, report.csv and
#: histograms.csv. The N00N campaign at 25 events takes the TIE_TOL
#: tie-break on most series, between mirror lobes and the ±pi/2 edges.
PINNED_ESTIMATES = [
    (
        "eta_list = 0.361, 0.547\nprobe = optimal\nphases = -0.04, 0.0, 0.04\nseries = 6\nevents = 400\n"
        "seed = 1099511627783\nepsilon = 0.02\ndelta = 0.1\nlambda_hom = 0.95\nv_classical = 0.97\n",
        "0.01",
        "74cb417b6a4099e91594e77285fcd6d7d9080b2f5bc7333293ff5251b20f8afe",
        "f49068579a66d7f9668c988b298b644b5c6bfe8bd799813345a493c123c3e219",
        "2a97ea88a8aab0df8bafa1c895770afad0d94a3e0dd481fcf4d5517eadec29fc",
    ),
    (
        "eta_list = 0.2, 0.4\nprobe = noon\nphases = -0.2, 0.0, 0.3\nseries = 8\nevents = 300\nseed = 11\n"
        "include_cc = false\n",
        "0.01",
        "f3ba5a36c949a58a375f8e3b536c0d196d5ac1b510178fa67c190b06d579cd37",
        "f63e35783637178b4c01bba6aaa84c3a785f7b18bc8bf14f5c4a6542784ca965",
        "3c2f5b8b35f6aad73c31ccfbee6210e584e5cca6dd8c45e54dbf5c9602cc0764",
    ),
    (
        "eta_list = 0.361, 0.547\nprobe = noon\nphases = 0.0, 0.7, 1.5\nseries = 10\nevents = 25\nseed = 5\n",
        "0.005",
        "b3c11cb3174d108428f5afc73f535e99f9f7d2b381f568f148d650127b98262b",
        "da853e5f6a10d3c12c28e0704c8654f2c7c8e81188ee599470a088317ebfa402",
        "65a9794df6e8f2447cb3135002a5aa216e0d8ff2f6e7a67bc29b5ce37d4c7ad4",
    ),
]


@pytest.mark.parametrize(
    "config, hist_bin, estimates, report, histograms", PINNED_ESTIMATES, ids=["optimal-imperfect", "noon-no-cc", "noon-ties"]
)
def test_pinned_estimate_outputs(tmp_path, config, hist_bin, estimates, report, histograms):
    config_path = tmp_path / "c.cfg"
    config_path.write_text(config)
    sim, est = tmp_path / "sim", tmp_path / "est"
    assert main(["simulate", "--config", str(config_path), "--out-dir", str(sim)]) == 0
    assert main(["estimate", "--dataset", str(sim / "dataset.csv"), "--out-dir", str(est), "--hist-bin", hist_bin]) == 0
    names = ("estimates.csv", "report.csv", "histograms.csv")
    digests = [hashlib.sha256((est / name).read_bytes()).hexdigest() for name in names]
    assert digests == [estimates, report, histograms]


def child_env() -> dict[str, str]:
    """The environment with this package's sources first on the path, for a child interpreter."""
    src = str(Path(lossyphase.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_import_leaves_numpy_random_unloaded():
    """Commands that draw nothing do not pay for importing numpy.random."""
    code = "import sys, lossyphase.cli; sys.exit('numpy.random' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=child_env(), timeout=60).returncode == 0


def _numpy_uses_openblas() -> bool:
    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # a numpy that cannot say
        return False
    return "openblas" in name.lower()


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or workers.cpu_count() < 2 or not _numpy_uses_openblas(),
    reason="counts OpenBLAS pool threads in /proc/self/task, which needs Linux, two CPUs and an OpenBLAS numpy",
)
class TestBlasThreads:
    """A process that loads numpy through ``lossyphase.cli`` starts no OpenBLAS
    pool, unless the user sets a thread count."""

    @staticmethod
    def threads(**env) -> int:
        code = "import lossyphase.cli, os; print(len(os.listdir('/proc/self/task')))"
        unset = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
        base = {key: value for key, value in child_env().items() if key not in unset}
        result = subprocess.run(
            [sys.executable, "-c", code], env={**base, **env}, capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0, result.stderr
        return int(result.stdout)

    def test_one_thread_by_default(self):
        assert self.threads() == 1

    @pytest.mark.parametrize("name", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
    def test_user_count_wins(self, name):
        assert self.threads(**{name: "2"}) == 2


#: ``python -m lossyphase.cli`` with an ``atexit`` hook that prints how many objects are frozen.
ENTRY = (
    "import atexit, gc, runpy; atexit.register(lambda: print('frozen', gc.get_freeze_count())); "
    "runpy.run_module('lossyphase.cli', run_name='__main__', alter_sys=True)"
)


class TestProgramEntry:
    """``cli.run``, the program entry, exits as ``main`` does, with its heap
    frozen so that teardown skips collecting it, and still runs exit hooks."""

    @staticmethod
    def entry(*argv, cwd=None) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-c", ENTRY, *argv], cwd=cwd, env=child_env(), capture_output=True, text=True, timeout=120
        )

    @staticmethod
    def frozen(result) -> int:
        """The count the exit hook printed, which must be stdout's last line."""
        name, count = result.stdout.splitlines()[-1].split()
        assert name == "frozen"
        return int(count)

    def test_outputs_match_main(self, tmp_path):
        config = tmp_path / "c.cfg"
        config.write_text(SMALL_CONFIG)

        def commands(out: Path) -> list[list[str]]:
            sim, est = str(out / "sim"), str(out / "est")
            return [
                ["simulate", "--config", str(config), "--out-dir", sim],
                ["estimate", "--dataset", f"{sim}/dataset.csv", "--out-dir", est, "--hist-bin", "0.01"],
            ]

        for argv in commands(tmp_path / "main"):
            assert main(argv) == 0
        for argv in commands(tmp_path / "entry"):
            result = self.entry(*argv)
            assert result.returncode == 0, result.stderr
            assert self.frozen(result) > 0
        for file in ("sim/dataset.csv", "est/estimates.csv", "est/report.csv", "est/histograms.csv"):
            assert (tmp_path / "entry" / file).read_bytes() == (tmp_path / "main" / file).read_bytes()

    @pytest.mark.parametrize("argv, code", [
        pytest.param(["simulate", "--config", "missing.cfg", "--out-dir", "x"], 1, id="missing-config"),
        pytest.param(["bounds", "--steps", "0", "--out", "x.csv"], 2, id="zero-steps"),
    ])
    def test_errors_keep_their_exit_code(self, tmp_path, argv, code):
        result = self.entry(*argv, cwd=tmp_path)
        assert result.returncode == code
        assert len(result.stderr.splitlines()) == 1 and result.stderr.startswith("error: ")
        assert self.frozen(result) > 0
        assert list(tmp_path.iterdir()) == []

    def test_version_exits_zero(self):
        result = self.entry("--version")
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[0] == f"lossyphase {lossyphase.__version__}"
