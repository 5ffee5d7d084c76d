import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import tcqb
from tcqb import battery, bethe, cli, lindblad, oracle, spectral
from tcqb.bethe import SectorSpec
from tcqb.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def read_csv(path):
    lines = Path(path).read_text().strip().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return header, data


class TestSolve:
    def test_writes_sectors_and_manifest(self, runner, tmp_path):
        out = tmp_path / "solve"
        result = runner.invoke(
            main, ["solve", "--n-atoms", "10", "--m-max", "2", "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        doc = json.loads((out / "sector_M01.json").read_text())
        roots = sorted(r[0] for b in doc["branches"] for r in b["roots"])
        assert roots == pytest.approx([-math.sqrt(10), math.sqrt(10)], abs=1e-10)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "solve"
        assert manifest["seed"] == 0

    def test_reruns_are_byte_identical(self, runner, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            result = runner.invoke(
                main, ["solve", "--n-atoms", "10", "--m-max", "3", "--seed", "5", "--out", str(out)]
            )
            assert result.exit_code == 0
        for m in (1, 2, 3):
            name = f"sector_M{m:02d}.json"
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_seed_changes_no_sector_file(self, runner, tmp_path):
        # The solver is deterministic; --seed is only echoed in the manifest.
        for seed in ("0", "5"):
            result = runner.invoke(
                main, ["solve", "--n-atoms", "2", "--m-max", "4", "--seed", seed, "--out", str(tmp_path / seed)]
            )
            assert result.exit_code == 0, result.output
        for m in range(1, 5):
            name = f"sector_M{m:02d}.json"
            assert (tmp_path / "0" / name).read_bytes() == (tmp_path / "5" / name).read_bytes()
            assert set(json.loads((tmp_path / "0" / name).read_text())) == {"n_atoms", "m", "branches"}


class TestEnergy:
    def test_single_photon_curve(self, runner, tmp_path):
        out = tmp_path / "e.csv"
        result = runner.invoke(
            main, ["energy", "--init", "fock:1", "--n-atoms", "10", "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        header, data = read_csv(out)
        assert header == ["t", "E", "P"]
        assert data.shape == (2000, 3)
        t_peak = data[np.argmax(data[:, 1]), 0]
        assert data[:, 1].max() == pytest.approx(1.0, abs=1e-3)
        assert abs(t_peak - math.pi / (2 * math.sqrt(10))) < 5e-3
        assert data[0, 2] == 0.0  # P(0) defined as 0

    def test_coherent_state_runs(self, runner, tmp_path):
        out = tmp_path / "coh.csv"
        result = runner.invoke(
            main,
            ["energy", "--init", "coherent:6:16", "--n-atoms", "10",
             "--steps", "200", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        _, data = read_csv(out)
        assert data[:, 1].max() > 4.0  # well above half the mean photon number

    def test_distribution_file_input(self, runner, tmp_path):
        dist_path = tmp_path / "dist.json"
        dist_path.write_text(json.dumps({"probs": {"0": 0.5, "2": 0.5}}))
        out = tmp_path / "file.csv"
        result = runner.invoke(
            main,
            ["energy", "--init", f"file:{dist_path}", "--n-atoms", "10",
             "--steps", "100", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output

    def test_support_beyond_cap_exits_3(self, runner, tmp_path):
        dist_path = tmp_path / "big.json"
        dist_path.write_text(json.dumps({"probs": {"0": 0.5, "70": 0.5}}))
        result = runner.invoke(
            main,
            ["energy", "--init", f"file:{dist_path}", "--n-atoms", "10",
             "--out", str(tmp_path / "x.csv")],
        )
        assert result.exit_code == 3

    def test_p_column_is_average_power(self, runner, tmp_path):
        out = tmp_path / "p.csv"
        result = runner.invoke(
            main,
            ["energy", "--init", "fock:2", "--n-atoms", "10", "--steps", "50",
             "--out", str(out)],
        )
        assert result.exit_code == 0
        header, data = read_csv(out)
        assert header == ["t", "E", "P"]
        keep = data[1:]
        assert np.allclose(keep[:, 2], keep[:, 1] / keep[:, 0])


class TestOptimalAndSplit:
    def test_optimal_fractional_mean(self, runner):
        result = runner.invoke(main, ["optimal", "--mean", "2.5"])
        assert result.exit_code == 0
        assert json.loads(result.output) == {"probs": {"2": 0.5, "3": 0.5}}

    def test_split_check_worked_example(self, runner, tmp_path):
        dist_path = tmp_path / "phi.json"
        dist_path.write_text(
            json.dumps({"probs": {"0": 4 / 45, "8": 0.25, "9": 1 / 9, "10": 0.1,
                                  "12": 0.25, "15": 0.2}})
        )
        result = runner.invoke(
            main,
            ["split-check", "--dist", f"file:{dist_path}", "--n-atoms", "10", "--t", "0.3"],
        )
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        assert doc["groups"] == 5
        assert doc["group_probability_error"] < 1e-12
        assert doc["group_mean_error"] < 1e-12
        assert doc["delta_f"] >= -1e-9


    def test_negative_mean_exits_3_with_one_line(self, runner, tmp_path):
        result = runner.invoke(main, ["optimal", "--mean", "-1", "--out", str(tmp_path / "opt.json")])
        assert result.exit_code == 3, result.output
        assert result.output.strip().splitlines() == ["optimal failed: mean photon number -1.0 is negative"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("mean, top", [("64.5", 65), ("1e20", 10**20)])
    def test_mean_beyond_supported_sectors_exits_3_with_one_line(self, runner, tmp_path, mean, top):
        result = runner.invoke(main, ["optimal", "--mean", mean, "--out", str(tmp_path / "opt.json")])
        assert result.exit_code == 3, result.output
        assert result.output.strip().splitlines() == [
            f"optimal failed: distribution reaches M = {top}; supported sectors stop at 64"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("mean", ["nan", "inf"])
    def test_non_finite_mean_is_a_usage_error(self, runner, mean):
        result = runner.invoke(main, ["optimal", "--mean", mean])
        _assert_usage_error(result, "'--mean'")

    @settings(max_examples=25, deadline=None)
    @given(
        text=st.one_of(st.integers(0, 64).map("fock:{}".format),
                       st.floats(0.0, 30.0).map("coherent:{!r}".format),
                       st.floats(0.0, 30.0).map("coherent:{!r}:64".format)),
        weights=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=65).filter(any),
    )
    def test_parsed_distributions_are_normalised(self, tmp_path_factory, text, weights):
        path = tmp_path_factory.mktemp("dist") / "dist.json"
        probs = np.array(weights) / math.fsum(weights)
        cli._write_json(path, {"probs": cli._probs_doc(battery.PhotonDistribution(dict(enumerate(probs))))})
        for dist in (cli._parse_init(text), cli._parse_init(f"file:{path}")):
            assert abs(math.fsum(dist.probs.values()) - 1.0) <= 1e-12


class TestSpectrum:
    def test_writes_sector_summaries(self, runner, tmp_path):
        out = tmp_path / "spec"
        result = runner.invoke(
            main, ["spectrum", "--n-atoms", "10", "--m-max", "2", "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        doc = json.loads((out / "spectrum_M02.json").read_text())
        assert doc["energies"] == pytest.approx(
            [-math.sqrt(38), 0.0, math.sqrt(38)], abs=1e-9
        )
        assert sum(c**2 for c in doc["overlaps"]) == pytest.approx(1.0, abs=1e-9)
        assert doc["series"]["offset"] == pytest.approx(1.01, abs=0.02)


class TestInequality:
    def test_ratio_bound_reports_zero_violations(self, runner):
        result = runner.invoke(
            main, ["inequality", "--which", "28", "--n-atoms", "10", "--max-m", "6"]
        )
        assert result.exit_code == 0, result.output
        assert result.output.startswith("0 violations")

    def test_derivative_ordering_reports_its_violations(self, runner, tmp_path):
        out = tmp_path / "ineq29.json"
        result = runner.invoke(
            main,
            ["inequality", "--which", "29", "--n-atoms", "10", "--max-m", "4",
             "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        doc = json.loads(out.read_text())
        # the ordering genuinely fails late in the charging window; the
        # tool's job is to report that, not to hide it
        assert doc["violations"] > 0
        assert "worst:" in result.output


class TestEstimate:
    def test_prints_scaled_ratio(self, runner):
        result = runner.invoke(
            main, ["estimate", "--e-known", "0.5", "--m", "2", "--e-observed", "1.25"]
        )
        assert result.exit_code == 0
        assert float(result.output) == pytest.approx(5.0)

    def test_zero_reference_is_an_error(self, runner):
        result = runner.invoke(
            main, ["estimate", "--e-known", "0", "--m", "2", "--e-observed", "1"]
        )
        assert result.exit_code == 3

    def test_negative_observed_energy_exits_3_with_one_line(self, runner):
        result = runner.invoke(
            main, ["estimate", "--e-known", "1", "--m", "2", "--e-observed", "-5"]
        )
        assert result.exit_code == 3, result.output
        lines = result.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("estimate failed: observed stored energy")
        with pytest.raises(battery.NegativeObservedEnergy):
            battery.estimate_photon_number(1.0, 2, -5.0)


class TestLindbladCommand:
    def test_small_open_run(self, runner, tmp_path):
        out = tmp_path / "open.csv"
        result = runner.invoke(
            main,
            ["lindblad", "--n-atoms", "2", "--init", "fock:2", "--kappa", "0.2",
             "--gamma-phi", "0.1", "--t-end", "0.4", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        header, data = read_csv(out)
        assert header == ["t", "E", "P", "trace", "min_eig", "m_expect"]
        assert np.max(np.abs(data[:, 3] - 1.0)) < 1e-9
        manifest = json.loads((tmp_path / "open.csv.manifest.json").read_text())
        assert manifest["config"]["kappa"] == 0.2
        assert "n_max" not in manifest["config"]

    @pytest.mark.parametrize("init", ["fock:3", "coherent:2:8"])
    def test_matches_closed_energy_curve(self, runner, tmp_path, init):
        open_csv = tmp_path / "open.csv"
        closed_csv = tmp_path / "closed.csv"
        r1 = runner.invoke(
            main,
            ["lindblad", "--n-atoms", "4", "--init", init, "--kappa", "0",
             "--gamma-phi", "0", "--t-end", "1.0", "--out", str(open_csv)],
        )
        r2 = runner.invoke(
            main,
            ["energy", "--init", init, "--n-atoms", "4", "--t-end", "1.0",
             "--steps", "101", "--out", str(closed_csv)],
        )
        assert r1.exit_code == 0 and r2.exit_code == 0
        _, open_data = read_csv(open_csv)
        _, closed_data = read_csv(closed_csv)
        open_at = {round(t, 6): e for t, e in zip(open_data[:, 0], open_data[:, 1])}
        gaps = [
            abs(e - open_at[round(t, 6)])
            for t, e in zip(closed_data[:, 0], closed_data[:, 1])
            if round(t, 6) in open_at
        ]
        assert gaps and max(gaps) < 1e-4

    def test_lost_positivity_exits_5_with_one_line(self, runner, tmp_path):
        out = tmp_path / "open.csv"
        result = runner.invoke(
            main,
            ["lindblad", "--n-atoms", "10", "--init", "fock:10", "--kappa", "0.2",
             "--gamma-phi", "0.1", "--dt", "0.05", "--t-end", "1.0", "--out", str(out)],
        )
        assert result.exit_code == 5, result.output
        lines = result.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("lindblad failed: min eig(rho)")
        assert not out.exists()

    def test_step_longer_than_horizon_exits_5_with_one_line(self, runner, tmp_path):
        out = tmp_path / "open.csv"
        result = runner.invoke(
            main,
            ["lindblad", "--n-atoms", "2", "--init", "fock:2", "--kappa", "0",
             "--gamma-phi", "0", "--dt", "1", "--t-end", "0.1", "--out", str(out)],
        )
        assert result.exit_code == 5, result.output
        lines = result.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("lindblad failed: need 0 < dt <= t_end")
        assert not out.exists()

    def test_horizon_off_the_step_grid_exits_5_with_one_line(self, runner, tmp_path):
        # 0.001 / 0.0004 = 2.5 steps: the run would stop at t = 0.0008.
        out = tmp_path / "open.csv"
        result = runner.invoke(
            main,
            ["lindblad", "--n-atoms", "2", "--init", "fock:2", "--kappa", "0", "--gamma-phi", "0",
             "--dt", "0.0004", "--t-end", "0.001", "--stride", "1", "--out", str(out)],
        )
        assert result.exit_code == 5, result.output
        lines = result.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("lindblad failed: t_end = 0.001 is not")
        assert not out.exists()

    @pytest.mark.parametrize("rates", [["--kappa", "1e300", "--gamma-phi", "0"],
                                       ["--kappa", "0", "--gamma-phi", "1e200"]])
    def test_nan_trace_exits_5_with_one_line(self, runner, tmp_path, rates):
        # The overflowing step leaves a nan trace, which must fail the trace
        # guard before any eigenvalue of the state is taken.
        out = tmp_path / "open.csv"
        result = runner.invoke(
            main,
            ["lindblad", "--n-atoms", "2", "--init", "fock:2", *rates,
             "--t-end", "0.01", "--out", str(out)],
        )
        assert result.exit_code == 5, result.output
        lines = result.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("lindblad failed: trace drifted to nan")
        assert not out.exists()

    def test_run_builds_no_dense_state(self, runner, tmp_path, monkeypatch):
        class Refuse:
            def __init__(self, *args, **kwargs):
                raise AssertionError("lindblad built a dense product-basis state")

            fock = classmethod(lambda cls, *args, **kwargs: cls())

        monkeypatch.setattr(lindblad, "DensityMatrix", Refuse)
        out = tmp_path / "open.csv"
        result = runner.invoke(
            main,
            ["lindblad", "--n-atoms", "4", "--init", "coherent:2:8", "--kappa", "0.2",
             "--gamma-phi", "0.1", "--t-end", "0.2", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        assert read_csv(out)[1].shape == (21, 6)


class TestVerify:
    def test_fresh_pipeline_passes(self, runner):
        result = runner.invoke(main, ["verify", "--n-atoms", "10", "--m-max", "2"])
        assert result.exit_code == 0, result.output
        assert "all invariants pass" in result.output

    def test_large_sectors_pass(self, runner):
        # The root-built eigenvectors hold to the 1e-8 gate up to N = 32, M = 38.
        result = runner.invoke(main, ["verify", "--n-atoms", "32", "--m-max", "38"])
        assert result.exit_code == 0, result.output
        assert "all invariants pass" in result.output

    def test_trivial_m0(self, runner):
        result = runner.invoke(main, ["verify", "--n-atoms", "10", "--m-max", "0"])
        assert result.exit_code == 0

    def test_corrupted_branch_file_fails(self, runner, tmp_path):
        out = tmp_path / "solve"
        assert runner.invoke(
            main, ["solve", "--n-atoms", "10", "--m-max", "2", "--out", str(out)]
        ).exit_code == 0
        doc = json.loads((out / "sector_M02.json").read_text())
        doc["branches"][0]["roots"][0][0] += 0.05  # corrupt one root
        (out / "sector_M02.json").write_text(json.dumps(doc))
        result = runner.invoke(
            main, ["verify", "--n-atoms", "10", "--m-max", "2", "--dir", str(out)]
        )
        assert result.exit_code == 4
        assert "FAIL" in result.output
        assert result.stderr.strip().splitlines() == [
            "verify failed: first failing invariant: recomputed root equations < 1e-10"]

    def test_solved_dir_passes_and_keeps_provenance(self, runner, tmp_path):
        # N = 2, M = 3 is an odd M > 2J sector, so it holds a completeness branch.
        out = tmp_path / "solve"
        assert runner.invoke(main, ["solve", "--n-atoms", "2", "--m-max", "3", "--out", str(out)]).exit_code == 0
        result = runner.invoke(main, ["verify", "--n-atoms", "2", "--m-max", "3", "--dir", str(out)])
        assert result.exit_code == 0, result.output
        assert "all invariants pass" in result.output
        path = out / "sector_M03.json"
        provenance = [b["provenance"] for b in json.loads(path.read_text())["branches"]]
        assert provenance.count("completeness") == 1
        back = cli._read_branches(path, 2, 3)
        assert [b.provenance for b in back] == provenance
        solved = bethe.solve_sectors(2, 3)[3]
        assert [b.is_completeness for b in back] == [b.is_completeness for b in solved]

    @pytest.mark.parametrize("solved_n, edit, line", [
        ("10", {"n_atoms": 99, "m": 7}, "sector_M02.json: file records n_atoms = 99, expected 10"),
        ("10", {"m": 7}, "sector_M02.json: file records m = 7, expected 2"),
        ("2", {}, "sector_M01.json: file records n_atoms = 2, expected 10"),
    ], ids=["edited-n-atoms-and-m", "edited-m", "solved-at-n-2"])
    def test_sector_mismatch_exits_4_naming_both_values(self, runner, tmp_path, solved_n, edit, line):
        out = tmp_path / "solve"
        assert runner.invoke(
            main, ["solve", "--n-atoms", solved_n, "--m-max", "2", "--out", str(out)]
        ).exit_code == 0
        path = out / "sector_M02.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), **edit}))
        result = runner.invoke(
            main, ["verify", "--n-atoms", "10", "--m-max", "2", "--dir", str(out)]
        )
        assert result.exit_code == 4, result.output
        assert result.stdout == ""
        assert result.stderr.strip().splitlines() == [f"verify could not obtain branches: {line}"]

    @pytest.mark.parametrize("case", ["roots-not-a-list", "json-list", "zero-root", "wrong-root-count"])
    def test_malformed_branch_file_exits_4_with_one_line(self, runner, tmp_path, case):
        out = tmp_path / "solve"
        assert runner.invoke(
            main, ["solve", "--n-atoms", "10", "--m-max", "2", "--out", str(out)]
        ).exit_code == 0
        path = out / "sector_M02.json"
        doc = json.loads(path.read_text())
        if case == "roots-not-a-list":
            doc["branches"][0]["roots"] = 5
        elif case == "json-list":
            doc = [doc]
        elif case == "wrong-root-count":
            doc["branches"][0]["roots"] = doc["branches"][0]["roots"][:1]
        else:
            doc["branches"][0]["roots"][0] = [0.0, 0.0]
        path.write_text(json.dumps(doc))
        result = runner.invoke(
            main, ["verify", "--n-atoms", "10", "--m-max", "2", "--dir", str(out)]
        )
        assert result.exit_code == 4, result.output
        lines = result.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("verify could not obtain branches: sector_M02.json")


class TestConfigFile:
    def test_config_supplies_defaults(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"optimal": {"mean": 2.5}}))
        result = runner.invoke(main, ["--config", str(cfg), "optimal"])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["probs"] == {"2": 0.5, "3": 0.5}

    def test_flags_override_config(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"optimal": {"mean": 2.5}}))
        result = runner.invoke(main, ["--config", str(cfg), "optimal", "--mean", "4"])
        assert json.loads(result.output)["probs"] == {"4": 1.0}

    def test_config_values_read_as_their_flags(self, runner, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"energy": {"init": "fock:1", "n_atoms": 2, "t_end": 1, "steps": 10, "out": 5}}))
        result = runner.invoke(main, ["--config", str(cfg), "energy"])
        assert result.exit_code == 0, result.output
        header, data = read_csv(tmp_path / "5")
        assert header == ["t", "E", "P"] and data.shape == (10, 3) and data[-1, 0] == 1.0


def test_energy_reruns_are_byte_identical_and_write_only_their_outputs(tmp_path, monkeypatch):
    home = tmp_path / "home"
    home.mkdir()
    monkeypatch.chdir(tmp_path)
    env = {"HOME": str(home)}
    outs = [tmp_path / "out" / "run1.csv", tmp_path / "out" / "run2.csv"]
    for out in outs:
        result = CliRunner().invoke(
            main, ["energy", "--init", "fock:2", "--n-atoms", "10", "--steps", "50", "--out", str(out)],
            env=env,
        )
        assert result.exit_code == 0, result.output
    assert outs[0].read_bytes() == outs[1].read_bytes()
    written = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*") if p.is_file())
    assert written == ["out/run1.csv", "out/run1.csv.manifest.json",
                       "out/run2.csv", "out/run2.csv.manifest.json"]


def test_energy_at_the_largest_supported_sector(runner, tmp_path):
    out = tmp_path / "n64.csv"
    result = runner.invoke(
        main, ["energy", "--n-atoms", "64", "--init", "fock:64", "--steps", "200", "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    _, data = read_csv(out)
    expected = oracle.oracle_F(SectorSpec(64, 64), data[:, 0])
    assert np.max(np.abs(data[:, 1] - expected)) < 1e-8


def _truncated_json(path):
    path.write_text('{"probs": {"0": 0.5, "2": 0.')
    return f"file:{path}"


def _short_mass_json(path):
    path.write_text(json.dumps({"probs": {"0": 0.4, "2": 0.5}}))
    return f"file:{path}"


def _nan_probability_json(path):
    path.write_text('{"probs": {"1": 0.5, "2": NaN, "3": 0.5}}')
    return f"file:{path}"


BAD_DISTRIBUTIONS = {
    "truncated-json": _truncated_json,
    "sums-to-0.9": _short_mass_json,
    "coherent-abc": lambda path: "coherent:abc",
    "coherent-extra-field": lambda path: "coherent:6:16:junk",
    "fock-abc": lambda path: "fock:abc",
    "nan-probability": _nan_probability_json,
}


def _table_command(command, dist, tmp_path):
    if command == "split-check":
        return ["split-check", "--dist", dist, "--n-atoms", "10"]
    rates = ["--kappa", "0", "--gamma-phi", "0"] if command == "lindblad" else []
    return [command, "--init", dist, "--n-atoms", "10", *rates, "--out", str(tmp_path / "x.csv")]


@pytest.mark.parametrize("command", ["energy", "split-check", "lindblad"])
@pytest.mark.parametrize("case", sorted(BAD_DISTRIBUTIONS))
def test_bad_distribution_exits_3_with_one_line(runner, tmp_path, command, case):
    dist = BAD_DISTRIBUTIONS[case](tmp_path / "dist.json")
    result = runner.invoke(main, _table_command(command, dist, tmp_path))
    assert result.exit_code == 3, result.output
    assert "Traceback" not in result.output
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"{command} failed: bad distribution")
    assert not (tmp_path / "x.csv").exists()


def _fail_diagonalize(matrix):
    raise oracle.ConvergenceFailure("eigen residual 1e-3")


def _fail_series(spectrum):
    raise spectral.ImaginaryLeak("pair (0,1) amplitude imag 1e-3")


@pytest.mark.parametrize("module, name, fake", [
    (spectral, "diagonalize", _fail_diagonalize),
    (battery, "number_state_energy", _fail_series),
], ids=["ConvergenceFailure", "SpectralError"])
@pytest.mark.parametrize("command", ["energy", "split-check", "inequality"])
def test_table_failure_exits_2(runner, tmp_path, monkeypatch, module, name, fake, command):
    monkeypatch.setattr(module, name, fake)
    if command == "inequality":
        args = ["inequality", "--which", "28", "--n-atoms", "10", "--max-m", "3"]
    else:
        args = _table_command(command, "fock:3", tmp_path)
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"{command} failed: ")
    assert list(tmp_path.iterdir()) == []


def _fail_spectrum(spec, branches):
    raise spectral.ImaginaryLeak("relative eigenvector imaginary part 1e-3")


def _fail_solve(n_atoms, m_max):
    raise oracle.ConvergenceFailure("eigen residual 1e-3")


def _miss_branches(n_atoms, m_max):
    raise cli.bethe.MissingBranches(2, 3, n_atoms, m_max)


@pytest.mark.parametrize("module, name, fake", [
    (spectral, "sector_spectrum", _fail_spectrum),
    (cli.bethe, "solve_sectors", _fail_solve),
    (cli.bethe, "solve_sectors", _miss_branches),
], ids=["SpectralError", "ConvergenceFailure", "MissingBranches"])
def test_spectrum_failure_exits_2(runner, tmp_path, monkeypatch, module, name, fake):
    monkeypatch.setattr(module, name, fake)
    out = tmp_path / "spec"
    result = runner.invoke(main, ["spectrum", "--n-atoms", "10", "--m-max", "2", "--out", str(out)])
    assert result.exit_code == 2, result.output
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("spectrum failed: ")
    assert not list(out.glob("*.json"))


def test_huge_coherent_mean_exits_3_quickly(runner, tmp_path):
    out = tmp_path / "x.csv"
    result = runner.invoke(
        main, ["energy", "--init", "coherent:1000", "--n-atoms", "3", "--out", str(out)]
    )
    assert result.exit_code == 3, result.output
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("energy failed: ")
    assert not out.exists()


def _assert_usage_error(result, hint):
    assert result.exit_code == 2, result.output
    assert "Traceback" not in result.output
    assert result.output.strip().splitlines()[-1].startswith(f"Error: Invalid value for {hint}")


@pytest.mark.parametrize("init", ["fock:65", "fock:-1"])
def test_lindblad_fock_outside_supported_sectors_exits_3_with_one_line(runner, tmp_path, init):
    out = tmp_path / "open.csv"
    result = runner.invoke(
        main,
        ["lindblad", "--n-atoms", "2", "--init", init, "--kappa", "0", "--gamma-phi", "0",
         "--out", str(out)],
    )
    assert result.exit_code == 3, result.output
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("lindblad failed: ")
    assert not out.exists()


@pytest.mark.parametrize("args, flag", [
    (["lindblad", "--n-atoms", "2", "--init", "fock:1", "--kappa", "0", "--gamma-phi", "0",
      "--stride", "0"], "'--stride'"),
    (["lindblad", "--n-atoms", "2", "--init", "fock:1", "--kappa", "0", "--gamma-phi", "0",
      "--stride", "-3"], "'--stride'"),
    (["energy", "--init", "fock:2", "--n-atoms", "3", "--t-end", "0"], "'--t-end'"),
    (["energy", "--init", "fock:2", "--n-atoms", "3", "--t-end", "-1"], "'--t-end'"),
], ids=["stride-0", "stride-neg", "t-end-0", "t-end-neg"])
def test_out_of_range_flag_is_a_usage_error(runner, tmp_path, args, flag):
    out = tmp_path / "out.csv"
    result = runner.invoke(main, [*args, "--out", str(out)])
    _assert_usage_error(result, flag)
    assert not out.exists()


def test_lindblad_has_no_truncation_flag(runner, tmp_path):
    result = runner.invoke(
        main,
        ["lindblad", "--n-atoms", "2", "--init", "fock:1", "--kappa", "0", "--gamma-phi", "0",
         "--n-max", "20", "--out", str(tmp_path / "open.csv")],
    )
    assert result.exit_code == 2 and "No such option '--n-max'" in result.output


@pytest.mark.parametrize("text, hint", [
    ('{"optimal": {"mean": 2.', "'--config'"),
    ('[1, 2]', "'--config'"),
    ('{"energy": "x"}', "'--config'"),
    ('{"lindblad": {"kappa": [1, 2]}}', "'--config'"),
    ('{"optimal": {"mean": null}}', "'--config'"),
    ('{"optimal": {"mean": true}}', "'--config'"),
    ('{"energy": {"n_atoms": 3.7}}', "'--n-atoms'"),
    ('{"enrgy": {"x": 1}}', "'--config'"),
    ('{"energy": {"n_atom": 3}}', "'--config'"),
], ids=["invalid", "not-object", "section-not-object", "list-value", "null-value", "boolean-value",
        "fractional-int", "unknown-section", "unknown-key"])
def test_bad_config_file_is_a_usage_error(runner, tmp_path, text, hint):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    out = tmp_path / "e.csv"
    result = runner.invoke(main, ["--config", str(cfg), "energy", "--init", "fock:1", "--out", str(out)])
    _assert_usage_error(result, hint)
    assert not out.exists()


@pytest.mark.parametrize("text, tail", [
    ('{"enrgy": {"x": 1}}', "section 'enrgy' names no command"),
    ('{"energy": {"n_atom": 3}}', "energy has no parameter 'n_atom'"),
], ids=["section", "key"])
def test_config_error_names_the_unknown_entry(runner, tmp_path, text, tail):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    result = runner.invoke(main, ["--config", str(cfg), "optimal", "--mean", "2"])
    _assert_usage_error(result, "'--config'")
    assert result.output.strip().splitlines()[-1].endswith(tail)


def test_failed_write_keeps_the_previous_file(tmp_path, monkeypatch):
    target = tmp_path / "data.json"
    cli._write_json(target, {"run": 1})

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(cli.os, "replace", refuse)
    with pytest.raises(SystemExit) as err:
        cli._write_json(target, {"run": 2})
    assert err.value.code == 2
    assert json.loads(target.read_text()) == {"run": 1}
    assert [p.name for p in tmp_path.iterdir()] == ["data.json"]


@pytest.mark.parametrize("args", [
    ["solve", "--n-atoms", "2", "--m-max", "2"],
    ["spectrum", "--n-atoms", "2", "--m-max", "2"],
    ["energy", "--init", "fock:2", "--n-atoms", "2", "--steps", "10"],
    ["optimal", "--mean", "2.5"],
    ["split-check", "--dist", "fock:2", "--n-atoms", "2"],
    ["inequality", "--which", "28", "--n-atoms", "2", "--max-m", "2"],
    ["lindblad", "--n-atoms", "2", "--init", "fock:1", "--kappa", "0", "--gamma-phi", "0",
     "--t-end", "0.01"],
], ids=lambda args: args[0])
def test_unwritable_out_exits_2_with_one_line(runner, tmp_path, args):
    # A regular file where a directory is needed; a read-only directory would not stop a superuser.
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = blocker / "out"
    result = runner.invoke(main, [*args, "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "Traceback" not in result.output
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"cannot write {out}"), result.stderr
    assert [p.name for p in tmp_path.iterdir()] == ["blocker"]


@pytest.mark.parametrize("args, flag", [
    (["split-check", "--dist", "fock:3", "--n-atoms", "10"], "--t"),
    (["energy", "--init", "fock:3", "--n-atoms", "10"], "--t-end"),
    (["lindblad", "--n-atoms", "2", "--init", "fock:1", "--gamma-phi", "0"], "--kappa"),
], ids=["split-check", "energy", "lindblad"])
def test_non_finite_float_flag_is_a_usage_error(runner, tmp_path, args, flag):
    out = tmp_path / "out.data"
    result = runner.invoke(main, [*args, flag, "nan", "--out", str(out)])
    _assert_usage_error(result, f"'{flag}'")
    assert not out.exists()


@pytest.mark.parametrize("args, line", [
    (["split-check", "--dist", "fock:3", "--n-atoms", "2", "--t", "1e308"],
     "split-check failed: result holds nan or inf"),
    (["split-check", "--dist", "fock:3", "--n-atoms", "2", "--t", "1e308", "--out", "{tmp}/s.json"],
     "split-check failed: result holds nan or inf"),
    (["energy", "--init", "fock:3", "--n-atoms", "2", "--steps", "3", "--t-end", "1e308",
      "--out", "{tmp}/e.csv"], "energy failed: column E of e.csv holds nan or inf"),
    (["estimate", "--e-known", "1e-300", "--m", "64", "--e-observed", "1e300"],
     "estimate failed: photon-number estimate is inf"),
], ids=["split-check", "split-check-out", "energy", "estimate"])
def test_non_finite_result_exits_3_with_one_line(runner, tmp_path, args, line):
    result = runner.invoke(main, [a.format(tmp=tmp_path) for a in args])
    assert result.exit_code == 3, result.output
    assert result.stdout == ""
    assert result.stderr.strip().splitlines() == [line]
    assert list(tmp_path.iterdir()) == []


COMPLETENESS_N2_M3 = ["sector (N=2, M=3): zero-energy state has no regular root set (odd M > 2J); "
                      "eigenvector fixed by completeness"]


@pytest.mark.parametrize("args, manifest, config, seed, warnings", [
    (["solve", "--n-atoms", "2", "--m-max", "3"], "out/manifest.json",
     {"n_atoms": 2, "m_max": 3}, 0, COMPLETENESS_N2_M3),
    (["spectrum", "--n-atoms", "2", "--m-max", "3", "--seed", "4"], "out/manifest.json",
     {"n_atoms": 2, "m_max": 3}, 4, COMPLETENESS_N2_M3),
    (["energy", "--init", "coherent:2:8", "--n-atoms", "4", "--steps", "50", "--seed", "7"],
     "out.manifest.json", {"init": "coherent:2:8", "n_atoms": 4, "t_end": 3.0, "steps": 50}, 7, []),
    (["optimal", "--mean", "2.5"], "out.manifest.json", {"mean": 2.5}, None, []),
    (["split-check", "--dist", "fock:3", "--n-atoms", "10", "--t", "0.7", "--seed", "3"],
     "out.manifest.json", {"dist": "fock:3", "n_atoms": 10, "t": 0.7}, 3, []),
    (["inequality", "--which", "28", "--n-atoms", "4", "--max-m", "5"], "out.manifest.json",
     {"which": "28", "n_atoms": 4, "max_m": 5}, 0, []),
    (["lindblad", "--n-atoms", "2", "--init", "fock:2", "--kappa", "0.2", "--gamma-phi", "0.1",
      "--t-end", "0.4"], "out.manifest.json",
     {"n_atoms": 2, "init": "fock:2", "kappa": 0.2, "gamma_phi": 0.1, "dt": 0.001, "t_end": 0.4,
      "stride": 10}, None, []),
], ids=["solve", "spectrum", "energy", "optimal", "split-check", "inequality", "lindblad"])
def test_manifest_echoes_parameters_seed_and_warnings(runner, tmp_path, args, manifest, config, seed,
                                                       warnings):
    result = runner.invoke(main, [*args, "--out", str(tmp_path / "out")])
    assert result.exit_code == 0, result.output
    doc = json.loads((tmp_path / manifest).read_text())
    assert doc.pop("wall_time_s") >= 0
    assert doc == {"command": args[0], "config": config, "seed": seed, "version": tcqb.__version__,
                   "warnings": warnings}


@pytest.mark.parametrize("args", [
    ["optimal", "--mean", "2.5"],
    ["split-check", "--dist", "coherent:2:8", "--n-atoms", "4"],
], ids=lambda args: args[0])
def test_out_holds_the_payload_printed_without_it(runner, tmp_path, args):
    printed = runner.invoke(main, args)
    assert printed.exit_code == 0, printed.output
    out = tmp_path / "out.json"
    written = runner.invoke(main, [*args, "--out", str(out)])
    assert written.exit_code == 0, written.output
    assert written.stdout == f"wrote {out}\n"
    assert out.read_text() == json.dumps(json.loads(printed.stdout), indent=2, sort_keys=True) + "\n"


def test_every_command_runs_through_the_runner():
    assert sorted(main.commands) == ["energy", "estimate", "inequality", "lindblad", "optimal",
                                     "solve", "spectrum", "split-check", "verify"]
    assert all(isinstance(command, cli.Runner) for command in main.commands.values())


STARTUP_PROBE = """
import sys
import tcqb, tcqb.cli

out = sys.argv[1]
for args in (
    ["energy", "--init", "coherent:2:8", "--n-atoms", "4", "--steps", "50", "--out", out + "/e.csv"],
    ["split-check", "--dist", "coherent:2:8", "--n-atoms", "4"],
    ["inequality", "--which", "29", "--n-atoms", "4", "--max-m", "4"],
    ["optimal", "--mean", "2.5"],
    ["estimate", "--e-known", "1", "--m", "2", "--e-observed", "3"],
    ["verify", "--n-atoms", "2", "--m-max", "4"],
    ["lindblad", "--n-atoms", "2", "--init", "fock:2", "--kappa", "0.2", "--gamma-phi", "0.1",
     "--t-end", "0.01", "--out", out + "/l.csv"],
):
    tcqb.cli.main(args, standalone_mode=False)
print(sorted(name for name in sys.modules if name.startswith("scipy")))
"""


def test_table_commands_run_without_scipy(tmp_path):
    src = str(Path(tcqb.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", STARTUP_PROBE, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
