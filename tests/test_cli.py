import gc
import json
import math
import os
import stat
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

    def test_tiny_fractional_mean_is_not_snapped(self, runner, tmp_path):
        # A mean of 5e-10 is not the integer 0: the optimal partner is the
        # pmf itself, so the gap is zero and both routes agree.
        dist_path = tmp_path / "tiny.json"
        dist_path.write_text(json.dumps({"probs": {"0": 1 - 5e-10, "1": 5e-10}}))
        for n_atoms, t in (("2", "0.3"), ("4", "0.5")):
            result = runner.invoke(
                main, ["split-check", "--dist", f"file:{dist_path}", "--n-atoms", n_atoms, "--t", t]
            )
            assert result.exit_code == 0, result.output
            doc = json.loads(result.output)
            assert doc["delta_f"] >= -1e-12 and doc["group_mean_error"] < 1e-12
        result = runner.invoke(main, ["optimal", "--mean", "1e-300"])
        assert json.loads(result.output) == {"probs": {"0": 1.0, "1": 1e-300}}

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
        # The identity errors are pure-Python fsum arithmetic, the same on every host.
        assert doc["groups"] == 5
        assert doc["group_probability_error"] == 0.0
        assert doc["group_mean_error"] == 8.881784197e-16
        assert doc["delta_f"] == pytest.approx(0.18823908966, rel=1e-11)

    @pytest.mark.usefixtures("skewed_split")
    def test_split_check_route_mismatch_exits_3_with_one_line(self, runner):
        result = runner.invoke(main, ["split-check", "--dist", "coherent:6:16", "--n-atoms", "10"])
        assert result.exit_code == 3, result.output
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1, result.stderr
        assert lines[0].startswith("split-check failed: direct and split routes differ by "), lines

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

    def test_derivative_ordering_counterexample_keeps_its_counts(self, runner, tmp_path):
        # The 7b counterexample (ROADMAP): a series change that moved these
        # counts would move the acceptance failure without a word.
        out = tmp_path / "ineq29.json"
        result = runner.invoke(
            main,
            ["inequality", "--which", "29", "--n-atoms", "10", "--max-m", "14",
             "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        doc = json.loads(out.read_text())
        assert (doc["violations"], doc["combinations"]) == (18901, 560)
        assert len(doc["violating_indices"]) == 231
        assert result.stdout.splitlines() == [
            "18901 violations over 560 index combinations",
            "worst: indices (10, 1, 1) excess 7.44228576399 at t=0.496",
        ]


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

    def test_negative_zero_observed_energy_prints_0(self, runner):
        result = runner.invoke(
            main, ["estimate", "--e-known", "2", "--m", "3", "--e-observed", "-0.0"]
        )
        assert result.exit_code == 0, result.output
        assert result.stdout == "0\n"
        assert math.copysign(1.0, battery.estimate_photon_number(2.0, 3, -0.0)) == 1.0


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

    def test_closed_n32_run_at_the_default_dt_exits_5_with_one_line(self, runner, tmp_path):
        # RK4 at dt 1e-3 takes this supported closed run out of the positive
        # cone (ROADMAP item 2); the failure is reported, and nothing is written.
        out = tmp_path / "open.csv"
        result = runner.invoke(
            main,
            ["lindblad", "--n-atoms", "32", "--init", "fock:32", "--kappa", "0",
             "--gamma-phi", "0", "--t-end", "1", "--out", str(out)],
        )
        assert result.exit_code == 5, result.output
        assert result.stdout == ""
        assert result.stderr.splitlines() == [
            "lindblad failed: min eig(rho) fell to -1.166e-06 at t = 0.05; reduce dt"]
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize("dt, steps", [("1e-300", "1e+298"), ("1e-9", "1e+07")])
    def test_more_steps_than_the_cap_exit_5_with_one_line(self, runner, tmp_path, dt, steps):
        # Uncapped, the first would never end and the second would take
        # minutes; both are refused before a step is taken.
        out = tmp_path / "l.csv"
        result = runner.invoke(
            main,
            ["lindblad", "--n-atoms", "2", "--init", "fock:2", "--kappa", "0", "--gamma-phi", "0",
             "--dt", dt, "--t-end", "0.01", "--out", str(out)],
        )
        assert result.exit_code == 5, result.output
        lines = result.output.strip().splitlines()
        assert lines == [f"lindblad failed: t_end / dt = {steps} steps exceeds the limit of 2000000"]
        assert not out.exists()

    def test_an_untyped_error_of_the_run_is_not_an_open_system_failure(self, runner, tmp_path, monkeypatch):
        # Only lindblad's own errors exit 5; a bare ValueError is a fault of the program.
        def broken(dist, config):
            raise ValueError("not an open-system error")

        monkeypatch.setattr(lindblad, "evolve", broken)
        result = runner.invoke(main, ["lindblad", "--n-atoms", "2", "--init", "fock:2", "--kappa", "0",
                                      "--gamma-phi", "0", "--t-end", "0.01", "--out", str(tmp_path / "l.csv")])
        assert result.exit_code == 1 and type(result.exception) is ValueError
        assert "lindblad failed" not in result.output

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
        # N = 2, M = 3 is beyond M = N, so its file holds the dual's two roots per branch.
        out = tmp_path / "solve"
        assert runner.invoke(main, ["solve", "--n-atoms", "2", "--m-max", "3", "--out", str(out)]).exit_code == 0
        result = runner.invoke(main, ["verify", "--n-atoms", "2", "--m-max", "3", "--dir", str(out)])
        assert result.exit_code == 0, result.output
        assert "all invariants pass" in result.output
        path = out / "sector_M03.json"
        provenance = [b["provenance"] for b in json.loads(path.read_text())["branches"]]
        back = cli._read_branches(path, 2, 3)
        assert [b.provenance for b in back] == provenance
        solved = bethe.solve_sectors(2, 3)[3]
        assert [b.provenance for b in solved] == provenance
        assert [len(b.roots) for b in back] == [2, 2, 2]
        assert np.allclose([b.roots for b in back], [b.roots for b in solved], rtol=0, atol=1e-10)

    @pytest.mark.parametrize("solved_n, verify_n, edit, line", [
        ("10", "10", {"n_atoms": 99, "m": 7}, "sector_M02.json: file records n_atoms = 99, expected 10"),
        ("10", "10", {"m": 7}, "sector_M02.json: file records m = 7, expected 2"),
        ("2", "10", {}, "sector_M01.json: file records n_atoms = 2, expected 10"),
        # Equal to the expected count, but not integers: True == 1 and 2.0 == 2 in Python.
        ("1", "1", {"n_atoms": True, "m": 2.0}, "sector_M02.json: file records n_atoms = True, expected 1"),
        ("1", "1", {"m": 2.0}, "sector_M02.json: file records m = 2.0, expected 2"),
    ], ids=["edited-n-atoms-and-m", "edited-m", "solved-at-n-2", "n-atoms-a-bool", "m-a-float"])
    def test_sector_mismatch_exits_4_naming_both_values(self, runner, tmp_path, solved_n, verify_n, edit, line):
        out = tmp_path / "solve"
        assert runner.invoke(
            main, ["solve", "--n-atoms", solved_n, "--m-max", "2", "--out", str(out)]
        ).exit_code == 0
        path = out / "sector_M02.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), **edit}))
        result = runner.invoke(
            main, ["verify", "--n-atoms", verify_n, "--m-max", "2", "--dir", str(out)]
        )
        assert result.exit_code == 4, result.output
        assert result.stdout == ""
        assert result.stderr.strip().splitlines() == [f"verify could not obtain branches: {line}"]

    @pytest.mark.parametrize("case", ["roots-not-a-list", "json-list", "zero-root", "wrong-root-count",
                                      "energy-a-string", "residual-a-bool", "provenance-a-list",
                                      "root-a-bool", "branches-an-object", "branches-missing",
                                      "branch-a-list", "root-of-one-number"])
    def test_malformed_branch_file_exits_4_with_one_line(self, runner, tmp_path, case):
        out = tmp_path / "solve"
        assert runner.invoke(
            main, ["solve", "--n-atoms", "10", "--m-max", "2", "--out", str(out)]
        ).exit_code == 0
        path = out / "sector_M02.json"
        doc = json.loads(path.read_text())
        branch = doc["branches"][0]
        # Each of these four would read back as the value it spells.
        if case == "energy-a-string":
            branch["energy"] = str(branch["energy"])
        elif case == "residual-a-bool":
            branch["residual"] = False
        elif case == "provenance-a-list":
            branch["provenance"] = ["x"]
        elif case == "root-a-bool":
            doc["branches"][1]["roots"][0][1] = False  # the zero-energy branch's -3 + 0j
        elif case == "roots-not-a-list":
            doc["branches"][0]["roots"] = 5
        elif case == "json-list":
            doc = [doc]
        elif case == "branches-an-object":
            doc["branches"] = {"0": branch}
        elif case == "branches-missing":
            del doc["branches"]
        elif case == "branch-a-list":
            doc["branches"][0] = [branch]
        elif case == "root-of-one-number":
            branch["roots"][0] = branch["roots"][0][:1]
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
        assert MALFORMED_BRANCH_MESSAGES.get(case, "") in lines[0]

    @pytest.mark.parametrize("drop, line", [
        (None, "branch 0 has 3 roots, sector (N=2, M=3) needs 2"),
        (0, "branch 0 has 0 roots, sector (N=2, M=3) needs 2"),
    ], ids=["m-roots", "root-free"])
    def test_sector_file_with_m_roots_beyond_n_exits_4(self, runner, tmp_path, drop, line):
        # A file in the format that held M roots beyond M = N, and a root-free
        # branch for the zero-energy state at odd M, is refused by its root count.
        out = tmp_path / "solve"
        assert runner.invoke(main, ["solve", "--n-atoms", "2", "--m-max", "3", "--out", str(out)]).exit_code == 0
        doc = json.loads(M_ROOTS_N2_M3)
        if drop is not None:
            del doc["branches"][drop]
        (out / "sector_M03.json").write_text(json.dumps(doc))
        result = runner.invoke(main, ["verify", "--n-atoms", "2", "--m-max", "3", "--dir", str(out)])
        assert result.exit_code == 4, result.output
        assert result.stdout == ""
        assert result.stderr.strip().splitlines() == [f"verify could not obtain branches: sector_M03.json: {line}"]


# sector_M03.json for N = 2 as written when the branches of a sector beyond
# M = N held M roots, with the zero-energy state as a root-free branch.
M_ROOTS_N2_M3 = """{"branches": [
 {"energy": -3.16227766017, "provenance": "continuation", "residual": 1.11022302463e-16,
  "roots": [[0.98462429867, -1.29658944231], [0.98462429867, 1.29658944231], [1.19302906283, 0.0]]},
 {"energy": 0.0, "provenance": "completeness", "residual": 0.0, "roots": []},
 {"energy": 3.16227766017, "provenance": "continuation", "residual": 1.11022302463e-16,
  "roots": [[-1.19302906283, 0.0], [-0.98462429867, -1.29658944231], [-0.98462429867, 1.29658944231]]}],
 "m": 3, "n_atoms": 2}"""


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


def _nan_probability_json(path):
    path.write_text('{"probs": {"1": 0.5, "2": NaN, "3": 0.5}}')
    return f"file:{path}"


def _repeated_key_json(path):
    path.write_text('{"probs": {"1": 0.3, "2": 0.7, "1": 0.3}}')
    return f"file:{path}"


def _json_document(doc):
    def write(path):
        path.write_text(json.dumps(doc))
        return f"file:{path}"
    return write


def _probs_json(probs):
    return _json_document({"probs": probs})


BAD_DISTRIBUTIONS = {
    "truncated-json": _truncated_json,
    "sums-to-0.9": _probs_json({"0": 0.4, "2": 0.5}),
    "boolean-probability": _probs_json({"1": True}),
    "coherent-abc": lambda path: "coherent:abc",
    "coherent-extra-field": lambda path: "coherent:6:16:junk",
    "coherent-negative": lambda path: "coherent:-1",
    "coherent-negative-truncation": lambda path: "coherent:3:-1",
    "coherent-nan": lambda path: "coherent:nan",
    "fock-abc": lambda path: "fock:abc",
    "nan-probability": _nan_probability_json,
    "negative-photon-number": _probs_json({"-1": 1.0}),
    "no-support": _probs_json({}),
    "zero-probability-only": _probs_json({"3": 0.0}),
    "unknown-kind": lambda path: "bogus:1",
    "string-probability": _probs_json({"1": "1"}),
    "underscore-photon-number": _probs_json({"1_0": 1.0}),
    "padded-photon-number": _probs_json({" 2 ": 1.0}),
    "zero-padded-photon-number": _probs_json({"1": 0.5, "01": 0.5}),
    "repeated-photon-number": _repeated_key_json,
    "document-an-array": _json_document([0.5, 0.5]),
    "probs-an-array": _json_document({"probs": [0.5, 0.5]}),
    "probs-null": _json_document({"probs": None}),
    "probs-missing": _json_document({"p": {"1": 1.0}}),
    "document-a-string": _json_document("x"),
}
# The one line names the fault itself, not a consequence of it.
BAD_DISTRIBUTION_MESSAGES = {
    "boolean-probability": "p(1) = True is a boolean",
    "coherent-negative-truncation": "truncation -1 is negative",
    "coherent-nan": "mean photon number nan is not finite",
    "string-probability": "p(1) = '1' is not a number",
    "underscore-photon-number": "photon number '1_0' is not an integer",
    "padded-photon-number": "photon number ' 2 ' is not an integer",
    "zero-padded-photon-number": "photon number '01' is not an integer",
    "repeated-photon-number": "key '1' is given twice",
    "document-an-array": "the document is not a JSON object",
    "probs-an-array": '"probs" is not a JSON object',
    "probs-null": '"probs" is not a JSON object',
    "probs-missing": '"probs" is not a JSON object',
    "document-a-string": "the document is not a JSON object",
}

# The one line names the fault in the sector file, not a consequence of it.
MALFORMED_BRANCH_MESSAGES = {
    "json-list": "the file is not a JSON object",
    "roots-not-a-list": 'branch 0 "roots" is not a JSON array',
    "branches-an-object": '"branches" is not a JSON array',
    "branches-missing": '"branches" is not a JSON array',
    "branch-a-list": "branch 0 is not a JSON object",
    "root-of-one-number": "not a pair [re, im]",
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
    assert BAD_DISTRIBUTION_MESSAGES.get(case, "") in lines[0]
    assert not (tmp_path / "x.csv").exists()


def _fail_diagonalize(matrix):
    raise oracle.ConvergenceFailure("eigen residual 1e-3")


def _fail_series(spectrum):
    raise spectral.SpectralError("series assembly failed")


@pytest.mark.parametrize("module, name, fake", [
    (spectral, "diagonalize", _fail_diagonalize),
    (spectral, "number_state_energy", _fail_series),
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
    raise bethe.MissingBranches(2, 3, n_atoms, m_max)


@pytest.mark.parametrize("module, name, fake", [
    (spectral, "sector_spectrum", _fail_spectrum),
    (bethe, "solve_sectors", _fail_solve),
    (bethe, "solve_sectors", _miss_branches),
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


@pytest.mark.parametrize("chunk_rows", [3, cli.CSV_CHUNK_ROWS])
def test_csv_rows_are_the_per_value_format(tmp_path, monkeypatch, chunk_rows):
    # Rows go out a chunk at a time, each formatted by one %-operation; the
    # bytes must be those of formatting every value on its own with _fmt.
    values = [-0.0, 0.0, 5e-324, -5e-324, 1e-300, 1e300, -1e300, 0.1 + 0.2, 1.0, -3.0, 2.0**53,
              1e15, 123456789012.0, 1234567890123.0, 1 / 3, math.pi, -2.5e-7]
    columns = [np.array(values), np.array(values[::-1]), np.arange(len(values), dtype=float) * 0.1]
    monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", chunk_rows)
    path = tmp_path / "x.csv"
    cli._write_csv(path, ["a", "b", "c"], columns)
    expected = ["a,b,c"] + [",".join(cli._fmt(float(v)) for v in row) for row in zip(*columns)]
    assert path.read_text() == "\n".join(expected) + "\n"
    assert path.read_text().splitlines()[1] == "-0,-2.5e-07,0"


FILE_OUT_ARGS = [
    ["energy", "--init", "fock:2", "--n-atoms", "2", "--steps", "10"],
    ["optimal", "--mean", "2.5"],
    ["split-check", "--dist", "fock:2", "--n-atoms", "2"],
    ["inequality", "--which", "28", "--n-atoms", "2", "--max-m", "2"],
    ["lindblad", "--n-atoms", "2", "--init", "fock:1", "--kappa", "0", "--gamma-phi", "0",
     "--t-end", "0.01"],
]


@pytest.mark.parametrize("args", [
    ["solve", "--n-atoms", "2", "--m-max", "2"],
    ["spectrum", "--n-atoms", "2", "--m-max", "2"],
    *FILE_OUT_ARGS,
], ids=lambda args: args[0])
def test_unwritable_out_exits_2_with_one_line(runner, tmp_path, monkeypatch, args):
    # A regular file where a directory is needed (a read-only directory would
    # not stop a superuser) and, for the commands that write one file, an
    # existing path that is not a regular file, which renaming over it would
    # replace: a FIFO, and the current directory that an empty path reads as.
    # solve and spectrum write into an empty --out as into ".".
    monkeypatch.chdir(tmp_path)
    blocker, fifo = tmp_path / "blocker", tmp_path / "fifo"
    blocker.write_text("")
    os.mkfifo(fifo)
    for out in [str(blocker / "out")] + ([str(fifo), ""] if args in FILE_OUT_ARGS else []):
        result = runner.invoke(main, [*args, "--out", out])
        assert result.exit_code == 2, result.output
        assert "Traceback" not in result.output
        assert result.stdout == ""  # refused before the command's work
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"cannot write {out or '.'}:"), result.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "fifo"]
    assert stat.S_ISFIFO(fifo.stat().st_mode)


@pytest.mark.parametrize("args", FILE_OUT_ARGS, ids=lambda args: args[0])
@pytest.mark.parametrize("target", ["real.json", "missing.json"], ids=["to-file", "dangling"])
def test_symlink_out_exits_2_and_stays_a_link(runner, tmp_path, monkeypatch, args, target):
    # Renaming over a link would replace the link and leave its target as it was.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "real.json").write_text("keep\n")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    result = runner.invoke(main, [*args, "--out", "link.json"])
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    assert result.stderr.strip().splitlines() == ["cannot write link.json: a symbolic link"]
    assert link.is_symlink() and os.readlink(link) == target
    assert (tmp_path / "real.json").read_text() == "keep\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "real.json"]


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
    # P = E/t divides by a time step that rounds to zero: no numpy warning on stderr.
    (["energy", "--init", "fock:3", "--n-atoms", "2", "--t-end", "5e-324", "--steps", "3",
      "--out", "{tmp}/a.csv"], "energy failed: column P of a.csv holds nan or inf"),
], ids=["split-check", "split-check-out", "energy", "estimate", "energy-subnormal-t-end"])
def test_non_finite_result_exits_3_with_one_line(runner, tmp_path, args, line):
    result = runner.invoke(main, [a.format(tmp=tmp_path) for a in args])
    assert result.exit_code == 3, result.output
    assert result.stdout == ""
    assert result.stderr.strip().splitlines() == [line]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args, manifest, config, seed", [
    (["solve", "--n-atoms", "2", "--m-max", "3"], "out/manifest.json", {"n_atoms": 2, "m_max": 3}, 0),
    (["spectrum", "--n-atoms", "2", "--m-max", "3", "--seed", "4"], "out/manifest.json",
     {"n_atoms": 2, "m_max": 3}, 4),
    (["energy", "--init", "coherent:2:8", "--n-atoms", "4", "--steps", "50", "--seed", "7"],
     "out.manifest.json", {"init": "coherent:2:8", "n_atoms": 4, "t_end": 3.0, "steps": 50}, 7),
    (["optimal", "--mean", "2.5"], "out.manifest.json", {"mean": 2.5}, None),
    (["split-check", "--dist", "fock:3", "--n-atoms", "10", "--t", "0.7", "--seed", "3"],
     "out.manifest.json", {"dist": "fock:3", "n_atoms": 10, "t": 0.7}, 3),
    (["inequality", "--which", "28", "--n-atoms", "4", "--max-m", "5"], "out.manifest.json",
     {"which": "28", "n_atoms": 4, "max_m": 5}, 0),
    (["lindblad", "--n-atoms", "2", "--init", "fock:2", "--kappa", "0.2", "--gamma-phi", "0.1",
      "--t-end", "0.4"], "out.manifest.json",
     {"n_atoms": 2, "init": "fock:2", "kappa": 0.2, "gamma_phi": 0.1, "dt": 0.001, "t_end": 0.4,
      "stride": 10}, None),
], ids=["solve", "spectrum", "energy", "optimal", "split-check", "inequality", "lindblad"])
def test_manifest_echoes_parameters_seed_and_warnings(runner, tmp_path, args, manifest, config, seed):
    # No command has a warning to record, so the manifest holds no warnings key.
    result = runner.invoke(main, [*args, "--out", str(tmp_path / "out")])
    assert result.exit_code == 0, result.output
    doc = json.loads((tmp_path / manifest).read_text())
    assert doc.pop("wall_time_s") >= 0
    assert doc == {"command": args[0], "config": config, "seed": seed, "version": tcqb.__version__}


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


def _child(argv, cwd=None):
    """Run `python *argv` with this checkout's tcqb importable."""
    src = str(Path(tcqb.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, cwd=cwd,
                          timeout=120)


STARTUP_PROBE = """
import json, sys
import tcqb.cli

code = 0
try:
    tcqb.cli.main(sys.argv[1:], standalone_mode=False)
except SystemExit as err:  # a failing command exits through its EXIT_TABLE row
    code = err.code
print(json.dumps([code, sorted(name for name in sys.modules if name.startswith(("scipy", "tcqb.")))]))
"""

_SOLVER = ("tcqb.bethe", "tcqb.spectral")


@pytest.mark.parametrize("args, code, loads, skips", [
    (["energy", "--init", "coherent:2:8", "--n-atoms", "4", "--steps", "50", "--out", "{out}/e.csv"],
     0, ["tcqb.spectral"], ["tcqb.bethe", "tcqb.lindblad"]),
    (["split-check", "--dist", "coherent:2:8", "--n-atoms", "4"],
     0, ["tcqb.spectral"], ["tcqb.bethe", "tcqb.lindblad"]),
    (["inequality", "--which", "29", "--n-atoms", "4", "--max-m", "4"],
     0, ["tcqb.spectral"], ["tcqb.bethe", "tcqb.lindblad"]),
    (["optimal", "--mean", "2.5"], 0, [], [*_SOLVER, "tcqb.lindblad"]),
    (["estimate", "--e-known", "1", "--m", "2", "--e-observed", "3"], 0, [], [*_SOLVER, "tcqb.lindblad"]),
    (["verify", "--n-atoms", "2", "--m-max", "4"], 0, list(_SOLVER), ["tcqb.lindblad"]),
    (["lindblad", "--n-atoms", "2", "--init", "fock:2", "--kappa", "0.2", "--gamma-phi", "0.1",
      "--t-end", "0.01", "--out", "{out}/l.csv"], 0, ["tcqb.lindblad"], list(_SOLVER)),
    # A failing command loads no more than it ran: its exit code comes from loaded modules only.
    (["energy", "--init", "bogus:1", "--n-atoms", "4", "--out", "{out}/e.csv"],
     3, [], [*_SOLVER, "tcqb.lindblad"]),
    (["optimal", "--mean", "-1"], 3, [], [*_SOLVER, "tcqb.lindblad"]),
    (["lindblad", "--n-atoms", "2", "--init", "fock:2", "--kappa", "0", "--gamma-phi", "0",
      "--dt", "2", "--t-end", "1", "--out", "{out}/l.csv"], 5, ["tcqb.lindblad"], list(_SOLVER)),
], ids=["energy", "split-check", "inequality", "optimal", "estimate", "verify", "lindblad",
        "energy-fails", "optimal-fails", "lindblad-fails"])
def test_each_command_loads_only_what_it_runs(tmp_path, args, code, loads, skips):
    # One child per command: the modules it loads are those it runs, and none is scipy.
    argv = [a.format(out=tmp_path) for a in args]
    proc = _child(["-c", STARTUP_PROBE, *argv])
    assert proc.returncode == 0, proc.stderr
    exit_code, loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    assert exit_code == code, proc.stderr
    assert not [name for name in loaded if name.startswith("scipy")]
    assert set(loads) <= set(loaded) and not set(skips) & set(loaded), loaded


ENTRY = "python -m tcqb.cli"


def test_process_entry_writes_what_the_in_process_run_writes(runner, tmp_path, monkeypatch):
    args = ["energy", "--init", "coherent:2:8", "--n-atoms", "4", "--steps", "50", "--out", "e.csv"]
    (tmp_path / "child").mkdir()
    (tmp_path / "runner").mkdir()
    proc = _child(["-m", "tcqb.cli", *args], cwd=tmp_path / "child")
    monkeypatch.chdir(tmp_path / "runner")
    result = runner.invoke(main, args, prog_name=ENTRY)
    assert proc.returncode == result.exit_code == 0, proc.stderr
    assert proc.stdout == result.stdout and proc.stderr == result.stderr == ""
    assert (tmp_path / "child" / "e.csv").read_bytes() == (tmp_path / "runner" / "e.csv").read_bytes()


@pytest.mark.parametrize("args, code", [
    (["energy", "--init", "bogus:1", "--n-atoms", "4", "--out", "e.csv"], 3),
    (["lindblad", "--n-atoms", "2", "--init", "fock:2", "--kappa", "0", "--gamma-phi", "0",
      "--dt", "2", "--t-end", "1", "--out", "l.csv"], 5),
    (["energy", "--bogus"], 2),
], ids=["bad-distribution", "lindblad-step", "unknown-option"])
def test_process_entry_keeps_exit_codes_and_stderr(runner, tmp_path, monkeypatch, args, code):
    monkeypatch.chdir(tmp_path)
    proc = _child(["-m", "tcqb.cli", *args])
    result = runner.invoke(main, args, prog_name=ENTRY)
    assert proc.returncode == result.exit_code == code
    assert proc.stdout == result.stdout == ""
    assert proc.stderr == result.stderr
    assert code == 2 or len(proc.stderr.splitlines()) == 1, proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_entry_runs_the_command_with_the_import_heap_frozen(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "main", lambda: seen.append((gc.isenabled(), gc.get_freeze_count())))
    try:
        cli.run()
    finally:
        gc.unfreeze()
    assert len(seen) == 1
    enabled, frozen = seen[0]
    assert enabled and frozen > 0


def test_installed_script_starts_through_the_entry():
    pyproject = Path(tcqb.__file__).resolve().parents[2] / "pyproject.toml"
    assert 'tcqb = "tcqb.cli:run"' in pyproject.read_text().splitlines()
