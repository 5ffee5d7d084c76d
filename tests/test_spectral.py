import itertools
import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from tcqb.bethe import SectorSpec, solve_sectors
from tcqb.cli import main
from tcqb.oracle import diagonalize, oracle_F, sector_hamiltonian
from tcqb.spectral import (
    CosineSeries,
    NoMaximumFound,
    elementary_symmetric,
    expand_eigenstate,
    first_max_time,
    initial_overlap,
    sector_spectrum,
    series_derivative,
    tridiagonal_spectrum,
)

SQRT10 = math.sqrt(10.0)


class TestElementarySymmetric:
    def test_matches_bruteforce_enumeration(self):
        rng = np.random.default_rng(11)
        values = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        e = elementary_symmetric(values)
        for k in range(7):
            brute = sum(
                np.prod(combo) for combo in itertools.combinations(values, k)
            )
            assert abs(e[k] - brute) < 1e-12 * max(1.0, abs(brute))

    def test_degree_edges(self):
        e = elementary_symmetric(np.array([2.0, 3.0]))
        assert e[0] == 1.0
        assert e[2] == pytest.approx(6.0)


class TestExpandEigenstate:
    def test_single_excitation_direction(self, chains):
        spec = SectorSpec(10, 1)
        branch = next(b for b in chains[1] if b.energy < 0)  # roots {+sqrt(10)}
        vec = expand_eigenstate(branch, spec)
        vec = vec.real / np.linalg.norm(vec.real)
        # eigenvector of [[0, sqrt(10)], [sqrt(10), 0]] at -sqrt(10)
        assert vec == pytest.approx(np.array([1.0, -1.0]) / math.sqrt(2.0), abs=1e-12)

    def test_vacuum_sector(self, chains):
        vec = expand_eigenstate(chains[0][0], SectorSpec(10, 0))
        assert vec == pytest.approx(np.array([1.0 + 0j]))

    def test_branch_pair_orthogonal(self, chains):
        spec = SectorSpec(10, 1)
        a, b = (expand_eigenstate(br, spec) for br in chains[1])
        a = a / np.linalg.norm(a)
        b = b / np.linalg.norm(b)
        assert abs(np.vdot(a, b)) < 1e-12


class TestSectorSpectrum:
    def test_known_energies_m2(self, spectra):
        root38 = math.sqrt(38.0)
        assert spectra[2].energies == pytest.approx([-root38, 0.0, root38], abs=1e-10)
        # two decimals as printed
        assert spectra[2].energies[0] == pytest.approx(-6.16, abs=1e-2)

    def test_known_energies_m1(self, spectra):
        assert spectra[1].energies == pytest.approx([-SQRT10, SQRT10], abs=1e-12)

    def test_vectors_match_exact_diagonalization_up_to_sign(self, spectra):
        evals, evecs = diagonalize(sector_hamiltonian(SectorSpec(10, 4)))
        for i in range(evals.size):
            v = spectra[4].vectors[i]
            w = evecs[:, i]
            if abs(v @ w) < 0:  # pragma: no cover - sign fixed below
                w = -w
            sign = 1.0 if v @ w >= 0 else -1.0
            assert np.max(np.abs(v - sign * w)) < 1e-10

    def test_orthonormal_including_completeness_sector(self, spectra):
        for m in (4, 11, 15, 20):
            vec = spectra[m].vectors
            gram = vec @ vec.T
            assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-10

    def test_tridiagonal_spectrum_equals_root_built_basis(self, spectra):
        for m, root_built in spectra.items():
            direct = tridiagonal_spectrum(SectorSpec(10, m))
            assert np.all(np.diff(direct.energies) > 0)
            assert np.all(direct.vectors[:, 0] >= 0)
            assert np.max(np.abs(direct.energies - root_built.energies)) < 1e-9
            assert np.max(np.abs(direct.vectors - root_built.vectors)) < 1e-9

    def test_root_built_vectors_hold_far_below_the_gate_at_n16(self):
        # Leja order keeps the elementary symmetric functions accurate:
        # in input order the worst residual here is 9.2e-12.
        for m, branches in solve_sectors(16, 24).items():
            spectrum = sector_spectrum(SectorSpec(16, m), branches)
            H = sector_hamiltonian(spectrum.spec).dense()
            res = np.max(np.abs(spectrum.vectors @ H - spectrum.energies[:, None] * spectrum.vectors))
            assert res < 3e-12, m

    def test_energies_match_generating_branches(self, chains, spectra):
        for m in (3, 8, 14):
            want = sorted(b.energy for b in chains[m])
            assert spectra[m].energies == pytest.approx(want, abs=1e-9)


class TestInitialOverlap:
    def test_single_excitation_overlaps(self, spectra):
        values = [initial_overlap(spectra[1], s) for s in range(2)]
        # sign convention makes both positive 1/sqrt(2)
        assert values == pytest.approx([1 / math.sqrt(2)] * 2, abs=1e-12)

    def test_vacuum_overlap_is_one(self, spectra):
        assert initial_overlap(spectra[0], 0) == pytest.approx(1.0)

    def test_overlaps_complete(self, spectra):
        total = sum(initial_overlap(spectra[6], s) ** 2 for s in range(7))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_out_of_range_raises(self, spectra):
        with pytest.raises(IndexError):
            initial_overlap(spectra[1], 5)


class TestNumberStateEnergy:
    def test_vacuum_series_is_zero(self, table):
        series = table.series[0]
        assert series.offset == 0.0
        assert series.terms == ()

    def test_single_photon_series(self, table):
        series = table.series[1]
        assert series.offset == pytest.approx(0.5, abs=1e-12)
        assert len(series.terms) == 1
        amp, omega = series.terms[0]
        assert amp == pytest.approx(-0.5, abs=1e-12)
        assert omega == pytest.approx(2 * SQRT10, abs=1e-12)

    def test_two_photon_series_printed_values(self, table):
        series = table.series[2]
        assert series.offset == pytest.approx(1.01, abs=0.02)
        amps = dict((round(w, 2), a) for a, w in series.terms)
        assert amps[6.16] == pytest.approx(-1.00, abs=0.02)
        assert amps[12.33] == pytest.approx(-0.01, abs=0.02)

    def test_value_at_zero_vanishes(self, table):
        for m, series in table.series.items():
            assert abs(series.value(0.0)) < 1e-9

    def test_bounded_by_capacity(self, table):
        t = np.linspace(0.0, 10.0, 2000)
        for m in (1, 6, 13, 20):
            f = table.series[m].value(t)
            assert np.all(f >= -1e-9)
            assert np.all(f <= min(m, 10) + 1e-6)

    def test_frequencies_are_eigenvalue_gaps(self, spectra, table):
        for m in (3, 9):
            energies = spectra[m].energies
            gaps = {
                round(energies[s] - energies[g], 9)
                for g in range(energies.size)
                for s in range(g + 1, energies.size)
            }
            for _, omega in table.series[m].terms:
                assert any(abs(omega - gap) < 1e-6 for gap in gaps)

    def test_offset_is_diagonal_ensemble_value(self, spectra, table):
        for m in (2, 7):
            spect = spectra[m]
            c = spect.vectors[:, 0]
            photon = m - np.arange(spect.dimension)
            diag = sum(c[s] ** 2 * (spect.vectors[s] * photon @ spect.vectors[s]) for s in range(spect.dimension))
            assert table.series[m].offset == pytest.approx(m - diag, abs=1e-10)

    def test_matches_oracle_on_grid(self, table):
        t = np.linspace(0.0, 3.0, 400)
        for m in (1, 5, 11, 16):
            gap = np.max(np.abs(table.series[m].value(t) - oracle_F(SectorSpec(10, m), t)))
            assert gap < 1e-8


class TestFirstMaxTime:
    def test_single_photon_peak(self, table):
        t_max = first_max_time(table.series[1])
        assert t_max == pytest.approx(math.pi / (2 * SQRT10), abs=1e-6)

    def test_zero_series_has_no_maximum(self):
        with pytest.raises(NoMaximumFound):
            first_max_time(CosineSeries(offset=0.0, terms=()))

    def test_peak_dominates_earlier_grid_values(self, table):
        series = table.series[10]
        t_max = first_max_time(series)
        grid = np.arange(1, int(t_max / 1e-3)) * 1e-3
        assert series.value(t_max) >= np.max(series.value(grid)) - 1e-9


class TestSeriesDerivative:
    def test_zero_at_origin(self, table):
        assert series_derivative(table.series[1]).value(0.0) == 0.0

    def test_matches_finite_differences(self, table):
        deriv = series_derivative(table.series[2])
        h = 1e-5
        series = table.series[2]
        for t in (0.1, 0.37, 0.8):
            fd = (series.value(t + h) - series.value(t - h)) / (2 * h)
            assert deriv.value(t) == pytest.approx(fd, abs=1e-6)

    def test_zero_series(self):
        deriv = series_derivative(CosineSeries(offset=0.0, terms=()))
        assert deriv.value(1.3) == 0.0


def test_series_json_roundtrip(table, tmp_path):
    # The spectrum command solves the same N = 10 chain as the table.
    result = CliRunner().invoke(main, ["spectrum", "--n-atoms", "10", "--m-max", "3", "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    series = table.series[3]
    doc = json.loads((tmp_path / "spectrum_M03.json").read_text())["series"]
    assert doc["m"] == 3
    assert doc["offset"] == float(f"{series.offset:.12g}")
    assert doc["terms"] == [[float(f"{a:.12g}"), float(f"{w:.12g}")] for a, w in series.terms]
