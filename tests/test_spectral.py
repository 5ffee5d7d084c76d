import dataclasses
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
    AMP_PRUNE_TOL,
    FREQ_MERGE_TOL,
    CosineSeries,
    EigenResidualTooLarge,
    ImaginaryLeak,
    IncompleteBranchSet,
    NoMaximumFound,
    elementary_symmetric,
    expand_eigenstate,
    first_max_time,
    number_state_energy,
    sector_spectrum,
    series_derivative,
    tridiagonal_spectrum,
)

SQRT10 = math.sqrt(10.0)


def _reference_number_state_energy(spectrum):
    """number_state_energy as one loop over the pairs in complex arithmetic."""
    M = spectrum.spec.excitations
    K = spectrum.dimension
    c = spectrum.vectors[:, 0]
    photon = M - np.arange(K, dtype=float)
    A = (spectrum.vectors * photon) @ spectrum.vectors.T
    coeff = np.outer(c, c).astype(complex) * A
    raw = []
    for g in range(K):
        for s in range(g + 1, K):
            amp = coeff[g, s] + coeff[s, g]
            raw.append((spectrum.energies[s] - spectrum.energies[g], -amp.real))
    raw.sort(key=lambda p: p[0])
    merged = []
    for omega, amp in raw:
        if merged and abs(omega - merged[-1][0]) < FREQ_MERGE_TOL:
            merged[-1][1] += amp
        else:
            merged.append([omega, amp])
    terms = tuple((amp, omega) for omega, amp in merged if abs(amp) >= AMP_PRUNE_TOL)
    return CosineSeries(offset=float(M - coeff.trace().real), terms=terms)


def _assert_matches_reference(spectrum):
    """Bit-identical terms; the offset within 1 ulp of M (its trace is summed in another order)."""
    got, want = number_state_energy(spectrum), _reference_number_state_energy(spectrum)
    assert [(a.hex(), w.hex()) for a, w in got.terms] == [(a.hex(), w.hex()) for a, w in want.terms]
    assert abs(got.offset - want.offset) <= np.spacing(float(spectrum.spec.excitations))


class TestElementarySymmetric:
    def test_matches_bruteforce_enumeration(self):
        rng = np.random.default_rng(11)
        values = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        e = elementary_symmetric(values[None])[0]
        for k in range(7):
            brute = sum(
                np.prod(combo) for combo in itertools.combinations(values, k)
            )
            assert abs(e[k] - brute) < 1e-12 * max(1.0, abs(brute))

    def test_rows_of_a_stack_are_independent_and_exact(self):
        rng = np.random.default_rng(5)
        stack = rng.standard_normal((5, 6)) + 1j * rng.standard_normal((5, 6))
        stack[2, [1, 4]] = 3.0 + 4.0j, -3.0 - 4.0j  # equal moduli, the row's largest: a Leja tie
        assert np.abs(stack[2, 1]) == np.abs(stack[2, 4]) == np.max(np.abs(stack[2]))
        e = elementary_symmetric(stack)
        assert e.shape == (5, 7)
        for row, values in zip(e, stack):
            alone = elementary_symmetric(values[None])[0]
            assert [z.hex() for x in row for z in (x.real, x.imag)] == \
                [z.hex() for x in alone for z in (x.real, x.imag)]
            for k in range(7):
                brute = sum(np.prod(combo) for combo in itertools.combinations(values, k))
                assert abs(row[k] - brute) < 1e-12 * max(1.0, abs(brute))

    def test_degree_edges(self):
        e = elementary_symmetric(np.array([[2.0, 3.0]]))[0]
        assert e[0] == 1.0
        assert e[2] == pytest.approx(6.0)


class TestExpandEigenstate:
    def test_single_excitation_direction(self, chains):
        spec = SectorSpec(10, 1)
        branch = next(b for b in chains[1] if b.energy < 0)  # roots {+sqrt(10)}
        vec = expand_eigenstate([branch], spec)[0]
        vec = vec.real / np.linalg.norm(vec.real)
        # eigenvector of [[0, sqrt(10)], [sqrt(10), 0]] at -sqrt(10)
        assert vec == pytest.approx(np.array([1.0, -1.0]) / math.sqrt(2.0), abs=1e-12)

    def test_vacuum_sector(self, chains):
        vec = expand_eigenstate(chains[0], SectorSpec(10, 0))
        assert vec == pytest.approx(np.array([[1.0 + 0j]]))

    @pytest.mark.parametrize("m", [1, 3])
    def test_root_count_must_match_the_sector(self, chains, m):
        with pytest.raises(ValueError, match=f"branch 0 has 2 roots, sector expects {m}"):
            expand_eigenstate(chains[2], SectorSpec(10, m))

    def test_branch_pair_orthogonal(self, chains):
        spec = SectorSpec(10, 1)
        a, b = expand_eigenstate(chains[1], spec)
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

    def test_orthonormal_including_dual_sectors(self, spectra):
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

    @staticmethod
    def _worst_eigen_residual(n_atoms, m_max):
        worst = 0.0
        for m, branches in solve_sectors(n_atoms, m_max).items():
            spectrum = sector_spectrum(SectorSpec(n_atoms, m), branches)
            H = sector_hamiltonian(spectrum.spec).dense()
            worst = max(worst, np.max(np.abs(spectrum.vectors @ H - spectrum.energies[:, None] * spectrum.vectors)))
        return worst

    def test_root_built_vectors_hold_far_below_the_gate_at_n16(self):
        # Through the dual sectors M = 17..24 too, built from 16 roots each.
        assert self._worst_eigen_residual(16, 24) < 3e-12

    def test_root_built_vectors_hold_far_below_the_gate_at_n28(self):
        # Leja order keeps the elementary symmetric functions accurate: in
        # input order the worst residual here is 2.4e-10 (M = 28).
        assert self._worst_eigen_residual(28, 28) < 3e-12

    @pytest.mark.parametrize("pick, message", [
        (lambda branches: branches[:-1], "got 3 branches, sector needs 4"),
    ], ids=["too-few"])
    def test_incomplete_branch_sets_are_refused(self, chains, pick, message):
        with pytest.raises(IncompleteBranchSet, match=message):
            sector_spectrum(SectorSpec(10, 3), pick(chains[3]))

    def test_a_branch_energy_off_by_1e6_fails_the_eigen_residual(self, chains):
        # The shifted row leaves |Hv - Ev| = 1e-6 |v_k| there, far above the 1e-8 gate.
        branches = sorted(chains[3], key=lambda b: b.energy)
        branches[1] = dataclasses.replace(branches[1], energy=branches[1].energy + 1e-6)
        with pytest.raises(EigenResidualTooLarge, match=r"^max \|Hv - Ev\| = [0-9.]+e-07$"):
            sector_spectrum(SectorSpec(10, 3), branches)

    @staticmethod
    def _tilted(branch, factor):
        return dataclasses.replace(branch, roots=tuple(factor * x for x in branch.roots))

    def test_complex_roots_off_their_solution_leak_an_imaginary_part(self):
        branches = sorted(solve_sectors(4, 2)[2], key=lambda b: b.energy)
        branches[0] = self._tilted(branches[0], 1 + 1e-3j)
        with pytest.raises(ImaginaryLeak, match=r"^relative eigenvector imaginary part 9\.258e-04$"):
            sector_spectrum(SectorSpec(4, 2), branches)

    def test_the_leak_named_is_the_lowest_bad_branch_in_energy(self):
        # Tilted alone, the middle branch leaks 1.512e-03: more than the lowest
        # branch, and it comes first in the order given.
        branches = sorted(solve_sectors(4, 2)[2], key=lambda b: b.energy)
        bad = [self._tilted(b, 1 + 1e-3j) for b in branches[:2]]
        with pytest.raises(ImaginaryLeak, match=r"^relative eigenvector imaginary part 9\.258e-04$"):
            sector_spectrum(SectorSpec(4, 2), [bad[1], branches[2], bad[0]])

    def test_energies_match_generating_branches(self, chains, spectra):
        for m in (3, 8, 14):
            want = sorted(b.energy for b in chains[m])
            assert spectra[m].energies == pytest.approx(want, abs=1e-9)


class TestInitialOverlap:
    """The overlap of eigenstate s with |M> (x) |J,-J> is vectors[s, 0]."""

    def test_single_excitation_overlaps(self, spectra):
        # sign convention makes both positive 1/sqrt(2)
        assert spectra[1].vectors[:, 0] == pytest.approx([1 / math.sqrt(2)] * 2, abs=1e-12)

    def test_vacuum_overlap_is_one(self, spectra):
        assert spectra[0].vectors[0, 0] == pytest.approx(1.0)

    def test_overlaps_complete(self, spectra):
        assert np.sum(spectra[6].vectors[:, 0] ** 2) == pytest.approx(1.0, abs=1e-12)


class TestNumberStateEnergy:
    def test_vacuum_series_is_zero(self, table):
        series = table[0]
        assert series.offset == 0.0
        assert series.terms == ()

    def test_single_photon_series(self, table):
        series = table[1]
        assert series.offset == pytest.approx(0.5, abs=1e-12)
        assert len(series.terms) == 1
        amp, omega = series.terms[0]
        assert amp == pytest.approx(-0.5, abs=1e-12)
        assert omega == pytest.approx(2 * SQRT10, abs=1e-12)

    def test_two_photon_series_printed_values(self, table):
        series = table[2]
        assert series.offset == pytest.approx(1.01, abs=0.02)
        amps = dict((round(w, 2), a) for a, w in series.terms)
        assert amps[6.16] == pytest.approx(-1.00, abs=0.02)
        assert amps[12.33] == pytest.approx(-0.01, abs=0.02)

    def test_value_at_zero_vanishes(self, table):
        for series in table:
            assert abs(series.value(0.0)) < 1e-9

    def test_bounded_by_capacity(self, table):
        t = np.linspace(0.0, 10.0, 2000)
        for m in (1, 6, 13, 20):
            f = table[m].value(t)
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
            for _, omega in table[m].terms:
                assert any(abs(omega - gap) < 1e-6 for gap in gaps)

    def test_offset_is_diagonal_ensemble_value(self, spectra, table):
        for m in (2, 7):
            spect = spectra[m]
            c = spect.vectors[:, 0]
            photon = m - np.arange(spect.dimension)
            diag = sum(c[s] ** 2 * (spect.vectors[s] * photon @ spect.vectors[s]) for s in range(spect.dimension))
            assert table[m].offset == pytest.approx(m - diag, abs=1e-10)

    @pytest.mark.parametrize("n_atoms", [1, 2, 3, 10, 64])
    def test_matches_pair_loop_on_tridiagonal_spectra(self, n_atoms):
        for m in range(65):
            _assert_matches_reference(tridiagonal_spectrum(SectorSpec(n_atoms, m)))

    def test_matches_pair_loop_on_root_built_spectra(self, spectra):
        for spectrum in spectra.values():
            _assert_matches_reference(spectrum)

    def test_matches_oracle_on_grid(self, table):
        t = np.linspace(0.0, 3.0, 400)
        for m in (1, 5, 11, 16):
            gap = np.max(np.abs(table[m].value(t) - oracle_F(SectorSpec(10, m), t)))
            assert gap < 1e-8


class TestFirstMaxTime:
    def test_single_photon_peak(self, table):
        t_max = first_max_time(table[1])
        assert t_max == pytest.approx(math.pi / (2 * SQRT10), abs=1e-6)

    def test_zero_series_has_no_maximum(self):
        with pytest.raises(NoMaximumFound):
            first_max_time(CosineSeries(offset=0.0, terms=()))

    def test_peak_dominates_earlier_grid_values(self, table):
        series = table[10]
        t_max = first_max_time(series)
        grid = np.arange(1, int(t_max / 1e-3)) * 1e-3
        assert series.value(t_max) >= np.max(series.value(grid)) - 1e-9


class TestSeriesDerivative:
    def test_zero_at_origin(self, table):
        assert series_derivative(table[1]).value(0.0) == 0.0

    def test_matches_finite_differences(self, table):
        deriv = series_derivative(table[2])
        h = 1e-5
        series = table[2]
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
    series = table[3]
    doc = json.loads((tmp_path / "spectrum_M03.json").read_text())["series"]
    assert doc["m"] == 3
    assert doc["offset"] == float(f"{series.offset:.12g}")
    assert doc["terms"] == [[float(f"{a:.12g}"), float(f"{w:.12g}")] for a, w in series.terms]
