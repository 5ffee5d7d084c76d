import math

import numpy as np
import pytest

from tcqb.bethe import SectorSpec, solve_sectors
from tcqb.oracle import ConvergenceFailure, diagonalize, oracle_F, sector_hamiltonian
from tcqb.spectral import number_state_energy, sector_spectrum, tridiagonal_spectrum


class TestSectorHamiltonian:
    def test_single_excitation_coupling(self):
        m = sector_hamiltonian(SectorSpec(10, 1))
        assert m.offdiag == pytest.approx((math.sqrt(10.0),))

    def test_two_excitation_couplings(self):
        m = sector_hamiltonian(SectorSpec(10, 2))
        assert m.offdiag == pytest.approx((math.sqrt(20.0), math.sqrt(18.0)))

    def test_single_atom(self):
        m = sector_hamiltonian(SectorSpec(1, 1))
        assert m.offdiag == pytest.approx((1.0,))

    def test_dense_is_symmetric_tridiagonal(self):
        h = sector_hamiltonian(SectorSpec(10, 4)).dense()
        assert h.shape == (5, 5)
        assert np.allclose(h, h.T)
        assert np.allclose(np.diag(h), 0.0)


class TestDiagonalize:
    def test_known_three_level_spectrum(self):
        evals, _ = diagonalize(sector_hamiltonian(SectorSpec(10, 2)))
        root38 = math.sqrt(38.0)
        assert evals == pytest.approx([-root38, 0.0, root38], abs=1e-12)

    def test_single_excitation(self):
        evals, _ = diagonalize(sector_hamiltonian(SectorSpec(10, 1)))
        assert evals == pytest.approx([-math.sqrt(10.0), math.sqrt(10.0)])

    def test_spectrum_symmetric_about_zero(self):
        for m in (3, 7, 12):
            evals, _ = diagonalize(sector_hamiltonian(SectorSpec(10, m)))
            assert np.allclose(np.sort(evals), np.sort(-evals), atol=1e-12)
            assert abs(evals.sum()) < 1e-10

    def test_vectors_orthonormal_and_consistent(self):
        mat = sector_hamiltonian(SectorSpec(10, 6))
        evals, evecs = diagonalize(mat)
        assert np.allclose(evecs.T @ evecs, np.eye(evals.size), atol=1e-12)
        assert np.max(np.abs(mat.dense() @ evecs - evecs * evals)) < 1e-10


class TestOracleF:
    def test_single_photon_rabi(self):
        t = np.linspace(0.0, 3.0, 500)
        f = oracle_F(SectorSpec(10, 1), t)
        assert np.allclose(f, np.sin(math.sqrt(10.0) * t) ** 2, atol=1e-12)

    def test_zero_at_t0(self):
        assert oracle_F(SectorSpec(10, 7), 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_vacuum_stays_zero(self):
        t = np.linspace(0.0, 5.0, 100)
        assert np.allclose(oracle_F(SectorSpec(10, 0), t), 0.0)

    def test_scalar_input_gives_scalar(self):
        out = oracle_F(SectorSpec(10, 3), 0.4)
        assert isinstance(out, float)

    def test_bounded_by_capacity(self):
        t = np.linspace(0.0, 10.0, 2000)
        for m in (5, 15):
            f = oracle_F(SectorSpec(10, m), t)
            assert np.all(f >= -1e-9)
            assert np.all(f <= min(m, 10) + 1e-6)


class TestAtomPhotonDuality:
    """Sector (N, M) and sector (M, N) share one matrix: the k -> k+1
    coupling sqrt((M-k)(N-k)(k+1)) is symmetric in N <-> M.  The root
    solver relies on it beyond M = N (SectorSpec.root_spec)."""

    def test_root_spec_is_the_dual_beyond_m_equals_n(self):
        assert [SectorSpec(10, m).root_spec for m in (0, 4, 10, 11)] == [
            SectorSpec(10, 0), SectorSpec(10, 4), SectorSpec(10, 10), SectorSpec(11, 10)]
        assert SectorSpec(2, 64).root_spec == SectorSpec(64, 2)

    def test_couplings_are_bit_identical(self):
        for n in range(1, 65):
            for m in range(n + 1, 65):
                assert sector_hamiltonian(SectorSpec(n, m)).offdiag == sector_hamiltonian(SectorSpec(m, n)).offdiag

    def test_stored_energy_agrees(self):
        t = np.linspace(0.0, 5.0, 51)
        for n in range(1, 13):
            for m in range(n + 1, 13):
                gap = np.max(np.abs(oracle_F(SectorSpec(n, m), t) - oracle_F(SectorSpec(m, n), t)))
                assert gap < 1e-12, (n, m)

    @pytest.mark.parametrize("n_atoms, m", [(2, 64), (3, 40), (10, 14)])
    def test_dual_built_series_is_the_tridiagonal_one(self, n_atoms, m):
        spec = SectorSpec(n_atoms, m)
        branches = solve_sectors(n_atoms, m)[m]
        assert {len(b.roots) for b in branches} == {n_atoms}
        got = number_state_energy(sector_spectrum(spec, branches))
        want = number_state_energy(tridiagonal_spectrum(spec))
        assert got.offset == pytest.approx(want.offset, abs=1e-12)
        assert len(got.terms) == len(want.terms)
        assert np.max(np.abs(np.subtract(got.terms, want.terms))) < 1e-12


class TestAgainstTridiagonalSolver:
    @pytest.mark.parametrize("n_atoms", [1, 2, 10, 48, 64])
    def test_matches_eigh_tridiagonal(self, n_atoms):
        from scipy.linalg import eigh_tridiagonal

        for m in range(65):
            mat = sector_hamiltonian(SectorSpec(n_atoms, m))
            evals, evecs = diagonalize(mat)
            ref_vals, ref_vecs = eigh_tridiagonal(np.zeros(mat.dimension), np.asarray(mat.offdiag))
            scale = max(1.0, float(np.max(np.abs(ref_vals))))
            assert np.max(np.abs(evals - ref_vals)) <= 1e-12 * scale, m
            signs = np.sign(evecs[0]) * np.sign(ref_vecs[0])
            assert np.max(np.abs(evecs * signs - ref_vecs)) < 1e-10, m

    def test_residual_gate_is_live(self, monkeypatch):
        exact = np.linalg.eigh

        def perturbed(h):
            evals, evecs = exact(h)
            evecs = evecs.copy()
            evecs[0, 0] += 1e-9
            return evals, evecs

        monkeypatch.setattr(np.linalg, "eigh", perturbed)
        with pytest.raises(ConvergenceFailure, match="eigen residual"):
            diagonalize(sector_hamiltonian(SectorSpec(10, 6)))
