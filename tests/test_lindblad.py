import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_distribution
from tcqb import lindblad
from tcqb.battery import coherent_distribution, fock_distribution
from tcqb.bethe import SectorSpec
from tcqb.lindblad import (
    DensityMatrix,
    DimensionMismatch,
    InvalidConfig,
    LindbladError,
    OpenSystemConfig,
    StepUnstable,
    build_operators,
    evolve,
    lindblad_rhs,
)
from tcqb.oracle import oracle_F


def small_config(**kw):
    defaults = dict(n_atoms=2, n_max=7, kappa=0.0, gamma_phi=0.0, dt=1e-3, t_end=1.0)
    defaults.update(kw)
    return OpenSystemConfig(**defaults)


def random_hermitian(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / rho.trace()


class TestOperators:
    def test_bosonic_commutator_below_truncation(self):
        ops = build_operators(2, 7)
        comm = ops["a"] @ ops["adag"] - ops["adag"] @ ops["a"]
        block = slice(0, 7 * 3)  # photon levels below n_max
        assert np.allclose(comm[block, block], np.eye(8 * 3)[block, block])

    def test_spin_commutator_exact(self):
        ops = build_operators(3, 4)
        comm = ops["jplus"] @ ops["jminus"] - ops["jminus"] @ ops["jplus"]
        assert np.allclose(comm, 2 * ops["jz"], atol=1e-13)

    def test_ground_spin_projection(self):
        n_atoms = 5
        ops = build_operators(n_atoms, 3)
        ground = np.zeros(4 * (n_atoms + 1))
        ground[0] = 1.0  # n = 0, q = 0
        assert ground @ ops["jz"] @ ground == pytest.approx(-n_atoms / 2)

    def test_excitation_number_diagonal(self):
        ops = build_operators(2, 5)
        m = ops["m"]
        assert np.allclose(m, np.diag(np.diag(m)))


class TestRhs:
    def test_eigenprojector_is_stationary_without_dissipation(self):
        config = small_config()
        ops = build_operators(config.n_atoms, config.n_max)
        h = ops["adag"] @ ops["jminus"] + ops["jplus"] @ ops["a"]
        evals, evecs = np.linalg.eigh(h)
        proj = np.outer(evecs[:, 3], evecs[:, 3]).astype(complex)
        assert np.max(np.abs(lindblad_rhs(proj, config))) < 1e-12

    def test_tracefree_for_random_hermitian_state(self):
        config = small_config(kappa=0.7, gamma_phi=0.4)
        rng = np.random.default_rng(2)
        for _ in range(5):
            rho = random_hermitian(rng, config.dimension)
            assert abs(lindblad_rhs(rho, config).trace()) < 1e-12

    def test_excitation_number_conserved_without_decay(self):
        config = small_config(gamma_phi=1.3)
        ops = build_operators(config.n_atoms, config.n_max)
        rng = np.random.default_rng(3)
        for _ in range(5):
            rho = random_hermitian(rng, config.dimension)
            rate = np.trace(ops["m"] @ lindblad_rhs(rho, config))
            assert abs(rate) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            lindblad_rhs(np.eye(4, dtype=complex), small_config())


def _sector_indices(n_atoms, m):
    """Product-basis index (M-k)(N+1) + k of each sector basis state k."""
    k = np.arange(SectorSpec(n_atoms, m).branch_count)
    return (m - k) * (n_atoms + 1) + k


def dense_generator(config):
    """lindblad_rhs as a matrix on the row-major vec(rho)."""
    dim = config.dimension
    unit = np.eye(dim * dim, dtype=complex).reshape(-1, dim, dim)
    return np.column_stack([lindblad_rhs(e, config).ravel() for e in unit])


def excitation_numbers(config):
    idx = np.arange(config.dimension)
    return idx // (config.n_atoms + 1) + idx % (config.n_atoms + 1)


class TestBlockGenerator:
    @pytest.mark.parametrize("n_atoms", [1, 2, 5, 10])
    def test_matches_dense_reference(self, n_atoms):
        config = small_config(n_atoms=n_atoms, kappa=0.7, gamma_phi=0.4)
        exc = excitation_numbers(config)
        m_top = config.n_max - 1  # the highest sector the truncated basis holds exactly
        same = (exc[:, None] == exc[None, :]) & (exc[:, None] <= m_top)
        blocks = [_sector_indices(n_atoms, m) for m in range(m_top + 1)]
        lop = lindblad._block_generator(config, m_top)
        rng = np.random.default_rng(n_atoms)
        for _ in range(3):
            rho = random_hermitian(rng, config.dimension) * same
            got = lop @ np.concatenate([rho[np.ix_(b, b)].ravel() for b in blocks])
            dense = lindblad_rhs(rho, config)
            expected = np.concatenate([dense[np.ix_(b, b)].ravel() for b in blocks])
            assert np.max(np.abs(got - expected)) < 1e-12
            assert np.max(np.abs(dense[~same])) < 1e-12  # nothing leaves the blocks

    @pytest.mark.parametrize("n_atoms", [1, 2, 5, 10, 32])
    @pytest.mark.parametrize("kappa,gamma_phi", [(0.0, 0.0), (0.0, 0.3), (0.7, 0.4)])
    def test_matvec_matches_csr_of_its_entries(self, n_atoms, kappa, gamma_phi):
        config = small_config(n_atoms=n_atoms, n_max=n_atoms + 1, kappa=kappa, gamma_phi=gamma_phi)
        lop = lindblad._block_generator(config, n_atoms)
        width, n = lop.cols.shape
        assert 1 <= width <= 6 and lop.vals.shape == (width, n)
        assert np.all(np.diff(lop.cols, axis=0) >= 0)  # sorted by column within each row
        rows = np.broadcast_to(np.arange(n), (width, n))
        csr = scipy.sparse.csr_matrix((lop.vals.ravel(), (rows.ravel(), lop.cols.ravel())), shape=(n, n))
        rng = np.random.default_rng(n_atoms)
        for _ in range(3):
            y = rng.normal(size=n) + 1j * rng.normal(size=n)
            assert np.max(np.abs(lop @ y - csr @ y)) < 1e-13

    def test_evolve_never_builds_product_operators(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("evolve built the product-basis operators")

        config = small_config(kappa=0.3, gamma_phi=0.2, t_end=0.2)
        monkeypatch.setattr(lindblad, "build_operators", refuse)
        monkeypatch.setattr(lindblad, "DensityMatrix", refuse)
        ts = evolve(fock_distribution(2), config)
        assert ts.t.size == 21 and ts.energy[-1] > 0.0


class TestDensityMatrix:
    def test_fock_initializer_places_population(self):
        config = small_config()
        rho = DensityMatrix.fock(config, 2)
        idx = 2 * (config.n_atoms + 1)
        assert rho.matrix[idx, idx] == 1.0
        assert rho.matrix.trace() == pytest.approx(1.0)
        assert np.array_equal(rho.matrix, rho.matrix.conj().T)

    def test_fock_outside_truncation_rejected(self):
        for photons in (-1, 8):  # n_max = 7
            with pytest.raises(ValueError, match="outside the Fock truncation"):
                DensityMatrix.fock(small_config(), photons)

    def test_wrong_shape_rejected(self):
        with pytest.raises(DimensionMismatch):
            DensityMatrix(matrix=np.eye(5, dtype=complex), n_atoms=2, n_max=7)


class TestEvolve:
    def test_closed_system_matches_sector_dynamics(self):
        config = small_config(t_end=2.0)
        ts = evolve(fock_distribution(2), config)
        expected = oracle_F(SectorSpec(2, 2), ts.t)
        assert np.max(np.abs(ts.energy - expected)) < 1e-4
        assert np.max(np.abs(ts.trace - 1.0)) < 1e-9
        assert ts.herm_drift < 1e-10
        assert np.max(np.abs(ts.m_expect - ts.m_expect[0])) < 1e-6
        assert ts.min_eig.min() > -1e-6

    def test_dephasing_reaches_diagonal_ensemble(self):
        # With kappa = 0 the sector block relaxes to its maximally mixed
        # state; for N = M = 2 the levels hold 0, 1, 2 quanta, so the
        # steady energy is (0 + 1 + 2)/3 = 1.
        config = small_config(gamma_phi=2.0, t_end=8.0)
        ts = evolve(fock_distribution(2), config)
        assert np.max(np.abs(ts.m_expect - ts.m_expect[0])) < 1e-6
        assert abs(ts.energy[-1] - 1.0) < 0.05
        assert np.ptp(ts.energy[-10:]) < 1e-3

    def test_strong_decay_drains_the_battery(self):
        config = small_config(kappa=5.0, t_end=3.0)
        ts = evolve(fock_distribution(2), config)
        assert ts.energy[-1] < 0.1 * ts.energy.max()

    def test_output_does_not_depend_on_n_max(self):
        # n_max = 1 lies below the top sector M = 4; evolve never reads it.
        photons = 4
        runs = []
        for n_max in (photons + 1, 1, photons + 5, photons + 15):
            config = small_config(n_atoms=3, n_max=n_max, kappa=0.3, gamma_phi=0.2, t_end=0.5)
            runs.append(evolve(fock_distribution(photons), config))
        for ts in runs:
            for name in ("t", "energy", "power", "trace", "min_eig", "m_expect"):
                assert np.array_equal(getattr(ts, name), getattr(runs[0], name)), name
            assert ts.herm_drift == runs[0].herm_drift
            assert len(ts.final_state) == photons + 1
            for block, first in zip(ts.final_state, runs[0].final_state):
                assert np.array_equal(block, first)

    def test_unstable_step_detected(self):
        config = small_config(dt=1.0, t_end=40.0)
        with pytest.raises(StepUnstable):
            evolve(fock_distribution(2), config)

    def test_large_step_breaks_positivity(self):
        # RK4 keeps the trace exact at dt = 0.05, so only the eigenvalue
        # check sees rho leave the positive cone.
        config = OpenSystemConfig(n_atoms=10, n_max=20, kappa=0.2, gamma_phi=0.1, dt=0.05, t_end=1.0)
        with pytest.raises(StepUnstable, match="min eig"):
            evolve(fock_distribution(10), config)

    @settings(max_examples=15, deadline=None)
    @given(kappa=st.floats(0.0, 1.0), gamma_phi=st.floats(0.0, 1.0), photons=st.integers(0, 2))
    def test_agrees_with_dense_propagator(self, kappa, gamma_phi, photons):
        config = small_config(kappa=kappa, gamma_phi=gamma_phi, t_end=0.5)
        rho0 = DensityMatrix.fock(config, photons)
        ts = evolve(fock_distribution(photons), config)
        dim = config.dimension
        step = scipy.linalg.expm(dense_generator(config) * config.dt * config.sample_stride)
        jz = np.diag(build_operators(config.n_atoms, config.n_max)["jz"])
        vec = rho0.matrix.ravel()
        exact = []
        for _ in ts.t:
            exact.append(jz @ vec.reshape(dim, dim).diagonal().real + config.n_atoms / 2.0)
            vec = step @ vec
        assert np.max(np.abs(ts.energy - np.array(exact))) < 1e-6
        assert np.max(np.abs(ts.trace - 1.0)) < 1e-9

    def test_power_is_energy_over_time(self):
        config = small_config(t_end=0.5)
        ts = evolve(fock_distribution(2), config)
        assert ts.power[0] == 0.0
        assert np.allclose(ts.power[1:], ts.energy[1:] / ts.t[1:])

    def test_final_state_is_the_evolved_state(self):
        config = small_config(kappa=0.3, gamma_phi=0.2, t_end=0.5)
        ts = evolve(fock_distribution(2), config)
        assert [b.shape for b in ts.final_state] == [(1, 1), (2, 2), (3, 3)]
        rho = np.zeros((config.dimension, config.dimension), dtype=complex)
        for m, block in enumerate(ts.final_state):
            b = _sector_indices(config.n_atoms, m)
            rho[np.ix_(b, b)] = block
        assert abs(np.trace(rho) - 1.0) < 1e-12
        ops = build_operators(config.n_atoms, config.n_max)
        diag = np.diag(rho).real
        assert np.diag(ops["jz"]) @ diag + config.n_atoms / 2.0 == pytest.approx(ts.energy[-1], abs=1e-12)
        assert np.diag(ops["m"]) @ diag == pytest.approx(ts.m_expect[-1], abs=1e-12)
        assert ts.energy[-1] > 0.1  # the initial state stores nothing

    def test_coherent_start_matches_dense_propagator(self):
        # The pure coherent state carries coherences between sectors that
        # evolve drops; E and <M> must not notice.
        dist = coherent_distribution(1.5, truncation=8)
        config = small_config(n_max=9, kappa=0.3, gamma_phi=0.4, t_end=1.0)
        ts = evolve(dist, config)
        psi = np.zeros(config.dimension, dtype=complex)
        for m, p in dist.probs.items():
            psi[m * (config.n_atoms + 1)] = math.sqrt(p) * np.exp(0.7j * m)  # |M> (x) |g>
        vec = np.outer(psi, psi.conj()).ravel()
        step = scipy.linalg.expm(dense_generator(config) * config.dt * config.sample_stride)
        ops = build_operators(config.n_atoms, config.n_max)
        jz, m_op = np.diag(ops["jz"]), np.diag(ops["m"])
        energy, m_expect = [], []
        for _ in ts.t:
            diag = vec.reshape(config.dimension, config.dimension).diagonal().real
            energy.append(jz @ diag + config.n_atoms / 2.0)
            m_expect.append(m_op @ diag)
            vec = step @ vec
        assert np.max(np.abs(ts.energy - np.array(energy))) <= 1e-9
        assert np.max(np.abs(ts.m_expect - np.array(m_expect))) <= 1e-9

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), mean=st.floats(0.05, 5.5),
           kappa=st.floats(0.0, 1.0), gamma_phi=st.floats(0.0, 1.0))
    def test_linear_in_the_photon_distribution(self, seed, mean, kappa, gamma_phi):
        dist = random_distribution(np.random.default_rng(seed), mean, max_support=6)
        config = small_config(kappa=kappa, gamma_phi=gamma_phi, t_end=0.2)
        ts = evolve(dist, config)
        runs = {m: evolve(fock_distribution(m), config) for m in dist.probs}
        for name in ("energy", "trace", "m_expect"):
            mixed = sum(p * getattr(runs[m], name) for m, p in dist.probs.items())
            assert np.max(np.abs(getattr(ts, name) - mixed)) <= 1e-12, name


def _reference_evolve(dist, config):
    """evolve as first written: a matvec loop over the slots, one eigvalsh
    per block and sample, a fresh array for every RK4 term.  The kernel
    must give the same bits and raise the same first failure."""
    m_top = dist.max_support
    sizes = [SectorSpec(config.n_atoms, m).branch_count for m in range(m_top + 1)]
    lop = lindblad._block_generator(config, m_top)

    def matvec(y):
        out = lop.vals[0] * y[lop.cols[0]]
        for cols, vals in zip(lop.cols[1:], lop.vals[1:]):
            out += vals * y[cols]
        return out

    offsets = np.cumsum([0] + [s**2 for s in sizes])
    y = np.zeros(offsets[-1], dtype=complex)
    y[offsets[:-1]] = [dist.prob(m) for m in range(m_top + 1)]
    mats = [y[o : o + s**2].reshape(s, s) for o, s in zip(offsets, sizes)]
    diag_pos = np.concatenate([o + np.arange(s) * (s + 1) for o, s in zip(offsets, sizes)])
    q = np.concatenate([np.arange(s) for s in sizes])
    m_shift = np.concatenate([np.full(s, m - config.n_atoms / 2.0) for m, s in enumerate(sizes)])
    n_steps = int(round(config.t_end / config.dt))
    rows, herm_drift = [], 0.0

    def record(t_i):
        nonlocal herm_drift
        diag = y[diag_pos].real
        tr = float(diag.sum())
        if not abs(tr - 1.0) <= 1e-6:
            raise StepUnstable(f"trace drifted to {tr!r} at t = {t_i:g}; reduce dt")
        herm_drift = max([herm_drift] + [float(np.max(np.abs(r - r.conj().T))) for r in mats])
        min_eig = min([np.linalg.eigvalsh((r + r.conj().T) / 2.0)[0] for r in mats] + [0.0])
        if min_eig < -1e-6:
            raise StepUnstable(f"min eig(rho) fell to {min_eig:.3e} at t = {t_i:g}; reduce dt")
        rows.append((t_i, float(q @ diag), tr, float(min_eig), float(m_shift @ diag)))

    dt = config.dt
    record(0.0)
    for step in range(1, n_steps + 1):
        k1 = matvec(y)
        k2 = matvec(y + 0.5 * dt * k1)
        k3 = matvec(y + 0.5 * dt * k2)
        k4 = matvec(y + dt * k3)
        y += (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        if step % config.sample_stride == 0 or step == n_steps:
            record(step * dt)
    t_out, energy, trace, min_eig, m_expect = (np.array(col) for col in zip(*rows))
    power = np.zeros_like(energy)
    power[1:] = energy[1:] / t_out[1:]
    return lindblad.TimeSeries(t=t_out, energy=energy, power=power, trace=trace, min_eig=min_eig,
                               m_expect=m_expect, herm_drift=herm_drift, final_state=mats)


def _assert_same_bits(got, want):
    for name in ("t", "energy", "power", "trace", "min_eig", "m_expect"):
        a, b = getattr(got, name), getattr(want, name)
        assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b)), name
    assert got.herm_drift == want.herm_drift
    assert len(got.final_state) == len(want.final_state)
    for block, ref in zip(got.final_state, want.final_state):
        assert np.array_equal(block, ref)


class TestKernelBits:
    @pytest.mark.parametrize("kappa,gamma_phi", [(0.2, 0.1), (0.0, 0.1), (0.0, 0.0)])
    def test_open_system_runs_match_the_reference(self, kappa, gamma_phi):
        config = OpenSystemConfig(n_atoms=10, n_max=11, kappa=kappa, gamma_phi=gamma_phi, t_end=0.5)
        dist = fock_distribution(10)
        _assert_same_bits(evolve(dist, config), _reference_evolve(dist, config))

    @pytest.mark.parametrize("states", [1, 2, 7])
    def test_checks_in_chunks_match_the_reference(self, monkeypatch, states):
        # 84 samples checked a few states at a time, the last chunk partial.
        dist = coherent_distribution(1.5, truncation=6)
        config = small_config(n_atoms=3, kappa=0.6, gamma_phi=0.3, dt=2e-3, t_end=0.5, sample_stride=3)
        n_entries = sum(SectorSpec(3, m).branch_count ** 2 for m in range(7))
        monkeypatch.setattr(lindblad, "SAMPLE_CHUNK_BYTES", states * 16 * n_entries)
        _assert_same_bits(evolve(dist, config), _reference_evolve(dist, config))

    @pytest.mark.parametrize("chunk_bytes", [1, 1 << 20], ids=["one-state", "whole-run"])
    @pytest.mark.parametrize("kw, message", [
        (dict(n_atoms=3, dt=0.5, t_end=3.0, sample_stride=1), "min eig(rho) fell to -2.179e+00 at t = 0.5"),
        (dict(n_atoms=3, kappa=1e300, t_end=1.0), "trace drifted to nan at t = 0.01"),
        (dict(n_atoms=2, dt=1.0, t_end=40.0, sample_stride=1), None),
        (dict(n_atoms=10, n_max=11, kappa=0.2, gamma_phi=0.1, dt=0.05, t_end=1.0, sample_stride=1), None),
    ], ids=["closed-dt0.5", "kappa1e300", "closed-dt1", "n10-dt0.05"])
    def test_failing_runs_keep_their_first_failure(self, monkeypatch, chunk_bytes, kw, message):
        # Held samples are checked before a later trace failure is raised,
        # so the first sample that fails any check names the failure (at
        # closed-dt1, min eig fails at t = 1 and the trace at t = 10).
        config = small_config(**kw)
        dist = fock_distribution(config.n_atoms)
        monkeypatch.setattr(lindblad, "SAMPLE_CHUNK_BYTES", chunk_bytes)
        with np.errstate(over="ignore", invalid="ignore"):  # as the CLI runs it
            with pytest.raises(StepUnstable) as want:
                _reference_evolve(dist, config)
            with pytest.raises(StepUnstable) as got:
                evolve(dist, config)
        assert str(got.value) == str(want.value)
        if message:
            assert str(got.value) == f"{message}; reduce dt"

    def test_non_finite_state_fails_before_its_eigenvalues_are_taken(self, monkeypatch):
        # A nan off-diagonal entry leaves the trace at 1, so only the finite
        # check keeps that state away from eigvalsh.
        n = sum(SectorSpec(2, m).branch_count ** 2 for m in range(3))
        vals = np.zeros((1, n), dtype=complex)
        vals[0, n - 2] = np.nan  # entry (2, 1) of block M = 2
        lop = lindblad._RowPadded(cols=np.arange(n)[None, :], vals=vals)
        monkeypatch.setattr(lindblad, "_block_generator", lambda config, m_top: lop)
        seen, eigvalsh = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: seen.append(a.copy()) or eigvalsh(a))
        with pytest.raises(StepUnstable, match=r"^rho is not finite at t = 0\.001; reduce dt$"):
            evolve(fock_distribution(2), small_config(t_end=0.05, sample_stride=1))
        # one stacked call per block M = 0, 1, 2, each over the one finite state
        assert [len(a) for a in seen] == [1, 1, 1] and all(np.isfinite(a).all() for a in seen)


class TestConfig:
    def test_negative_rates_rejected(self):
        with pytest.raises(ValueError):
            small_config(kappa=-0.1)

    @pytest.mark.parametrize("field, message", [("n_atoms", "^need at least one atom$"),
                                                ("n_max", "^need at least two Fock levels$")])
    def test_zero_counts_rejected(self, field, message):
        # An open-system error that is a ValueError too, as every refusal of the config is.
        with pytest.raises(InvalidConfig, match=message) as err:
            small_config(**{field: 0})
        assert isinstance(err.value, LindbladError) and isinstance(err.value, ValueError)

    @pytest.mark.parametrize("field, value", [("n_atoms", 2.5), ("n_atoms", True), ("n_max", 2.5),
                                              ("n_max", 7.0), ("sample_stride", 2.0)])
    def test_counts_that_are_not_integers_rejected(self, field, value):
        with pytest.raises(InvalidConfig, match=f"^{field} must be an integer, got {value!r}$"):
            small_config(**{field: value})

    def test_numpy_integer_counts_accepted(self):
        config = small_config(n_atoms=np.int64(2), n_max=np.int32(7), sample_stride=np.int64(5))
        assert config.dimension == 24

    @pytest.mark.parametrize("stride", [0, -3])
    def test_stride_below_one_rejected(self, stride):
        with pytest.raises(ValueError, match="stride"):
            small_config(sample_stride=stride)

    def test_step_longer_than_horizon_rejected(self):
        with pytest.raises(ValueError, match="dt <= t_end"):
            small_config(dt=1.0, t_end=0.1)

    def test_horizon_must_be_a_whole_number_of_steps(self):
        with pytest.raises(ValueError, match="whole number of steps"):
            small_config(dt=4e-4, t_end=1e-3)
        for t_end in (0.5, 0.4):
            assert small_config(dt=1e-3, t_end=t_end).t_end == t_end

    def test_at_most_max_steps(self):
        assert small_config(dt=1e-6, t_end=2.0).t_end == 2.0  # 2,000,000 steps
        for dt, t_end in ((1e-6, 2.000001), (5e-324, 1e300)):  # 2,000,001 steps; inf
            with pytest.raises(ValueError, match="exceeds the limit of 2000000"):
                small_config(dt=dt, t_end=t_end)

    @pytest.mark.parametrize("field", ["kappa", "gamma_phi", "dt", "t_end"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            small_config(**{field: value})
