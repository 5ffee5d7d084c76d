import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcqb import bethe, cli
from tcqb.bethe import (
    BetheBranch,
    BetheError,
    CoincidentRoots,
    DivergedToZeroRoot,
    MissingBranches,
    NoConvergence,
    SectorSpec,
    SingularJacobian,
    UnpairedComplexRoot,
    ZeroRoot,
    bae_jacobian,
    bae_residual,
    canonicalize,
    newton_refine,
    seed_trials,
    solve_sector,
)

SQRT10 = math.sqrt(10.0)


class TestResidual:
    def test_single_root_analytic_zero(self):
        # J/x - x/2 = 0 forces x^2 = 2J
        f = bae_residual([SQRT10], 5.0)
        assert abs(f[0]) < 1e-15

    def test_pm3_branch_is_exact(self):
        # 5/3 - 3/2 - 1/6 = 0 exactly
        f = bae_residual([3.0, -3.0], 5.0)
        assert np.max(np.abs(f)) < 1e-15

    def test_direct_value(self):
        f = bae_residual([1.0], 5.0)
        assert f[0] == pytest.approx(4.5, abs=1e-15)

    def test_zero_root_rejected(self):
        with pytest.raises(ZeroRoot):
            bae_residual([1e-15], 5.0)

    def test_coincident_roots_rejected(self):
        with pytest.raises(CoincidentRoots):
            bae_residual([1.0, 1.0 + 1e-15], 5.0)


class TestJacobian:
    def test_single_root_value(self):
        jac = bae_jacobian([SQRT10], 5.0)
        assert jac[0, 0] == pytest.approx(-1.0, abs=1e-14)

    def test_matches_central_differences(self):
        roots = np.array([3.0, -3.0], dtype=complex)
        jac = bae_jacobian(roots, 5.0)
        h = 1e-6
        for j in range(2):
            for k in range(2):
                bumped_p = roots.copy()
                bumped_m = roots.copy()
                bumped_p[k] += h
                bumped_m[k] -= h
                fd = (bae_residual(bumped_p, 5.0)[j] - bae_residual(bumped_m, 5.0)[j]) / (2 * h)
                assert abs(fd - jac[j, k]) <= 1e-6 * max(1.0, abs(jac[j, k]))

    def test_offdiagonal_symmetric_for_conjugate_pair(self):
        jac = bae_jacobian([1j, -1j], 5.0)
        assert jac[0, 1] == pytest.approx(jac[1, 0])


class TestCanonicalize:
    def test_symmetrizes_near_conjugate_pair(self):
        out = canonicalize([3.08 + 0.7j, 3.08 - 0.70000001j])
        assert out[0] == np.conj(out[1])
        assert out[0].imag == pytest.approx(-0.700000005, abs=1e-9)

    def test_idempotent_on_real_pair(self):
        out = canonicalize([-3.16, 3.16])
        assert np.array_equal(out, canonicalize(out))
        assert np.array_equal(out, np.array([-3.16, 3.16], dtype=complex))

    def test_unpaired_complex_root(self):
        with pytest.raises(UnpairedComplexRoot):
            canonicalize([1.0 + 0.5j])

    def test_snaps_tiny_imaginary_parts(self):
        out = canonicalize([2.0 + 1e-9j])
        assert out[0].imag == 0.0

    def test_order_ignores_real_noise_of_imaginary_pairs(self):
        # Zero-energy branches (N = 2, even M > 2) hold conjugate pairs on
        # the imaginary axis whose real parts are solver noise.
        noise = np.array([1e-17, -3e-17, 2e-17])
        imag = np.array([0.8, 1.9, 3.1])
        pairs = lambda re: np.concatenate([re + 1j * imag, re - 1j * imag, [-1.5, 1.5]])
        ref = canonicalize(pairs(noise))
        assert np.all(ref[np.abs(ref.imag) > 0].real == 0.0)
        rng = np.random.default_rng(0)
        for signs in ([1, 1, 1], [-1, 1, -1], [-1, -1, -1]):
            roots = pairs(np.array(signs) * noise)
            out = canonicalize(roots[rng.permutation(roots.size)])
            assert np.array_equal(out, ref)
            assert np.array_equal(canonicalize(out), out)

    @settings(max_examples=25, deadline=None)
    @given(
        reals=st.lists(st.tuples(st.floats(-10.0, 10.0), st.floats(-5e-9, 5e-9)), max_size=4),
        pairs=st.lists(
            st.tuples(st.sampled_from([0.0, 1e-17, -3e-13, 2.5]) | st.floats(-10.0, 10.0),
                      st.floats(1e-7, 5.0), st.floats(-1e-9, 1e-9)),
            max_size=3,
        ),
        order=st.randoms(use_true_random=False),
    )
    def test_idempotent(self, reals, pairs, order):
        # real members carry imaginary noise below the 1e-8 snap
        roots = [complex(x, noise) for x, noise in reals]
        for re, im, noise in pairs:
            roots += [complex(re, im), complex(re, -im + noise)]
        order.shuffle(roots)
        out = canonicalize(roots)
        assert np.array_equal(canonicalize(out), out)
        assert np.array_equal(canonicalize(out[::-1]), out)


class TestNewton:
    def test_converges_to_single_root(self):
        branch = newton_refine([3.1], 5.0)
        assert branch.roots[0].real == pytest.approx(SQRT10, abs=1e-12)
        assert branch.energy == pytest.approx(-SQRT10, abs=1e-12)

    def test_converges_to_conjugate_branch(self):
        branch = newton_refine([3.08 + 0.7j, 3.08 - 0.7j], 5.0)
        assert branch.residual < 1e-12
        assert branch.roots[0] == np.conj(branch.roots[1])
        assert branch.energy == pytest.approx(-math.sqrt(38.0), abs=1e-10)

    def test_guess_inside_zero_guard_rejected(self):
        with pytest.raises(DivergedToZeroRoot):
            newton_refine([5e-11], 5.0)

    def test_near_pole_guess_escapes_outward(self):
        # The origin repels the iteration (the residual grows toward the
        # pole), so a tiny positive guess walks out to the physical root.
        branch = newton_refine([0.001], 5.0)
        assert branch.roots[0].real == pytest.approx(SQRT10, abs=1e-10)


def _ref_pairwise_inverse(x):
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1.0)
    inv = 1.0 / diff
    np.fill_diagonal(inv, 0.0)
    return inv


def _ref_check_poles(roots):
    if roots.size and np.min(np.abs(roots)) < 1e-14:
        raise ZeroRoot("a rapidity is within 1e-14 of the origin")
    if roots.size > 1:
        dist = np.abs(roots[:, None] - roots[None, :])
        np.fill_diagonal(dist, np.inf)
        if np.min(dist) < 1e-14:
            raise CoincidentRoots("two rapidities coincide within 1e-14")


def _ref_residual(x, J):
    _ref_check_poles(x)
    f = J / x - x / 2.0
    if x.size > 1:
        f -= _ref_pairwise_inverse(x).sum(axis=1)
    return f


def _ref_jacobian(x, J):
    _ref_check_poles(x)
    n = x.size
    jac = np.zeros((n, n), dtype=complex)
    if n > 1:
        inv2 = _ref_pairwise_inverse(x) ** 2
        jac = -inv2
        np.fill_diagonal(jac, inv2.sum(axis=1))
    jac[np.diag_indices(n)] += -J / x**2 - 0.5
    return jac


def _reference_newton(guess, J):
    """One trial at a time: the loop the stacked kernel must reproduce bit for bit."""
    x = np.asarray(guess, dtype=complex).copy()
    if x.size and np.min(np.abs(x)) < 1e-10:
        raise DivergedToZeroRoot("trial set starts inside |x| < 1e-10")
    fx = _ref_residual(x, J)
    norm = np.max(np.abs(fx)) if x.size else 0.0
    damp_failures = 0
    for _ in range(bethe.NEWTON_MAX_ITER):
        if norm < bethe.NEWTON_TOL:
            break
        try:
            step = np.linalg.solve(_ref_jacobian(x, J), -fx)
        except (np.linalg.LinAlgError, ZeroRoot, CoincidentRoots):
            damp_failures += 1
            if damp_failures >= 5:
                raise SingularJacobian("linear solve failed repeatedly")
            x = x * (1.0 + 1e-6) + 1e-8
            fx = _ref_residual(x, J)
            norm = np.max(np.abs(fx))
            continue
        scale = 1.0
        accepted = False
        for _ in range(30):
            xt = x + scale * step
            if np.min(np.abs(xt)) < 1e-10:
                if scale == 1.0 and norm > 1.0:
                    raise DivergedToZeroRoot("iterate entered |x| < 1e-10")
                scale /= 2.0
                continue
            try:
                ft = _ref_residual(xt, J)
            except (ZeroRoot, CoincidentRoots):
                scale /= 2.0
                continue
            nt = np.max(np.abs(ft))
            if nt < norm:
                x, fx, norm = xt, ft, nt
                accepted = True
                break
            scale /= 2.0
        if accepted:
            damp_failures = 0
        else:
            damp_failures += 1
            if damp_failures >= 5:
                raise SingularJacobian("full damping failed 5 times in a row")
    if norm >= bethe.NEWTON_TOL:
        raise NoConvergence(f"residual {norm:.3e} after {bethe.NEWTON_MAX_ITER} iterations")
    roots = canonicalize(x)
    res = float(np.max(np.abs(_ref_residual(roots, J)))) if roots.size else 0.0
    if res >= bethe.RESIDUAL_ACCEPT:
        raise NoConvergence(f"residual {res:.3e} after canonicalization")
    total = complex(np.sum(roots))
    if abs(total.imag) >= 1e-9:
        raise UnpairedComplexRoot(f"root sum has imaginary part {total.imag:.3e}")
    return BetheBranch(roots=tuple(roots.tolist()), energy=-total.real, residual=res)


def _bits(result):
    """A refinement result, comparable bit for bit: the branch's floats or the error."""
    if isinstance(result, BetheError):
        return type(result), str(result)
    roots = [(z.real.hex(), z.imag.hex()) for z in result.roots]
    return roots, result.energy.hex(), result.residual.hex()


def _alone(refine, guess, J):
    try:
        return _bits(refine(guess, J))
    except BetheError as err:
        return _bits(err)


def _stacked(trials, J):
    return [_bits(r) for r in bethe._newton_rows(np.array(trials), J)]


class TestNewtonKernel:
    def test_rows_do_not_affect_each_other(self):
        J = 1.0  # N = 2, M = 3
        trials = [
            [1.2247 - 0.7071j, 1.2247 + 0.7071j, 1.2257 - 0.7061j],  # converges
            [5e-11, 1.0, 2.0],  # starts inside |x| < 1e-10
            [1.0, 1.0, 2.0],  # on the pairwise pole
            [-1.0 + 0j, 1.0, -0.999 + 0.001j],  # damping fails
        ]
        got = _stacked(trials, J)
        assert got == [_alone(newton_refine, t, J) for t in trials]
        assert got == [_alone(_reference_newton, t, J) for t in trials]
        assert isinstance(got[0][0], list)
        assert [g[0] for g in got[1:]] == [DivergedToZeroRoot, CoincidentRoots, SingularJacobian]

    def test_singular_row_falls_back_to_row_solves(self):
        # J = 1/2, x = i: the 1 x 1 Jacobian -J/x^2 - 1/2 is exactly zero,
        # so the stacked solve raises and every other row is solved alone.
        trials = [[0.9], [1j], [1.3 + 0.2j], [5e-11], [-2.0]]
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(bae_jacobian([1j], 0.5), np.ones(1))
        got = _stacked(trials, 0.5)
        assert got == [_alone(newton_refine, t, 0.5) for t in trials]
        assert got == [_alone(_reference_newton, t, 0.5) for t in trials]
        assert got[1][0] is SingularJacobian
        assert [isinstance(got[i][0], list) for i in (0, 2, 4)] == [True] * 3

    @pytest.mark.parametrize("n_atoms", [2, 6])
    def test_matches_reference_loop(self, n_atoms):
        # Every continuation trial of M = 2..8, negated extensions included,
        # each sector's trials in one stack.
        chain = bethe.solve_sectors(n_atoms, 8)
        J = n_atoms / 2
        for m in range(2, 9):
            trials = seed_trials(chain[m - 1], m)
            assert _stacked(trials, J) == [_alone(_reference_newton, t, J) for t in trials], m


class TestSeedTrials:
    def test_stage0_appends_each_distinct_member(self):
        prev = [BetheBranch(roots=(1.0 + 0j, 2.0 + 0j), energy=-3.0, residual=0.0)]
        guesses = seed_trials(prev, 3)
        # One perturbed copy of each member, then of each negated member.
        eps = 1e-3 * (1 + 1j)
        expected = [[1.0, 2.0, r + eps] for r in (1.0, 2.0, -1.0, -2.0)]
        assert [g.tolist() for g in guesses] == expected
        for g in guesses:
            dist = np.abs(g[:, None] - g[None, :])
            np.fill_diagonal(dist, np.inf)
            assert dist.min() > 1e-12

    def test_empty_prev_is_empty(self):
        assert seed_trials([], 4) == []


class TestSolveSector:
    def test_m0_trivial(self):
        branches = solve_sector(SectorSpec(10, 0))
        assert len(branches) == 1
        assert branches[0].roots == ()
        assert branches[0].energy == 0.0

    def test_m1_analytic(self):
        branches = solve_sector(SectorSpec(10, 1))
        roots = sorted(b.roots[0].real for b in branches)
        assert roots == pytest.approx([-SQRT10, SQRT10], abs=1e-12)

    def test_single_atom(self):
        branches = solve_sector(SectorSpec(1, 1))
        assert sorted(b.roots[0].real for b in branches) == pytest.approx([-1.0, 1.0], abs=1e-12)

    def test_m2_needs_the_previous_sector(self):
        with pytest.raises(ValueError, match="needs prev_branches"):
            solve_sector(SectorSpec(10, 2))

    def test_m4_matches_published_roots(self, chains):
        # Two decimals, as printed.
        branches = chains[4]
        assert len(branches) == 5
        printed = [
            {-2.99 - 0.53j, -2.99 + 0.53j, -2.86 - 1.68j, -2.86 + 1.68j},
            {-2.68, 2.88, 2.79 - 1.22j, 2.79 + 1.22j},
            {-2.73 - 0.68j, -2.73 + 0.68j, 2.73 - 0.68j, 2.73 + 0.68j},
            {2.68, -2.88, -2.79 - 1.22j, -2.79 + 1.22j},
            {2.99 - 0.53j, 2.99 + 0.53j, 2.86 - 1.68j, 2.86 + 1.68j},
        ]
        for want in printed:
            hit = any(
                all(min(abs(z - w) for z in b.roots) < 1e-2 for w in want) for b in branches
            )
            assert hit, f"no branch matches {want}"

    def test_branch_invariants(self, chains):
        for m, branches in chains.items():
            spec = SectorSpec(10, m)
            assert len(branches) == spec.branch_count
            energies = np.array([b.energy for b in branches])
            assert abs(energies.sum()) < 1e-8
            assert np.allclose(np.sort(energies), np.sort(-energies), atol=1e-8)
            assert list(energies) == sorted(energies)
            for b in branches:
                assert b.residual < 1e-10
                roots = np.asarray(b.roots)
                if roots.size > 1:
                    dist = np.abs(roots[:, None] - roots[None, :])
                    np.fill_diagonal(dist, np.inf)
                    assert dist.min() > 1e-8
                assert abs(complex(np.sum(roots)).imag) < 1e-9

    def test_branches_pairwise_distinct(self, chains):
        for m, branches in chains.items():
            regular = [np.asarray(b.roots) for b in branches if b.roots]
            for i in range(len(regular)):
                for j in range(i + 1, len(regular)):
                    assert np.max(np.abs(regular[i] - regular[j])) > 1e-6

    def test_two_runs_are_identical(self):
        for n_atoms in (2, 10):
            a = bethe.solve_sectors(n_atoms, 8)
            b = bethe.solve_sectors(n_atoms, 8)
            for m in a:
                assert [(_bits(x), x.provenance) for x in a[m]] == [(_bits(x), x.provenance) for x in b[m]]

    def test_m2_zero_energy_branch_is_the_mirror_pair(self):
        # x2 = -x1 turns the root equations into x^2 = 2J - 1 = N - 1; the
        # negated-member extensions reach this branch by continuation.
        for n_atoms in range(2, 65):
            zero = [b for b in bethe.solve_sectors(n_atoms, 2)[2] if abs(b.energy) < 1e-8]
            assert len(zero) == 1, n_atoms
            r = math.sqrt(n_atoms - 1)
            assert np.allclose(zero[0].roots, [-r, r], rtol=0, atol=1e-12), n_atoms
            assert zero[0].provenance == "continuation", n_atoms

    def test_branch_counts_all_supported_atom_numbers(self):
        from tcqb.oracle import diagonalize, sector_hamiltonian

        for n_atoms in range(1, 13):
            out = bethe.solve_sectors(n_atoms, 20)
            for m, branches in out.items():
                assert len(branches) == min(n_atoms, m) + 1, (n_atoms, m)
                synthetic = [b for b in branches if b.is_completeness and m > 0]
                if synthetic:
                    # the only non-representable state: zero energy at
                    # odd M beyond an even-N multiplet
                    assert n_atoms % 2 == 0 and m > n_atoms and m % 2 == 1
                evals, _ = diagonalize(sector_hamiltonian(SectorSpec(n_atoms, m)))
                got = np.sort([b.energy for b in branches])
                assert np.max(np.abs(got - evals)) < 1e-8, (n_atoms, m)

    def test_completeness_branch_only_for_odd_m_beyond_2j(self, chains):
        for m, branches in chains.items():
            synthetic = [b for b in branches if b.is_completeness and m > 0]
            if m > 10 and m % 2 == 1:
                assert len(synthetic) == 1
                assert synthetic[0].energy == pytest.approx(0.0, abs=1e-9)
            else:
                assert not synthetic


class TestSectorAssembly:
    @pytest.mark.parametrize("n_atoms", [2, 10])
    def test_no_branch_is_refined_alone(self, monkeypatch, n_atoms):
        def refuse(guess, J):
            raise AssertionError("solve_sector refined a single trial")

        monkeypatch.setattr(bethe, "newton_refine", refuse)
        out = bethe.solve_sectors(n_atoms, 8)
        assert [len(out[m]) for m in range(9)] == [min(n_atoms, m) + 1 for m in range(9)]

    @pytest.mark.parametrize("n_atoms", [2, 6, 10])
    def test_every_branch_has_its_exact_mirror(self, n_atoms):
        for m, branches in bethe.solve_sectors(n_atoms, 12).items():
            held = [_bits(b)[0] for b in branches]
            for b in branches:
                if not b.roots:
                    continue
                mirror = canonicalize(-np.asarray(b.roots))
                if abs(b.energy) < bethe.ENERGY_DEDUP_TOL / 2:
                    # Its own partner: the negation repeats its energy, so
                    # it is not kept a second time.
                    assert np.max(np.abs(mirror - np.asarray(b.roots))) < 1e-8, m
                else:
                    assert [(z.real.hex(), z.imag.hex()) for z in mirror] in held, m

    def test_finish_rejects_roots_closer_than_the_distinct_tolerance(self, monkeypatch):
        assert isinstance(bethe._finish([3.0, -3.0], 5.0), BetheBranch)
        monkeypatch.setattr(bethe, "ROOT_DISTINCT_TOL", 10.0)
        assert isinstance(bethe._finish([3.0, -3.0], 5.0), CoincidentRoots)


class TestOracleSeededRecovery:
    def test_missing_branches_without_oracle(self):
        # No warm start and no fallback material: the solver must report
        # exactly what it could not find.
        with pytest.raises(MissingBranches) as err:
            solve_sector(SectorSpec(10, 9), prev_branches=[])
        assert err.value.expected == 10


class TestSectorSpec:
    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            SectorSpec(0, 2)
        with pytest.raises(ValueError):
            SectorSpec(10, -1)

    def test_branch_count(self):
        assert SectorSpec(10, 4).branch_count == 5
        assert SectorSpec(10, 15).branch_count == 11
        assert SectorSpec(3, 7).branch_count == 4


def test_payload_roundtrip(chains, tmp_path):
    # Sector files carry 12 significant digits.
    path = tmp_path / "sector_M04.json"
    cli._write_json(path, cli._sector_doc(10, 4, chains[4]))
    back = cli._read_branches(path, 10, 4)
    for a, b in zip(back, chains[4]):
        assert a.energy == pytest.approx(b.energy, rel=1e-11, abs=1e-12)
        assert np.allclose(a.roots, b.roots, atol=1e-10)
