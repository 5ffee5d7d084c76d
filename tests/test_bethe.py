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

    def test_two_dimensional_roots_rejected(self):
        with pytest.raises(ValueError, match="^roots must be one-dimensional$"):
            bae_residual([[1.0, 2.0]], 5.0)


def _jacobian(roots, J):
    """The kernel's Jacobian of one root set."""
    return bethe._jacobian_rows(np.array([roots], dtype=complex), J)[0]


class TestJacobian:
    def test_single_root_value(self):
        jac = _jacobian([SQRT10], 5.0)
        assert jac[0, 0] == pytest.approx(-1.0, abs=1e-14)

    def test_matches_central_differences(self):
        roots = np.array([3.0, -3.0], dtype=complex)
        jac = _jacobian(roots, 5.0)
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
        jac = _jacobian([1j, -1j], 5.0)
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

    def test_lone_lower_half_plane_root(self):
        # No upper member claims it, so it is left over after the pairing.
        with pytest.raises(UnpairedComplexRoot, match=r"^roots \[.*\] have no conjugate partners within 1e-06$"):
            canonicalize([1 - 1j])

    def test_snaps_tiny_imaginary_parts(self):
        out = canonicalize([2.0 + 1e-9j])
        assert out[0].imag == 0.0

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

    def test_step_onto_the_origin_is_halved_until_damping_fails(self):
        # J = 0: the full step from x lands on the origin and the half step
        # at x/2 is taken, until no halving keeps |x| >= 1e-10 while
        # lowering the residual.  The origin is never entered.
        with pytest.raises(SingularJacobian, match="full damping failed"):
            newton_refine([3.0], 0.0)

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
    for _ in range(bethe.NEWTON_MAX_ITER):
        if norm < bethe.NEWTON_TOL:
            break
        try:
            step = np.linalg.solve(_ref_jacobian(x, J), -fx)
        except np.linalg.LinAlgError:
            raise SingularJacobian("the Jacobian is singular")
        scale = 1.0
        accepted = False
        for _ in range(30):
            xt = x + scale * step
            if np.min(np.abs(xt)) < 1e-10:
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
        if not accepted:
            raise SingularJacobian("full damping failed")
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
    """The kernel's results in row order; it hands each row out when that row stops."""
    out = list(bethe._newton_rows(np.array(trials), J))
    assert sorted(r for r, _ in out) == list(range(len(trials)))
    return [_bits(result) for _, result in sorted(out, key=lambda item: item[0])]


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
        assert got[3][1] == "full damping failed"

    def test_singular_row_falls_back_to_row_solves(self):
        # J = 1/2, x = i: the 1 x 1 Jacobian -J/x^2 - 1/2 is exactly zero,
        # so the stacked solve raises and every other row is solved alone.
        # The singular row stops at that first solve, before any other
        # row converges; the rows that start inside |x| < 1e-10 go first.
        trials = [[0.9], [1j], [1.3 + 0.2j], [5e-11], [-2.0]]
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(_jacobian([1j], 0.5), np.ones(1))
        got = _stacked(trials, 0.5)
        assert got == [_alone(newton_refine, t, 0.5) for t in trials]
        assert got == [_alone(_reference_newton, t, 0.5) for t in trials]
        assert got[1] == (SingularJacobian, "the Jacobian is singular")
        assert [isinstance(got[i][0], list) for i in (0, 2, 4)] == [True] * 3
        assert [r for r, _ in bethe._newton_rows(np.array(trials), 0.5)][:2] == [3, 1]

    def test_two_singular_rows_among_converging_ones(self):
        # J = 1/2, x = +-i: both 1 x 1 Jacobians -J/x^2 - 1/2 are exactly zero.
        trials = [[0.9], [1j], [1.3 + 0.2j], [-1j], [-2.0]]
        got = _stacked(trials, 0.5)
        assert got == [_alone(_reference_newton, t, 0.5) for t in trials]
        assert [got[i] for i in (1, 3)] == [(SingularJacobian, "the Jacobian is singular")] * 2
        assert [isinstance(got[i][0], list) for i in (0, 2, 4)] == [True] * 3

    def test_a_singular_row_costs_one_slogdet_and_one_more_solve(self, monkeypatch):
        # The stacked solve meets x = i's zero pivot; slogdet names that row
        # and one stacked solve takes the other two, with no row solved alone.
        calls = []
        solve, slogdet = np.linalg.solve, np.linalg.slogdet
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: calls.append(("solve", len(a))) or solve(a, b))
        monkeypatch.setattr(np.linalg, "slogdet", lambda a: calls.append(("slogdet", len(a))) or slogdet(a))
        rows = bethe._newton_rows(np.array([[0.9], [1j], [-2.0]]), 0.5)
        r, result = next(rows)  # handed out at the top of the second iteration
        assert (r, _bits(result)) == (1, (SingularJacobian, "the Jacobian is singular"))
        assert calls == [("solve", 3), ("slogdet", 3), ("solve", 2)]

    @pytest.mark.parametrize("n_atoms", [2, 6])
    def test_matches_reference_loop(self, n_atoms):
        # Every continuation trial of M = 2..8, each sector's trials in one
        # stack: up to M = N the extensions, negated ones included, and
        # beyond it every branch of the (M - 1)-atom dual at J' = M/2.
        chain = bethe.solve_sectors(n_atoms, 8)
        for m in range(2, 9):
            root = SectorSpec(n_atoms, m).root_spec
            J = root.total_spin
            trials = (np.concatenate(seed_trials(chain[m - 1])) if root.excitations == m
                      else [b.roots for b in chain[m - 1]])
            assert _stacked(trials, J) == [_alone(_reference_newton, t, J) for t in trials], m

    def test_rows_are_handed_out_as_they_stop(self):
        # N = 4, M = 5: extending each branch of M = 4 by a copy of each of
        # its members, plain and negated, gives a few trials that run all
        # NEWTON_MAX_ITER iterations; every row that stops sooner is handed
        # out before them.
        prev, eps = bethe.solve_sectors(4, 4)[4], bethe.DUP_PERTURB * (1 + 1j)
        trials = [np.append(b.roots, (-b.roots[i] if negate else b.roots[i]) + eps)
                  for i in range(4) for negate in (False, True) for b in prev]
        out = list(bethe._newton_rows(np.array(trials), 2.0))
        order = [r for r, _ in out]
        assert sorted(order) == list(range(len(trials)))
        stalled = [f"after {bethe.NEWTON_MAX_ITER} iterations" in str(result) for _, result in out]
        k = sum(stalled)
        assert k and stalled == [False] * (len(out) - k) + [True] * k
        assert order != sorted(order)

    def test_large_chain_refines_few_rows(self, monkeypatch):
        # Two stacks per sector and rows handed out as they stop: the N = 32
        # chain to M = 38 needs 633 rows.  Beyond M = N a sector refines
        # one row per lower-half branch of the previous one, so N = 2 to
        # M = 64 needs 130.
        rows = []
        kernel = bethe._newton_rows

        def counted(trials, J):
            rows.append(len(trials))
            return kernel(trials, J)

        monkeypatch.setattr(bethe, "_newton_rows", counted)
        for n_atoms, m_max in ((32, 38), (2, 64)):
            rows.clear()
            bethe.solve_sectors(n_atoms, m_max)
            assert sum(rows) <= 1000, n_atoms


class TestSeedTrials:
    def test_first_member_is_appended_plain_then_negated(self):
        prev = [BetheBranch(roots=(1.0 + 0j, 2.0 + 0j), energy=-3.0, residual=0.0)]
        plain, negated = seed_trials(prev)
        # One perturbed copy of the first member, then its negation.
        eps = 1e-3 * (1 + 1j)
        assert plain.tolist() == [[1.0, 2.0, 1.0 + eps]]
        assert negated.tolist() == [[1.0, 2.0, -1.0 + eps]]
        for g in (*plain, *negated):
            dist = np.abs(g[:, None] - g[None, :])
            np.fill_diagonal(dist, np.inf)
            assert dist.min() > 1e-12

    def test_one_row_per_parent_in_each_stack(self):
        prev = [BetheBranch(roots=(1.0 + 0j, 2.0 + 0j), energy=-3.0, residual=0.0),
                BetheBranch(roots=(3.0 + 0j, 4.0 + 0j), energy=-7.0, residual=0.0)]
        eps = 1e-3 * (1 + 1j)
        # Row i of each stack extends parent i; no other member is copied.
        plain, negated = seed_trials(prev)
        assert plain.tolist() == [[1.0, 2.0, 1.0 + eps], [3.0, 4.0, 3.0 + eps]]
        assert negated.tolist() == [[1.0, 2.0, -1.0 + eps], [3.0, 4.0, -3.0 + eps]]

    def test_empty_prev_is_empty(self):
        assert [len(stack) for stack in seed_trials([])] == [0, 0]


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
                # beyond M = N each branch holds the dual's N roots
                assert {len(b.roots) for b in branches} == {min(n_atoms, m)}, (n_atoms, m)
                evals, _ = diagonalize(sector_hamiltonian(SectorSpec(n_atoms, m)))
                got = np.sort([b.energy for b in branches])
                assert np.max(np.abs(got - evals)) < 1e-8, (n_atoms, m)


class TestSectorAssembly:
    @pytest.mark.parametrize("fault", ["failed", "duplicate"])
    def test_a_short_dual_sector_names_the_sector_asked_for(self, monkeypatch, fault):
        # N = 2, M = 5 is solved as 5 atoms holding 2 excitations, from two
        # rows: the lowest and the zero-energy branch of the 4-atom dual.
        # Neither a failed row nor one that repeats another is retried.
        prev = bethe.solve_sectors(2, 4)[4]
        assert [len(b.roots) for b in solve_sector(SectorSpec(2, 5), prev)] == [2, 2, 2]
        kernel = bethe._newton_rows

        def faulty(trials, J):
            rows = list(kernel(trials, J))
            if fault == "failed":
                return [(r, NoConvergence("refused") if r == 0 else result) for r, result in rows]
            return [(r, rows[0][1]) for r, _ in rows]

        monkeypatch.setattr(bethe, "_newton_rows", faulty)
        with pytest.raises(MissingBranches, match=r"^sector \(N=2, M=5\): found [12] of 3 branches$") as err:
            solve_sector(SectorSpec(2, 5), prev)
        assert (err.value.n_atoms, err.value.excitations, err.value.expected) == (2, 5, 3)

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
        # and a residual at or above RESIDUAL_ACCEPT after canonicalization
        monkeypatch.undo()
        monkeypatch.setattr(bethe, "RESIDUAL_ACCEPT", 0.0)
        result = bethe._finish([3.0, -3.0], 5.0)
        assert isinstance(result, NoConvergence) and "after canonicalization" in str(result)

    def test_finish_rejects_a_solved_branch_moved_off_its_roots(self):
        # The lowest (N = 4, M = 3) branch, each root shifted by 1e-9: its
        # roots stay distinct, but the residual is above RESIDUAL_ACCEPT.
        lowest = bethe.solve_sectors(4, 3)[3][0]
        assert isinstance(bethe._finish(np.array(lowest.roots), 2.0), BetheBranch)
        result = bethe._finish(np.array(lowest.roots) + 1e-9, 2.0)
        assert isinstance(result, NoConvergence)
        assert str(result) == "residual 1.094e-09 after canonicalization"


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

    @pytest.mark.parametrize("n_atoms, excitations, message", [
        (2.0, 3, "n_atoms must be a positive integer"),
        (True, 3, "n_atoms must be a positive integer"),
        (2, 3.0, "excitations must be an integer >= 0"),
        (2, False, "excitations must be an integer >= 0"),
    ])
    def test_rejects_counts_that_are_not_integers(self, n_atoms, excitations, message):
        with pytest.raises(ValueError, match=message):
            SectorSpec(n_atoms, excitations)

    def test_accepts_numpy_integers(self):
        assert SectorSpec(np.int64(10), np.int32(4)).branch_count == 5

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
