"""Root solver for the resonant Tavis-Cummings excitation sectors.

Each (J, M) sector is parametrized by M complex rapidities solving the
coupled rational equations

    J/x_j - x_j/2 - sum_{k != j} 1/(x_j - x_k) = 0,   j = 1..M,

and a sector has exactly K = min(2J, M) + 1 distinct solution sets
("branches"), each giving one eigenstate with energy E = -sum_j x_j in
units of g.  Branches are found by damped Newton iteration warm-started
from the solved (M-1) sector: every previous branch is extended by one
perturbed copy of each of its members, then of each negated member,
which reaches the mixed-sign branches (at M = 2 the zero-energy pair
+-sqrt(2J - 1)).  The equations are odd under x -> -x, so the negation
of every accepted branch is taken as a branch too, without refinement.
No step is random.

A sector's trials are refined NEWTON_CHUNK at a time by one stacked
kernel (one batched linear solve per iteration) and taken in trial
order, so the branches found and their provenance are exactly those of
refining the trials one by one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BetheError",
    "ZeroRoot",
    "CoincidentRoots",
    "NoConvergence",
    "DivergedToZeroRoot",
    "SingularJacobian",
    "UnpairedComplexRoot",
    "MissingBranches",
    "SectorSpec",
    "BetheBranch",
    "bae_residual",
    "bae_jacobian",
    "newton_refine",
    "canonicalize",
    "seed_trials",
    "solve_sector",
    "solve_sectors",
]

# Acceptance thresholds for a converged branch.
RESIDUAL_ACCEPT = 1e-10
ROOT_DISTINCT_TOL = 1e-8
ENERGY_DEDUP_TOL = 1e-6  # sector spectra are simple with O(1) gaps
IMAG_SNAP_TOL = 1e-8
REAL_SNAP_TOL = 1e-12  # paired members of zero-energy branches sit on the imaginary axis
CONJ_PAIR_TOL = 1e-6
DUP_PERTURB = 1e-3  # duplicated trial entries are shifted by this * (1+1j)
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 200
NEWTON_CHUNK = 16  # trials refined together by one stacked Newton kernel


class BetheError(Exception):
    """Base class for sector-solver failures."""


class ZeroRoot(BetheError):
    """A rapidity sits on the pole at the origin."""


class CoincidentRoots(BetheError):
    """Two rapidities coincide, hitting the pairwise pole."""


class NoConvergence(BetheError):
    """Newton iteration budget exhausted."""


class DivergedToZeroRoot(BetheError):
    """An iterate drove a rapidity into |x| < 1e-10."""


class SingularJacobian(BetheError):
    """Damping failed repeatedly on an (effectively) singular system."""


class UnpairedComplexRoot(BetheError):
    """A complex rapidity has no conjugate partner (non-physical set)."""


class MissingBranches(BetheError):
    """Fewer branches than the sector count after continuation."""

    def __init__(self, found: int, expected: int, n_atoms: int, excitations: int):
        self.found = found
        self.expected = expected
        self.n_atoms = n_atoms
        self.excitations = excitations
        super().__init__(
            f"sector (N={n_atoms}, M={excitations}): found {found} of "
            f"{expected} branches"
        )


@dataclass(frozen=True)
class SectorSpec:
    """One excitation sector of the resonant model.

    n_atoms is N (so the total spin is J = N/2), excitations is the
    conserved quantum number M.  Energies are reported in units of the
    coupling.
    """

    n_atoms: int
    excitations: int

    def __post_init__(self):
        if self.n_atoms < 1 or self.n_atoms != int(self.n_atoms):
            raise ValueError(f"n_atoms must be a positive integer, got {self.n_atoms}")
        if self.excitations < 0 or self.excitations != int(self.excitations):
            raise ValueError(f"excitations must be >= 0, got {self.excitations}")

    @property
    def total_spin(self) -> float:
        return self.n_atoms / 2.0

    @property
    def branch_count(self) -> int:
        """K = min(2J, M) + 1 solution sets."""
        return min(self.n_atoms, self.excitations) + 1


@dataclass(frozen=True)
class BetheBranch:
    """One canonicalized solution set of a sector.

    roots are sorted by (Re, Im) and closed under complex conjugation;
    energy = -sum(roots) in units of g; residual is the sup norm of the
    defining equations at the roots; provenance records which step of
    the solver produced the branch.

    One eigenstate per sector can be non-representable by regular roots:
    for odd M > 2J the zero-energy state would need an odd root multiset
    closed under negation with no member at the origin, which cannot
    exist (the root equations are odd under x -> -x and x = 0 is a
    pole).  Such a state is returned as a root-free branch with
    provenance "completeness"; its eigenvector is fixed exactly by
    orthogonality to the regular branches.
    """

    roots: tuple[complex, ...]
    energy: float
    residual: float
    provenance: str = "continuation"

    @property
    def excitations(self) -> int:
        return len(self.roots)

    @property
    def is_completeness(self) -> bool:
        return self.provenance == "completeness"

    def negated(self) -> np.ndarray:
        """Roots of the mirror branch: the root equations are odd under x -> -x."""
        return -np.asarray(self.roots, dtype=complex)


def _as_roots(roots) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(roots, dtype=complex))
    if arr.ndim != 1:
        raise ValueError("roots must be one-dimensional")
    return arr


def _pairwise_inverse(diff: np.ndarray) -> np.ndarray:
    """1/(x_j - x_k) from a (T, M, M) stack of differences (overwritten), zero diagonals."""
    diag = np.arange(diff.shape[1])
    diff[:, diag, diag] = 1.0  # placeholder; complex division by inf is NaN
    inv = 1.0 / diff
    inv[:, diag, diag] = 0.0
    return inv


_POLE_ERRORS = {
    1: (ZeroRoot, "a rapidity is within 1e-14 of the origin"),
    2: (CoincidentRoots, "two rapidities coincide within 1e-14"),
}


def _evaluate(x: np.ndarray, J: float):
    """Pole codes of a (T, M) stack, and the root equations of its pole-free rows.

    code is 0 or a key of _POLE_ERRORS; f and its sup norm skip rows on a pole.
    """
    T, M = x.shape
    code = np.zeros(T, dtype=int)
    if M == 0:
        return code, x.copy(), np.zeros(T)
    code[np.abs(x).min(axis=1) < 1e-14] = 1
    diff = x[:, :, None] - x[:, None, :]
    diag = np.arange(M)
    diff[:, diag, diag] = np.inf
    code[(code == 0) & (np.abs(diff).min(axis=(1, 2)) < 1e-14)] = 2
    clean = code == 0
    if not clean.all():
        x, diff = x[clean], diff[clean]
    f = J / x - x / 2.0 - _pairwise_inverse(diff).sum(axis=2)
    return code, f, np.abs(f).max(axis=1)


def _jacobian_rows(x: np.ndarray, J: float) -> np.ndarray:
    """(T, M, M) Jacobians of the root equations of a pole-free (T, M) stack."""
    diag = np.arange(x.shape[1])
    inv2 = _pairwise_inverse(x[:, :, None] - x[:, None, :]) ** 2
    jac = -inv2
    jac[:, diag, diag] = inv2.sum(axis=2) + (-J / x**2 - 0.5)
    return jac


def bae_residual(roots, J: float) -> np.ndarray:
    """Evaluate f_j = J/x_j - x_j/2 - sum_{k != j} 1/(x_j - x_k)."""
    code, f, _ = _evaluate(_as_roots(roots)[None], J)
    if code[0]:
        error, message = _POLE_ERRORS[code[0]]
        raise error(message)
    return f[0]


def bae_jacobian(roots, J: float) -> np.ndarray:
    """Analytic Jacobian of bae_residual with respect to the rapidities."""
    x = _as_roots(roots)
    bae_residual(x, J)  # raises ZeroRoot or CoincidentRoots
    return _jacobian_rows(x[None], J)[0]


def canonicalize(roots) -> np.ndarray:
    """Normal form of a root set: snapped, conjugate-paired, sorted.

    Members with |Im| < 1e-8 are snapped to the real axis; the remaining
    members must pair with a conjugate partner within 1e-6 and each pair
    is replaced by its exact conjugate average, snapped to the imaginary
    axis when |Re| < 1e-12 so that noise in Re cannot reorder it.
    Sorting is by (Re, Im).  Idempotent.
    """
    x = _as_roots(roots)
    real_part = [complex(z.real, 0.0) for z in x if abs(z.imag) < IMAG_SNAP_TOL]
    upper = [z for z in x if z.imag >= IMAG_SNAP_TOL]
    lower = [z for z in x if z.imag <= -IMAG_SNAP_TOL]
    paired: list[complex] = []
    for z in upper:
        best, best_d = None, CONJ_PAIR_TOL
        for i, w in enumerate(lower):
            d = abs(np.conj(z) - w)
            if d <= best_d:
                best, best_d = i, d
        if best is None:
            raise UnpairedComplexRoot(f"root {z} has no conjugate partner within {CONJ_PAIR_TOL}")
        w = lower.pop(best)
        avg = (z + np.conj(w)) / 2.0
        if abs(avg.real) < REAL_SNAP_TOL:
            avg = complex(0.0, avg.imag)
        paired.extend([avg, np.conj(avg)])
    if lower:
        raise UnpairedComplexRoot(
            f"roots {lower} have no conjugate partners within {CONJ_PAIR_TOL}"
        )
    out = sorted(real_part + paired, key=lambda z: (z.real, z.imag))
    return np.asarray(out, dtype=complex)


def _finish(x: np.ndarray, J: float) -> BetheBranch | BetheError:
    """Branch of one converged row, or the error that rejects it.

    The one acceptance check: canonical roots at least ROOT_DISTINCT_TOL
    apart, residual below RESIDUAL_ACCEPT and a real energy.
    """
    try:
        roots = canonicalize(x)
        res = float(np.max(np.abs(bae_residual(roots, J)))) if roots.size else 0.0
        if roots.size > 1:
            dist = np.abs(roots[:, None] - roots[None, :])
            np.fill_diagonal(dist, np.inf)
            if (gap := dist.min()) < ROOT_DISTINCT_TOL:
                raise CoincidentRoots(f"two roots are {gap:.3e} apart")
        if res >= RESIDUAL_ACCEPT:
            raise NoConvergence(f"residual {res:.3e} after canonicalization")
        total = complex(np.sum(roots))
        if abs(total.imag) >= 1e-9:
            raise UnpairedComplexRoot(f"root sum has imaginary part {total.imag:.3e}")
    except BetheError as err:
        return err
    return BetheBranch(roots=tuple(roots.tolist()), energy=-total.real, residual=res)


def _newton_rows(trials, J: float):
    """Damped Newton on a (T, M) stack of trials from one sector.

    Each row runs the iteration described in newton_refine as if alone;
    the rows only share numpy calls: one stacked solve per iteration
    (per-row solves when the stack is singular) and a lockstep line
    search with one step scale per row.  Yields each row's BetheBranch,
    or the BetheError that ended it, in row order as soon as that row
    and all earlier rows have finished, so a caller can stop early.
    """
    x = np.array(trials, dtype=complex)
    T, M = x.shape
    errors: list[BetheError | None] = [None] * T
    fx, norm = np.zeros_like(x), np.zeros(T)
    fails, live = np.zeros(T, dtype=int), np.ones(T, dtype=bool)

    def stop(rows, error, message):
        for r in rows:
            errors[r] = error(message)
        live[rows] = False

    def refresh(rows):
        code, f, n = _evaluate(x[rows], J)
        for c, (error, message) in _POLE_ERRORS.items():
            stop(rows[code == c], error, message)
        fx[rows[code == 0]], norm[rows[code == 0]] = f, n

    if M:
        stop((np.abs(x).min(axis=1) < 1e-10).nonzero()[0],
             DivergedToZeroRoot, "trial set starts inside |x| < 1e-10")
    refresh(live.nonzero()[0])
    done = 0  # rows handed out; a finished row's x is frozen and canonicalized only then
    for _ in range(NEWTON_MAX_ITER):
        live &= ~(norm < NEWTON_TOL)  # a NaN norm keeps iterating
        while done < T and not live[done]:
            yield errors[done] or _finish(x[done], J)
            done += 1
        rows = live.nonzero()[0]
        if not rows.size:
            return
        jac, rhs = _jacobian_rows(x[rows], J), -fx[rows]
        try:
            step = np.linalg.solve(jac, rhs[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:  # solve row by row; a singular row is nudged instead
            step, solved = np.zeros_like(rhs), np.ones(rows.size, dtype=bool)
            for i in range(rows.size):
                try:
                    step[i] = np.linalg.solve(jac[i], rhs[i])
                except np.linalg.LinAlgError:
                    solved[i] = False
            nudge = rows[~solved]
            fails[nudge] += 1
            stop(nudge[fails[nudge] >= 5], SingularJacobian, "linear solve failed repeatedly")
            nudge = nudge[fails[nudge] < 5]
            x[nudge] = x[nudge] * (1.0 + 1e-6) + 1e-8
            refresh(nudge)
            rows, step = rows[solved], step[solved]
        # Line search: halve each row's step up to 30 times until its
        # sup-norm residual decreases.
        scale, searching = np.ones(rows.size), np.ones(rows.size, dtype=bool)
        for _ in range(30):
            trying = searching.nonzero()[0]
            if not trying.size:
                break
            xt = x[rows[trying]] + scale[trying, None] * step[trying]
            near = np.abs(xt).min(axis=1) < 1e-10
            if near.any():
                diverged = trying[near & (scale[trying] == 1.0) & (norm[rows[trying]] > 1.0)]
                stop(rows[diverged], DivergedToZeroRoot, "iterate entered |x| < 1e-10")
                searching[diverged] = False
            far = (~near).nonzero()[0]
            code, ft, nt = _evaluate(xt[far], J)
            better = nt < norm[rows[trying[far[code == 0]]]]
            keep = far[code == 0][better]
            take = rows[trying[keep]]
            x[take], fx[take], norm[take] = xt[keep], ft[better], nt[better]
            searching[trying[keep]] = False
            scale[trying[searching[trying]]] /= 2.0
        fails[rows[~searching & live[rows]]] = 0
        rejected = rows[searching]
        fails[rejected] += 1
        stop(rejected[fails[rejected] >= 5], SingularJacobian, "full damping failed 5 times in a row")
    for r in (live & (norm >= NEWTON_TOL)).nonzero()[0]:
        errors[r] = NoConvergence(f"residual {norm[r]:.3e} after {NEWTON_MAX_ITER} iterations")
    yield from (errors[r] or _finish(x[r], J) for r in range(done, T))


def newton_refine(guess, J: float) -> BetheBranch:
    """Damped Newton iteration from a trial root set to a branch.

    The one-row case of the stacked kernel that solve_sector runs on a
    sector's trials.  The step is halved up to 30 times whenever the
    sup-norm residual fails to decrease; five consecutive fully-damped
    failures raise SingularJacobian.  The converged set is canonicalized
    (conjugate symmetry restored exactly) before the branch is built.
    """
    result = next(_newton_rows(_as_roots(guess)[None], J))
    if isinstance(result, BetheError):
        raise result
    return result


def seed_trials(prev_branches: list[BetheBranch], target_M: int) -> list[np.ndarray]:
    """Trial sets for the M-sector built from the solved (M-1)-sector.

    Every previous branch is extended by one copy of each of its
    members, shifted by DUP_PERTURB*(1+1j) off the pairwise pole.  The
    same extensions with the copied member negated follow them, for the
    mixed-sign branches that no copy lies near.
    """
    shift = DUP_PERTURB * (1.0 + 1.0j)
    # Root-free completeness branches carry no seed material.
    bases = [np.asarray(b.roots, dtype=complex) for b in prev_branches if len(b.roots) == target_M - 1]
    return [
        np.append(base, member + shift)
        for negate in (False, True)
        for base in bases
        for member in (-base if negate else base)
    ]


def _completeness_gap(branches: list[BetheBranch], spec: SectorSpec) -> bool:
    """Is the single missing branch the non-representable E = 0 state?

    True when exactly one branch of an odd-M, M > 2J sector is missing
    and the trace rule (sector energies sum to zero) pins its energy to
    zero.  No trial can succeed then: a regular zero-energy root set
    would have to be closed under negation with an odd number of nonzero
    members.
    """
    M = spec.excitations
    if M <= spec.n_atoms or M % 2 == 0:
        return False
    if len(branches) != spec.branch_count - 1:
        return False
    return abs(sum(b.energy for b in branches)) < 1e-8


def solve_sector(spec: SectorSpec, prev_branches: list[BetheBranch] | None = None) -> list[BetheBranch]:
    """All K branches of one sector, sorted by energy ascending.

    Sectors are solved in increasing M: M = 0 is the trivial empty
    branch, M = 1 has the exact seeds +-sqrt(2J), and higher sectors
    refine seed_trials(prev_branches, M), built from the solved M - 1
    sector, which M >= 2 requires (ValueError without it).  Trials are
    refined NEWTON_CHUNK at a time and taken in trial order; a result
    is kept when its energy is new (the sector spectrum is simple), and
    the negation of a kept branch, exactly a branch since the root
    equations are odd, is kept with it.  For odd M > 2J the zero-energy
    eigenstate provably has no regular root set (see BetheBranch) and
    is returned as a root-free completeness branch once it is the only
    one missing.  Raises MissingBranches if branches are still missing
    after the last trial.  Deterministic.
    """
    J = spec.total_spin
    M = spec.excitations
    if M == 0:
        return [BetheBranch(roots=(), energy=0.0, residual=0.0)]
    if M == 1:
        trials = [np.array([s * math.sqrt(2 * J)], dtype=complex) for s in (+1.0, -1.0)]
    else:
        if prev_branches is None:
            raise ValueError(f"sector M = {M} needs prev_branches, the solved M - 1 sector")
        trials = seed_trials(prev_branches, M)
    K = spec.branch_count
    branches: list[BetheBranch] = []

    def done() -> bool:
        return len(branches) >= K or _completeness_gap(branches, spec)

    def keep(result: BetheBranch | BetheError) -> bool:
        # Keyed on the energy, not the roots: beyond M = 2J different root
        # multisets can generate the same eigenstate (only the first 2J+1
        # symmetric functions of -1/x enter it), and the sector spectrum
        # is simple, so equal energy means equal state.
        if isinstance(result, BetheError) or any(
            abs(result.energy - b.energy) < ENERGY_DEDUP_TOL for b in branches
        ):
            return False
        branches.append(result)
        return True

    for start in range(0, len(trials), NEWTON_CHUNK):
        if done():
            break
        for result in _newton_rows(trials[start:start + NEWTON_CHUNK], J):
            if done():
                break
            if keep(result) and len(branches) < K:
                keep(_finish(result.negated(), J))
    if _completeness_gap(branches, spec):
        branches.append(BetheBranch(roots=(), energy=0.0, residual=0.0, provenance="completeness"))
    if len(branches) < K:
        raise MissingBranches(len(branches), K, spec.n_atoms, M)
    return sorted(branches, key=lambda b: (b.energy, b.roots[0].real if b.roots else 0.0))


def solve_sectors(n_atoms: int, m_max: int) -> dict[int, list[BetheBranch]]:
    """Solve the continuation chain M = 0..m_max for one atom count."""
    out: dict[int, list[BetheBranch]] = {}
    prev: list[BetheBranch] | None = None
    for M in range(0, m_max + 1):
        out[M] = solve_sector(SectorSpec(n_atoms, M), prev if M >= 2 else None)
        prev = out[M]
    return out
