"""Root solver for the resonant Tavis-Cummings excitation sectors.

Each (J, M) sector with M <= 2J is parametrized by M complex
rapidities solving the coupled rational equations

    J/x_j - x_j/2 - sum_{k != j} 1/(x_j - x_k) = 0,   j = 1..M,

and a sector has exactly K = min(2J, M) + 1 distinct solution sets
("branches"), each giving one eigenstate with energy E = -sum_j x_j in
units of g.  Branches are found by damped Newton iteration warm-started
from the solved (M-1) sector: every previous branch is extended by one
perturbed copy of its first member, plain or negated (the negated
copies reach the mixed-sign branches, at M = 2 the zero-energy pair
+-sqrt(2J - 1)).  The equations are odd under x -> -x, so the negation
of every accepted branch is taken as a branch too, without refinement.
No step is random.

A sector refines at most two stacks of trials, the plain extensions
and then, only if branches are still missing, the negated ones.  Each
stack goes through one stacked kernel (one batched linear solve per
iteration, a second one without the rows whose Jacobian is singular),
which hands out each row as soon as it stops; each row iterates
exactly as it would alone and stops at the first failure newton_refine
names.

A sector with M > N = 2J is solved as its dual, root_spec: M atoms
holding N excitations, N roots at J' = M/2.  The two sectors share one
tridiagonal matrix, and in the dual every state has a regular root set.
Its branches continue in atom number: each lower-half branch of the
(M - 1)-atom dual, the self-dual (N, N) sector at first, is one trial
at J' = M/2, and the negations give the upper half; no other trial is
drawn, so a failed or duplicate row leaves the sector short.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .oracle import SectorSpec

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
CONJ_PAIR_TOL = 1e-6
DUP_PERTURB = 1e-3  # duplicated trial entries are shifted by this * (1+1j)
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 200


class BetheError(Exception):
    """Base class for sector-solver failures."""


class ZeroRoot(BetheError):
    """A rapidity sits on the pole at the origin."""


class CoincidentRoots(BetheError):
    """Two rapidities coincide, hitting the pairwise pole."""


class NoConvergence(BetheError):
    """Newton iteration budget exhausted."""


class DivergedToZeroRoot(BetheError):
    """A trial set starts inside |x| < 1e-10; iterates never enter it."""


class SingularJacobian(BetheError):
    """The Newton step is undefined (singular Jacobian) or fails all 30 halvings."""


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
class BetheBranch:
    """One canonicalized solution set of a sector.

    roots are sorted by (Re, Im) and closed under complex conjugation;
    energy = -sum(roots) in units of g; residual is the sup norm of the
    defining equations at the roots; provenance records which step of
    the solver produced the branch.
    """

    roots: tuple[complex, ...]
    energy: float
    residual: float
    provenance: str = "continuation"

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


def canonicalize(roots) -> np.ndarray:
    """Normal form of a root set: snapped, conjugate-paired, sorted.

    Members with |Im| < 1e-8 are snapped to the real axis; the remaining
    members must pair with a conjugate partner within 1e-6 and each pair
    is replaced by its exact conjugate average.  Sorting is by (Re, Im).
    Idempotent.
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
    and a lockstep line search, in which every row still searching has
    had its step halved equally often.  When the stacked solve meets an
    exact zero pivot, one slogdet over the same stack (sign 0 exactly
    there) names the singular rows, which stop with SingularJacobian,
    and the rest are solved in one stacked call; a row whose step fails
    all 30 halvings stops with SingularJacobian too.  Yields
    (row index, result) for each row as soon as it stops, rows that stop
    together in row order; the result is the row's BetheBranch or the
    BetheError that ended it.  A caller can stop early.
    """
    x = np.array(trials, dtype=complex)
    T, M = x.shape
    errors: list[BetheError | None] = [None] * T
    fx, norm = np.zeros_like(x), np.zeros(T)
    live = np.ones(T, dtype=bool)

    def stop(rows, error, message):
        for r in rows:
            errors[r] = error(message)
        live[rows] = False

    if M:
        stop((np.abs(x).min(axis=1) < 1e-10).nonzero()[0],
             DivergedToZeroRoot, "trial set starts inside |x| < 1e-10")
    rows = live.nonzero()[0]
    code, f, n = _evaluate(x[rows], J)
    for c, (error, message) in _POLE_ERRORS.items():
        stop(rows[code == c], error, message)
    fx[rows[code == 0]], norm[rows[code == 0]] = f, n
    pending = np.ones(T, dtype=bool)  # not handed out; a stopped row's x is frozen until then
    for _ in range(NEWTON_MAX_ITER):
        live &= ~(norm < NEWTON_TOL)  # a NaN norm keeps iterating
        for r in (pending & ~live).nonzero()[0].tolist():
            pending[r] = False
            yield r, errors[r] or _finish(x[r], J)
        rows = live.nonzero()[0]
        if not rows.size:
            return
        jac, rhs = _jacobian_rows(x[rows], J), -fx[rows, :, None]
        try:
            step = np.linalg.solve(jac, rhs)[:, :, 0]
        except np.linalg.LinAlgError:  # slogdet's sign is 0 at the zero pivots solve meets
            solvable = np.linalg.slogdet(jac)[0] != 0
            stop(rows[~solvable], SingularJacobian, "the Jacobian is singular")
            rows, step = rows[solvable], np.linalg.solve(jac[solvable], rhs[solvable])[:, :, 0]
        # Line search: the rows still searching have all had their steps
        # halved h times; a row takes x + step / 2**h once that lowers its
        # sup-norm residual at a point outside |x| < 1e-10.
        for h in range(30):
            if not rows.size:
                break
            xt = x[rows] + 0.5**h * step
            far = (np.abs(xt).min(axis=1) >= 1e-10).nonzero()[0]
            code, ft, nt = _evaluate(xt[far], J)
            better = nt < norm[rows[far[code == 0]]]
            took = far[code == 0][better]
            x[rows[took]], fx[rows[took]], norm[rows[took]] = xt[took], ft[better], nt[better]
            left = np.ones(rows.size, dtype=bool)
            left[took] = False
            rows, step = rows[left], step[left]
        stop(rows, SingularJacobian, "full damping failed")
    for r in (live & (norm >= NEWTON_TOL)).nonzero()[0]:
        errors[r] = NoConvergence(f"residual {norm[r]:.3e} after {NEWTON_MAX_ITER} iterations")
    yield from ((r, errors[r] or _finish(x[r], J)) for r in pending.nonzero()[0].tolist())


def newton_refine(guess, J: float) -> BetheBranch:
    """Damped Newton iteration from a trial root set to a branch.

    The one-row case of the stacked kernel that solve_sector runs on a
    sector's trials.  Each step is halved up to 30 times until it lowers
    the sup-norm residual at a point outside |x| < 1e-10; a step that
    fails all 30 halvings, or a singular Jacobian, raises
    SingularJacobian.  A guess inside |x| < 1e-10 raises
    DivergedToZeroRoot.  The converged set is canonicalized (conjugate
    symmetry restored exactly) before the branch is built.
    """
    _, result = next(_newton_rows(_as_roots(guess)[None], J))
    if isinstance(result, BetheError):
        raise result
    return result


def seed_trials(prev_branches: list[BetheBranch]) -> tuple[np.ndarray, np.ndarray]:
    """The two trial stacks for the M-sector, from the solved (M-1)-sector.

    Row i of each stack is prev_branches[i] extended by a copy of its
    first member, shifted by DUP_PERTURB*(1+1j) off the pairwise pole:
    plain in the first stack, negated in the second, for the mixed-sign
    branches that no plain copy lies near.  No parents, no rows.
    """
    shift = DUP_PERTURB * (1.0 + 1.0j)
    bases = [np.asarray(b.roots, dtype=complex) for b in prev_branches]
    return (np.array([np.append(base, base[0] + shift) for base in bases]),
            np.array([np.append(base, -base[0] + shift) for base in bases]))


def solve_sector(spec: SectorSpec, prev_branches: list[BetheBranch] | None = None) -> list[BetheBranch]:
    """All K branches of one sector, sorted by energy ascending.

    Each branch holds roots of spec.root_spec.  Sectors are solved in
    increasing M: M = 0 is the trivial empty branch, and every other
    sector refines at most two stacks of trials in turn, stopping as
    soon as it holds its K branches.  M = 1 has one stack, the exact
    seeds +-sqrt(2J).  Every higher sector starts from prev_branches,
    the solved M - 1 sector (ValueError without it): up to M = N its
    stacks are seed_trials(prev_branches), the negated one refined only
    if branches are still missing; beyond it the one stack is the lower
    half of prev_branches (sorted by energy, as returned here), which
    hold roots of the (M - 1)-atom dual.  Each result is taken as its
    row stops, without waiting for rows still iterating.  A result is
    kept when its energy is new (the sector spectrum is simple), and the
    negation of a kept branch, exactly a branch since the root equations
    are odd, is kept with it.  Raises MissingBranches, naming spec, if
    branches are still missing after the last stack.  Deterministic.
    """
    root = spec.root_spec
    J = root.total_spin
    M = spec.excitations
    if M == 0:
        return [BetheBranch(roots=(), energy=0.0, residual=0.0)]
    if M > 1 and prev_branches is None:
        raise ValueError(f"sector M = {M} needs prev_branches, the solved M - 1 sector")
    K = spec.branch_count
    branches: list[BetheBranch] = []

    def keep(result: BetheBranch | BetheError) -> bool:
        # Keyed on the energy, so a row that reaches a branch already held,
        # the mirror of a kept one among them, is not kept twice.
        if isinstance(result, BetheError) or any(
            abs(result.energy - b.energy) < ENERGY_DEDUP_TOL for b in branches
        ):
            return False
        branches.append(result)
        return True

    if root != spec:  # continuation in atom number; the mirrors give the upper half
        stacks = [[b.roots for b in prev_branches[: (K + 1) // 2]]]
    elif M > 1:
        stacks = seed_trials(prev_branches)
    else:
        stacks = [[[s * math.sqrt(2 * J)] for s in (+1.0, -1.0)]]
    for stack in stacks:
        if len(branches) == K or not len(stack):
            break
        for _, result in _newton_rows(stack, J):
            if keep(result) and len(branches) < K:
                keep(_finish(result.negated(), J))
            if len(branches) == K:
                break
    if len(branches) < K:
        raise MissingBranches(len(branches), K, spec.n_atoms, M)
    return sorted(branches, key=lambda b: b.energy)


def solve_sectors(n_atoms: int, m_max: int) -> dict[int, list[BetheBranch]]:
    """Solve the continuation chain M = 0..m_max for one atom count."""
    out: dict[int, list[BetheBranch]] = {}
    prev: list[BetheBranch] | None = None
    for M in range(0, m_max + 1):
        out[M] = solve_sector(SectorSpec(n_atoms, M), prev)
        prev = out[M]
    return out
