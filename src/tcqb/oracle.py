"""Brute-force exact diagonalization of excitation sectors.

Ground truth for everything the root solver produces.  Built directly
from the ladder actions of a, a-dagger and the collective spin operators
on the basis |M-k> (x) |J, -J+k>, k = 0..K-1, so the module never touches
Bethe-side results (the two computational paths stay independent).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "is_integer",
    "SectorSpec",
    "ConvergenceFailure",
    "SectorMatrix",
    "sector_hamiltonian",
    "diagonalize",
    "oracle_F",
]


def is_integer(value) -> bool:
    """An int or a numpy integer; a bool, and a float even when integral, is not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


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
        if not is_integer(self.n_atoms) or self.n_atoms < 1:
            raise ValueError(f"n_atoms must be a positive integer, got {self.n_atoms!r}")
        if not is_integer(self.excitations) or self.excitations < 0:
            raise ValueError(f"excitations must be an integer >= 0, got {self.excitations!r}")

    @property
    def total_spin(self) -> float:
        return self.n_atoms / 2.0

    @property
    def branch_count(self) -> int:
        """Sector dimension K = min(2J, M) + 1, one root solution set per eigenstate."""
        return min(self.n_atoms, self.excitations) + 1

    @property
    def root_spec(self) -> SectorSpec:
        """The sector whose root equations this sector's branches solve.

        The sector itself when M <= N, else its dual: M atoms holding N
        excitations.  The k -> k+1 coupling sqrt((M-k)(N-k)(k+1)) is
        symmetric in N <-> M, so the two share one matrix, eigenbasis and
        F(M, t), and the dual's branches hold min(N, M) roots.
        """
        return self if self.excitations <= self.n_atoms else SectorSpec(self.excitations, self.n_atoms)


class ConvergenceFailure(Exception):
    """Eigensolver residual above tolerance."""


@dataclass(frozen=True)
class SectorMatrix:
    """Symmetric tridiagonal sector Hamiltonian (zero diagonal at resonance)."""

    spec: SectorSpec
    offdiag: tuple[float, ...]

    @property
    def dimension(self) -> int:
        return len(self.offdiag) + 1

    def dense(self) -> np.ndarray:
        off = np.asarray(self.offdiag)
        return np.diag(off, 1) + np.diag(off, -1)


def sector_hamiltonian(spec: SectorSpec) -> SectorMatrix:
    """Matrix of a'J- + J+a on the sector basis.

    The k -> k+1 coupling is sqrt((M-k)(2J-k)(k+1)): one photon absorbed,
    one collective excitation raised.  The integer product is exact, so a
    sector and its dual (root_spec) get bit-identical couplings.
    """
    J2 = spec.n_atoms  # 2J
    M = spec.excitations
    K = spec.branch_count
    off = tuple(math.sqrt((M - k) * (J2 - k) * (k + 1)) for k in range(K - 1))
    return SectorMatrix(spec=spec, offdiag=off)


def diagonalize(matrix: SectorMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and orthonormal eigenvectors (columns).

    LAPACK's dense symmetric solver on the (at most 65 x 65) sector
    matrix; the residual gate is checked on that same matrix.
    """
    H = matrix.dense()
    evals, evecs = np.linalg.eigh(H)
    res = np.max(np.abs(H @ evecs - evecs * evals))
    if res >= 1e-10:
        raise ConvergenceFailure(f"eigen residual {res:.3e}")
    return evals, evecs


def oracle_F(spec: SectorSpec, t) -> np.ndarray | float:
    """Number-state stored energy by direct state evolution.

    Evolves the k = 0 basis state under the sector matrix through its
    spectral decomposition and returns M - sum_k (M-k) |amp_k(t)|^2.
    Accepts a scalar or an array of times.
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    M = spec.excitations
    if M == 0:
        out = np.zeros_like(t_arr)
        return out if np.ndim(t) else float(out[0])
    evals, evecs = diagonalize(sector_hamiltonian(spec))
    weights = evecs * evecs[0, :]  # (K, K): V[k,s] * V[0,s]
    phases = np.exp(-1j * np.outer(evals, t_arr))  # (K, T)
    amps = weights @ phases  # (K, T)
    photon = M - np.arange(evecs.shape[0], dtype=float)
    n_mean = photon @ (np.abs(amps) ** 2)
    out = M - n_mean
    return out if np.ndim(t) else float(out[0])

