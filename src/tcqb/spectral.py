"""Sector eigenvectors and the exact stored-energy cosine series.

A solved branch with roots {x_j} generates the (unnormalized) eigenstate

    prod_j (a' - J+/x_j) |0> (x) |J,-J>,

whose component on |M-k> (x) |J,-J+k> is the elementary symmetric
polynomial e_k(-1/x_1, .., -1/x_M) times the ladder factors
sqrt((M-k)!) * prod_{l<k} sqrt((2J-l)(l+1)).  A sector with M > 2J
holds the roots of its dual, M atoms and 2J excitations, whose
components are the same: the two share one matrix.  The normalized
eigenbasis is real, so the photon number evolves as a real cosine
series in the eigenvalue gaps, assembled in float64 arithmetic: the
exact series of the number-state stored energy F(M, t).

The same eigenbasis also comes straight from the tridiagonal sector
Hamiltonian (tridiagonal_spectrum); the energy tables are built that
way, and the root-built basis is the independent path checked against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .oracle import SectorSpec, diagonalize, sector_hamiltonian

if TYPE_CHECKING:  # the energy tables use this module without the root solver
    from .bethe import BetheBranch

__all__ = [
    "SpectralError",
    "IncompleteBranchSet",
    "EigenResidualTooLarge",
    "ImaginaryLeak",
    "NoMaximumFound",
    "elementary_symmetric",
    "expand_eigenstate",
    "SectorSpectrum",
    "sector_spectrum",
    "tridiagonal_spectrum",
    "CosineSeries",
    "SineSeries",
    "number_state_energy",
    "series_derivative",
    "first_max_time",
]

FREQ_MERGE_TOL = 1e-9
AMP_PRUNE_TOL = 1e-12
SCAN_END = 20.0  # first_max_time looks for a peak in (0, SCAN_END]
SCAN_STEP = 1e-3
SCAN_CHUNK = 1000  # grid points per series evaluation in first_max_time
PEAK_XTOL = 1e-6


class SpectralError(Exception):
    """Base class for eigenvector/series assembly failures."""


class IncompleteBranchSet(SpectralError):
    """Fewer branches supplied than the sector count."""


class EigenResidualTooLarge(SpectralError):
    """A reconstructed eigenvector fails H v = E v at tolerance."""


class ImaginaryLeak(SpectralError):
    """A root-built eigenvector kept a non-real component."""


class NoMaximumFound(SpectralError):
    """No local maximum of the series inside the scan window."""


def elementary_symmetric(values: np.ndarray) -> np.ndarray:
    """All e_0..e_n of the given values by the product recurrence.

    The values enter in Leja order (Reichel, BIT 30 (1990) 332): the
    largest |value| first, then each time the value that maximises the
    product of distances to those already taken.  In the input order
    the float64 recurrence loses the large sectors (N = M = 28).
    """
    values = np.array(values, dtype=complex)  # a copy, reordered in place
    log_dist = np.zeros(values.size)  # log product of distances to the values taken
    with np.errstate(divide="ignore"):  # equal values are at distance 0
        for k in range(values.size):
            j = k + int(np.argmax(log_dist[k:] if k else np.abs(values)))
            values[[k, j]], log_dist[[k, j]] = values[[j, k]], log_dist[[j, k]]
            log_dist[k + 1:] += np.log(np.abs(values[k + 1:] - values[k]))
    e = np.zeros(values.size + 1, dtype=complex)
    e[0] = 1.0
    for i, v in enumerate(values):
        top = min(i + 1, values.size)
        for j in range(top, 0, -1):
            e[j] += v * e[j - 1]
    return e


def expand_eigenstate(branch: BetheBranch, spec: SectorSpec) -> np.ndarray:
    """Unnormalized eigenvector of a branch in the sector basis.

    Component k (k = 0..K-1) multiplies |M-k> (x) |J,-J+k>; components
    beyond k = min(M, 2J) vanish identically and are not represented.
    The branch holds roots of spec.root_spec, and the vector is built in
    that sector's basis: a dual sector has the same matrix, so the same
    components k.
    """
    spec = spec.root_spec
    M = spec.excitations
    K = spec.branch_count
    roots = np.asarray(branch.roots, dtype=complex)
    if roots.size != M:
        raise ValueError(f"branch has {roots.size} roots, sector expects {M}")
    esym = elementary_symmetric(-1.0 / roots)
    J2 = spec.n_atoms  # 2J
    vec = np.zeros(K, dtype=complex)
    ladder = 1.0
    for k in range(K):
        if k > 0:
            ladder *= math.sqrt((J2 - (k - 1)) * k)
        vec[k] = esym[k] * math.sqrt(math.factorial(M - k)) * ladder
    return vec


@dataclass(frozen=True)
class SectorSpectrum:
    """Orthonormal eigenbasis of one sector.

    vectors[i] is the i-th (real, normalized) eigenvector with energy
    energies[i]; norms[i] is the pre-normalization norm of the generating
    product state, the dual sector's for M > N (1 in tridiagonal_spectrum).
    Rows are sorted by energy ascending and the k = 0 component of every
    vector is nonnegative.
    """

    spec: SectorSpec
    energies: np.ndarray
    vectors: np.ndarray
    norms: np.ndarray

    @property
    def dimension(self) -> int:
        return self.energies.size


def sector_spectrum(spec: SectorSpec, branches: list[BetheBranch]) -> SectorSpectrum:
    """Build the normalized sector eigenbasis from a complete branch set."""
    K = spec.branch_count
    if len(branches) != K:
        raise IncompleteBranchSet(f"got {len(branches)} branches, sector needs {K}")
    ordered = sorted(branches, key=lambda b: b.energy)
    energies = np.empty(K)
    vectors = np.zeros((K, K))
    norms = np.ones(K)
    for i, branch in enumerate(ordered):
        energies[i] = branch.energy
        raw = expand_eigenstate(branch, spec)
        scale = float(np.linalg.norm(raw))
        leak = float(np.max(np.abs(raw.imag))) / scale
        if leak >= 1e-9:
            raise ImaginaryLeak(f"relative eigenvector imaginary part {leak:.3e}")
        vec = raw.real
        norms[i] = np.linalg.norm(vec)
        vectors[i] = vec / norms[i]  # vec[0] = sqrt(M!) e_0 > 0
    H = sector_hamiltonian(spec).dense()
    res = float(np.max(np.abs(vectors @ H - energies[:, None] * vectors)))
    if res >= 1e-8:
        raise EigenResidualTooLarge(f"max |Hv - Ev| = {res:.3e}")
    return SectorSpectrum(spec=spec, energies=energies, vectors=vectors, norms=norms)


def tridiagonal_spectrum(spec: SectorSpec) -> SectorSpectrum:
    """The sector eigenbasis by exact diagonalization of its Hamiltonian.

    diagonalize returns ascending energies and rejects any eigenvector
    whose residual reaches 1e-10; each row is signed so that its k = 0
    component is nonnegative, as in sector_spectrum.
    """
    energies, evecs = diagonalize(sector_hamiltonian(spec))
    vectors = evecs.T * np.where(evecs[0] < 0, -1.0, 1.0)[:, None]
    return SectorSpectrum(spec=spec, energies=energies, vectors=vectors, norms=np.ones(energies.size))


def _term_sum(t, start: float, terms, wave):
    """start + sum_i c_i wave(omega_i t), adding the terms in order; a float for a scalar t."""
    t_arr = np.asarray(t, dtype=float)
    out = np.full_like(t_arr, start, dtype=float)
    for c, omega in terms:
        out = out + c * wave(omega * t_arr)
    return out if np.ndim(t) else float(out)


@dataclass(frozen=True)
class CosineSeries:
    """Finite real series  value(t) = offset + sum_i amp_i cos(omega_i t).

    Frequencies are strictly increasing and nonnegative; equal
    frequencies are merged at construction time by the assembly code.
    """

    offset: float
    terms: tuple[tuple[float, float], ...] = ()  # (amplitude, omega), omega ascending

    def value(self, t):
        return _term_sum(t, self.offset, self.terms, np.cos)


@dataclass(frozen=True)
class SineSeries:
    """Exact derivative of a CosineSeries: sum_i coef_i sin(omega_i t)."""

    terms: tuple[tuple[float, float], ...] = ()  # (coefficient, omega)

    def value(self, t):
        return _term_sum(t, 0.0, self.terms, np.sin)


def series_derivative(series: CosineSeries) -> SineSeries:
    """d/dt of the series, exactly (no numerical differentiation)."""
    return SineSeries(terms=tuple((-amp * omega, omega) for amp, omega in series.terms))


def number_state_energy(spectrum: SectorSpectrum) -> CosineSeries:
    """Stored energy F(M, t) of the sector's bare initial state.

    The photon number is sum_{g,s} C_gs cos((E_s - E_g) t) with the real
    coefficients C = outer(c, c) * (V diag(M - k) V^T) of the eigenbasis
    V and the overlaps c = V[:, 0]; each pair g < s is one cosine of
    amplitude C_gs + C_sg.  Equal frequencies are merged, the pairs
    taken in stable ascending-gap order, and F(M, t) = M - <n>(t).
    Terms below 1e-12 in amplitude are pruned.
    """
    M = spectrum.spec.excitations
    c = spectrum.vectors[:, 0]
    photon = M - np.arange(spectrum.dimension, dtype=float)
    coeff = np.outer(c, c) * ((spectrum.vectors * photon) @ spectrum.vectors.T)
    g, s = np.triu_indices(spectrum.dimension, 1)
    gaps = spectrum.energies[s] - spectrum.energies[g]
    order = np.argsort(gaps, kind="stable")
    amps = -(coeff[g, s] + coeff[s, g])
    merged: list[list[float]] = []
    for omega, amp in zip(gaps[order].tolist(), amps[order].tolist()):
        if merged and abs(omega - merged[-1][0]) < FREQ_MERGE_TOL:
            merged[-1][1] += amp
        else:
            merged.append([omega, amp])
    terms = tuple((amp, omega) for omega, amp in merged if abs(amp) >= AMP_PRUNE_TOL)
    return CosineSeries(offset=float(M - np.trace(coeff)), terms=terms)


def first_max_time(series: CosineSeries) -> float:
    """Earliest t > 0 where the series attains a local maximum.

    Scans a uniform grid of step SCAN_STEP SCAN_CHUNK points at a time,
    stops at the first interior peak and refines its bracket to PEAK_XTOL
    by bisection on the sign of the exact derivative.  Raises
    NoMaximumFound when nothing peaks inside (0, SCAN_END].
    """
    t = np.arange(0.0, SCAN_END + SCAN_STEP / 2, SCAN_STEP)
    for start in range(0, t.size - 2, SCAN_CHUNK):
        v = series.value(t[start:start + SCAN_CHUNK + 2])  # each chunk ends with its neighbours
        peaks = ((v[1:-1] >= v[:-2]) & (v[1:-1] > v[2:])).nonzero()[0]
        if peaks.size:
            i = start + 1 + peaks[0]
            slope, lo, hi = series_derivative(series), t[i - 1], t[i + 1]
            while hi - lo > PEAK_XTOL:
                mid = (lo + hi) / 2.0
                lo, hi = (mid, hi) if slope.value(mid) > 0 else (lo, mid)
            return (lo + hi) / 2.0
    raise NoMaximumFound(f"no local maximum in (0, {SCAN_END}]")
