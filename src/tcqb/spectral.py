"""Sector eigenvectors and the exact stored-energy cosine series.

A solved branch with roots {x_j} generates the (unnormalized) eigenstate

    prod_j (a' - J+/x_j) |0> (x) |J,-J>,

whose component on |M-k> (x) |J,-J+k> is the elementary symmetric
polynomial e_k(-1/x_1, .., -1/x_M) times the ladder factors
sqrt((M-k)!) * prod_{l<k} sqrt((2J-l)(l+1)).  From the normalized
eigenbasis the photon number evolves as a finite sum of complex
exponentials, which collapses into the exact real cosine series of the
number-state stored energy F(M, t).

The same eigenbasis also comes straight from the tridiagonal sector
Hamiltonian (tridiagonal_spectrum); the energy tables are built that
way, and the root-built basis is the independent path checked against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bethe import BetheBranch, SectorSpec
from .oracle import diagonalize, sector_hamiltonian

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
    "initial_overlap",
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
    """Collapsing the exponential sum left a non-real amplitude."""


class NoMaximumFound(SpectralError):
    """No local maximum of the series inside the scan window."""


def elementary_symmetric(values: np.ndarray) -> np.ndarray:
    """All e_0..e_n of the given values by the product recurrence.

    The values enter in Leja order (Reichel, BIT 30 (1990) 332): the
    largest |value| first, then each time the value that maximises the
    product of distances to those already taken.  In the input order
    the float64 recurrence loses the large sectors (N = 28, M = 36).
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
    """
    M = spec.excitations
    K = spec.branch_count
    if M == 0:
        return np.ones(1, dtype=complex)
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
    product state (1 when no product state generated the vector).  Rows
    are sorted by energy ascending and the k = 0 component of every vector
    is nonnegative.
    """

    spec: SectorSpec
    energies: np.ndarray
    vectors: np.ndarray
    norms: np.ndarray

    @property
    def dimension(self) -> int:
        return self.energies.size


def sector_spectrum(spec: SectorSpec, branches: list[BetheBranch]) -> SectorSpectrum:
    """Build the normalized sector eigenbasis from a complete branch set.

    A root-free completeness branch (the non-representable zero-energy
    state of odd M > 2J sectors) gets the unique unit vector orthogonal
    to all regular eigenvectors; the H-residual check below validates it
    like any other member.
    """
    K = spec.branch_count
    if len(branches) != K:
        raise IncompleteBranchSet(f"got {len(branches)} branches, sector needs {K}")
    ordered = sorted(branches, key=lambda b: b.energy)
    synth = [i for i, b in enumerate(ordered) if b.is_completeness and spec.excitations > 0]
    if len(synth) > 1:
        raise IncompleteBranchSet("at most one completeness branch is possible per sector")
    energies = np.empty(K)
    vectors = np.zeros((K, K))
    norms = np.ones(K)
    for i, branch in enumerate(ordered):
        energies[i] = branch.energy
        if i in synth:
            continue
        raw = expand_eigenstate(branch, spec)
        scale = float(np.linalg.norm(raw))
        leak = float(np.max(np.abs(raw.imag))) / scale
        if leak >= 1e-9:
            raise ImaginaryLeak(f"relative eigenvector imaginary part {leak:.3e}")
        vec = raw.real
        norms[i] = np.linalg.norm(vec)
        vec = vec / norms[i]
        if vec[0] < 0:
            vec = -vec
        vectors[i] = vec
    if synth:
        others = np.delete(vectors, synth[0], axis=0)
        _, _, vt = np.linalg.svd(others)
        vec = vt[-1]
        if vec[np.argmax(np.abs(vec))] < 0:
            vec = -vec
        if vec[0] < 0:
            vec = -vec
        vectors[synth[0]] = vec
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


def initial_overlap(spectrum: SectorSpectrum, sigma: int) -> float:
    """Overlap of eigenstate sigma with the bare state |M> (x) |J,-J>.

    Equals the k = 0 component of the normalized eigenvector, i.e.
    sqrt(M!)/norm for the generating product state.
    """
    return float(spectrum.vectors[sigma, 0])


@dataclass(frozen=True)
class CosineSeries:
    """Finite real series  value(t) = offset + sum_i amp_i cos(omega_i t).

    Frequencies are strictly increasing and nonnegative; equal
    frequencies are merged at construction time by the assembly code.
    """

    offset: float
    terms: tuple[tuple[float, float], ...] = ()  # (amplitude, omega), omega ascending

    def value(self, t):
        t_arr = np.asarray(t, dtype=float)
        out = np.full_like(t_arr, self.offset, dtype=float)
        for amp, omega in self.terms:
            out = out + amp * np.cos(omega * t_arr)
        return out if np.ndim(t) else float(out)


@dataclass(frozen=True)
class SineSeries:
    """Exact derivative of a CosineSeries: sum_i coef_i sin(omega_i t)."""

    terms: tuple[tuple[float, float], ...] = ()  # (coefficient, omega)

    def value(self, t):
        t_arr = np.asarray(t, dtype=float)
        out = np.zeros_like(t_arr, dtype=float)
        for coef, omega in self.terms:
            out = out + coef * np.sin(omega * t_arr)
        return out if np.ndim(t) else float(out)


def series_derivative(series: CosineSeries) -> SineSeries:
    """d/dt of the series, exactly (no numerical differentiation)."""
    return SineSeries(terms=tuple((-amp * omega, omega) for amp, omega in series.terms))


def number_state_energy(spectrum: SectorSpectrum) -> CosineSeries:
    """Stored energy F(M, t) of the sector's bare initial state.

    The photon number is sum_{g,s} c_g c_s exp(i(E_g - E_s) t) A_{gs}
    with overlaps c and photon-number matrix A in the eigenbasis; the
    Hermitian pairing collapses it to a real cosine series and
    F(M, t) = M - <n>(t).  Terms below 1e-12 in amplitude are pruned.
    """
    M = spectrum.spec.excitations
    K = spectrum.dimension
    c = spectrum.vectors[:, 0]
    photon = M - np.arange(K, dtype=float)
    A = (spectrum.vectors * photon) @ spectrum.vectors.T
    # Complex pair coefficients; test the leak explicitly even though the
    # realified eigenbasis makes it vanish identically here.
    coeff = np.outer(c, c).astype(complex) * A
    offset_n = coeff.trace()
    if abs(offset_n.imag) >= 1e-9:
        raise ImaginaryLeak(f"zero-frequency amplitude imag {offset_n.imag:.3e}")
    raw: list[tuple[float, float]] = []
    for g in range(K):
        for s in range(g + 1, K):
            amp = coeff[g, s] + coeff[s, g]
            if abs(amp.imag) >= 1e-9:
                raise ImaginaryLeak(f"pair ({g},{s}) amplitude imag {amp.imag:.3e}")
            raw.append((spectrum.energies[s] - spectrum.energies[g], -amp.real))
    raw.sort(key=lambda p: p[0])
    merged: list[list[float]] = []
    for omega, amp in raw:
        if merged and abs(omega - merged[-1][0]) < FREQ_MERGE_TOL:
            merged[-1][1] += amp
        else:
            merged.append([omega, amp])
    terms = tuple((amp, omega) for omega, amp in merged if abs(amp) >= AMP_PRUNE_TOL)
    return CosineSeries(offset=float(M - offset_n.real), terms=terms)


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
