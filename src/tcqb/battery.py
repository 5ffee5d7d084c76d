"""Stored energy and charging power for arbitrary initial photon statistics.

The battery's energy intake depends on the initial field state only
through its photon-number probabilities p(M): the stored energy is the
expectation E(t) = sum_M p(M) F(M, t) over the per-sector series F, and
the average charging power is E(t)/t.  On top of that expectation this
module builds the provably optimal two-point distribution for a given
mean, the equal-probability / equal-expected-value splitting of an
arbitrary distribution against it, and grid checkers for the two
hypersensitivity inequalities of the number-state stored energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bethe import SectorSpec
from .spectral import CosineSeries, first_max_time, number_state_energy, series_derivative, tridiagonal_spectrum

__all__ = [
    "BatteryError",
    "NegativeMean",
    "TruncationTooSmall",
    "SupportExceedsTable",
    "NonpositiveTime",
    "DegenerateSplit",
    "ZeroReferenceEnergy",
    "NegativeObservedEnergy",
    "DeltaFMismatch",
    "PhotonDistribution",
    "fock_distribution",
    "coherent_distribution",
    "EnergyTable",
    "energy_table",
    "stored_energy",
    "charging_power",
    "optimal_distribution",
    "SplitTableau",
    "split",
    "delta_F",
    "avg_slope_monotone",
    "InequalityReport",
    "check_ratio_inequality",
    "check_derivative_inequality",
    "estimate_photon_number",
]

PROB_SUM_TOL = 1e-12
MEAN_SNAP_TOL = 1e-9
INEQ_TOL = 1e-9
GRID_STEP = 1e-3


class BatteryError(Exception):
    """Base class for distribution/table failures."""


class NegativeMean(BatteryError, ValueError):
    """A target mean photon number below zero."""


class TruncationTooSmall(BatteryError):
    """Truncating the distribution would drop more than 1e-3 of its mass."""


class SupportExceedsTable(BatteryError):
    """The distribution needs sectors the energy table does not cover."""


class NonpositiveTime(BatteryError):
    """Average power is defined for t > 0 only."""


class DegenerateSplit(BatteryError):
    """No mass above the mean's integer part although balance requires it."""


class ZeroReferenceEnergy(BatteryError):
    """Photon-number estimation needs a positive reference energy."""


class NegativeObservedEnergy(BatteryError):
    """A stored-energy reading below zero, which no state can give."""


class DeltaFMismatch(BatteryError):
    """Direct and split-decomposed expectation gaps disagree."""


@dataclass(frozen=True)
class PhotonDistribution:
    """Probability mass function over photon numbers with cached mean."""

    probs: dict[int, float]
    mean: float = field(init=False)

    def __post_init__(self):
        cleaned = {}
        for m, p in self.probs.items():
            m = int(m)
            p = float(p)
            if not math.isfinite(p):
                raise ValueError(f"probability p({m}) = {p} is not finite")
            if p < 0:
                raise ValueError(f"negative probability p({m}) = {p}")
            if m < 0:
                raise ValueError(f"negative photon number {m}")
            if p > 0:
                cleaned[m] = p
        if not cleaned:
            raise ValueError("distribution has no support")
        total = math.fsum(cleaned.values())
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, expected 1")
        object.__setattr__(self, "probs", dict(sorted(cleaned.items())))
        object.__setattr__(self, "mean", math.fsum(m * p for m, p in cleaned.items()))

    @property
    def max_support(self) -> int:
        return max(self.probs)

    def prob(self, m: int) -> float:
        return self.probs.get(m, 0.0)


def fock_distribution(m: int) -> PhotonDistribution:
    """Point mass at photon number m."""
    if m < 0:
        raise ValueError("photon number must be >= 0")
    return PhotonDistribution({int(m): 1.0})


def coherent_distribution(
    alpha_sq: float, truncation: int | None = None, tail_tol: float = 1e-6
) -> PhotonDistribution:
    """Poissonian photon statistics of a coherent field, truncated.

    p(M) = exp(-|a|^2) |a|^(2M) / M! renormalized over 0..truncation.
    Without an explicit truncation the support is grown until the
    dropped tail is below tail_tol.  An explicit truncation dropping
    more than 1e-3 of the mass raises TruncationTooSmall.
    """
    if alpha_sq < 0:
        raise ValueError("mean photon number |alpha|^2 must be >= 0")
    if alpha_sq == 0:
        return fock_distribution(0)
    if truncation is None:
        truncation = max(1, int(math.ceil(alpha_sq)))
        while _poisson_tail(alpha_sq, truncation) > tail_tol:
            truncation += 1
    tail = _poisson_tail(alpha_sq, truncation)
    if tail > 1e-3:
        raise TruncationTooSmall(
            f"tail mass {tail:.3e} beyond M = {truncation} exceeds 1e-3"
        )
    log_p = [-alpha_sq + m * math.log(alpha_sq) - math.lgamma(m + 1) for m in range(truncation + 1)]
    raw = np.exp(log_p)
    raw /= raw.sum()
    return PhotonDistribution({m: float(p) for m, p in enumerate(raw)})


def _poisson_tail(mu: float, cutoff: int) -> float:
    """P(X > cutoff) for X ~ Poisson(mu).

    The terms are summed in log space: exp(-mu) alone underflows to 0
    for mu > 745, which would leave the tail at 1 for every cutoff.
    """
    log_mu = math.log(mu)
    cdf = math.fsum(math.exp(m * log_mu - mu - math.lgamma(m + 1)) for m in range(cutoff + 1))
    return max(0.0, 1.0 - cdf)


@dataclass
class EnergyTable:
    """Stored-energy series F(M, t) for every sector M = 0..m_max.

    The inequality scans read each sector's grid values from one cache.
    """

    n_atoms: int
    series: dict[int, CosineSeries]
    _scans: dict[int, tuple] = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        ms = sorted(self.series)
        if ms != list(range(len(ms))):
            raise ValueError("energy table support must be contiguous from 0")

    @property
    def m_max(self) -> int:
        return len(self.series) - 1

    def _scan(self, m: int) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
        """(t_max, t, F, dF/dt) of sector m on _default_grid(t_max), cached."""
        if m not in self._scans:
            series = self.series[m]
            t_max = first_max_time(series)
            t = _default_grid(t_max)
            self._scans[m] = (t_max, t, series.value(t), series_derivative(series).value(t))
        return self._scans[m]

    def t_max(self, m: int) -> float:
        """First-maximum time of F(m, t), cached."""
        return self._scan(m)[0]


def energy_table(n_atoms: int, m_max: int) -> EnergyTable:
    """Energy series of all sectors up to m_max from their tridiagonal spectra."""
    series = {
        m: number_state_energy(tridiagonal_spectrum(SectorSpec(n_atoms, m)))
        for m in range(0, m_max + 1)
    }
    return EnergyTable(n_atoms=n_atoms, series=series)


def stored_energy(dist: PhotonDistribution, table: EnergyTable, t):
    """E(t) = sum_M p(M) F(M, t); linear in the distribution."""
    if dist.max_support > table.m_max:
        raise SupportExceedsTable(
            f"distribution reaches M = {dist.max_support}, table stops at {table.m_max}"
        )
    t_arr = np.asarray(t, dtype=float)
    out = np.zeros_like(t_arr, dtype=float)
    for m, p in dist.probs.items():
        out = out + p * table.series[m].value(t_arr)
    return out if np.ndim(t) else float(out)


def charging_power(dist: PhotonDistribution, table: EnergyTable, t):
    """Average charging power E(t)/t for t > 0."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr <= 0):
        raise NonpositiveTime("average power needs t > 0")
    out = stored_energy(dist, table, t_arr) / t_arr
    return out if np.ndim(t) else float(out)


def _mean_parts(nbar: float) -> tuple[int, float]:
    """Integer part and fractional remainder, snapping near-integers.

    Floating summation can leave an intended integer mean a few ulp
    below the integer, which would flip the floor; means within 1e-9 of
    an integer are treated as exact.
    """
    nearest = round(nbar)
    if abs(nbar - nearest) < MEAN_SNAP_TOL:
        return int(nearest), 0.0
    fl = math.floor(nbar)
    return int(fl), nbar - fl


def optimal_distribution(nbar: float) -> PhotonDistribution:
    """The two-point distribution maximizing stored energy at fixed mean.

    Weight 1-frac on [nbar] and frac on [nbar]+1 (a point mass when the
    mean is an integer); these are the squared amplitudes of the optimal
    superposition of the two neighboring number states.
    """
    if nbar < 0:
        raise NegativeMean(f"mean photon number {nbar!r} is negative")
    fl, frac = _mean_parts(nbar)
    if frac == 0.0:
        return fock_distribution(fl)
    return PhotonDistribution({fl: 1.0 - frac, fl + 1: frac})


@dataclass(frozen=True)
class SplitPart:
    """Group j of the splitting: matched probability and matched mean."""

    j: int
    probs_below: dict[int, float]  # p_j(i) for i <= [nbar]
    frac_part: float  # (nbar - [nbar])_j
    one_minus_frac_part: float  # [1 - (nbar - [nbar])]_j


@dataclass(frozen=True)
class SplitTableau:
    """Equal-probability / equal-expected-value decomposition of a pmf.

    Part j pairs the mass at [nbar]+j with a proportional share of the
    mass at and below [nbar]; within every part the total probability
    and the photon-number expectation match those of the same share of
    the optimal two-point distribution.
    """

    floor: int
    frac: float
    d: int
    parts: tuple[SplitPart, ...]

    def identity_errors(self, dist: PhotonDistribution) -> tuple[float, float]:
        """Max deviations of the group-probability and group-mean identities."""
        err_p = 0.0
        err_m = 0.0
        for part in self.parts:
            pj = dist.prob(self.floor + part.j)
            lhs_p = math.fsum(part.probs_below.values()) + pj
            rhs_p = part.one_minus_frac_part + part.frac_part
            err_p = max(err_p, abs(lhs_p - rhs_p))
            lhs_m = math.fsum(i * q for i, q in part.probs_below.items()) + pj * (
                self.floor + part.j
            )
            rhs_m = self.floor * part.one_minus_frac_part + (self.floor + 1) * part.frac_part
            err_m = max(err_m, abs(lhs_m - rhs_m))
        return err_p, err_m


def split(dist: PhotonDistribution) -> SplitTableau:
    """Decompose a distribution against the optimal one with equal mean.

    Mass at [nbar]+j (j = 1..d) defines the j-th group weight
    w_j = j p([nbar]+j) / sum_k k p([nbar]+k); the below-mean
    probabilities and the fractional weights of the optimal distribution
    are split proportionally to w_j.  A distribution whose support stops
    at [nbar] yields the empty tableau (d = 0).
    """
    fl, frac = _mean_parts(dist.mean)
    d = dist.max_support - fl
    if d <= 0:
        return SplitTableau(floor=fl, frac=frac, d=0, parts=())
    balance = math.fsum(k * dist.prob(fl + k) for k in range(1, d + 1))
    if balance <= 0:
        raise DegenerateSplit(
            "no mass above the mean's integer part although the mean balance requires it"
        )
    below = {i: p for i, p in dist.probs.items() if i <= fl}
    below_total = math.fsum(below.values())
    parts = []
    for j in range(1, d + 1):
        w = j * dist.prob(fl + j) / balance
        parts.append(
            SplitPart(
                j=j,
                probs_below={i: w * p for i, p in below.items()},
                frac_part=w * frac,
                one_minus_frac_part=w * (below_total - frac) + dist.prob(fl + j),
            )
        )
    return SplitTableau(floor=fl, frac=frac, d=d, parts=tuple(parts))


def delta_F(dist: PhotonDistribution, table: EnergyTable, t):
    """Gap between the optimal-state and actual expectations of F.

    Computed both directly (optimal-minus-actual expectation) and
    through the split decomposition; the two must agree within 1e-10 and
    the direct value is returned.  Accepts scalar or array t.
    """
    fl, frac = _mean_parts(dist.mean)
    needed = max(dist.max_support, fl + 1)
    if needed > table.m_max:
        raise SupportExceedsTable(
            f"need F up to M = {needed}, table stops at {table.m_max}"
        )
    t_arr = np.asarray(t, dtype=float)
    f_at = {m: table.series[m].value(t_arr) for m in range(0, needed + 1)}
    f_floor = f_at[fl]
    f_next = f_at[fl + 1]
    direct = (
        f_floor
        + frac * (f_next - f_floor)
        - sum(p * f_at[m] for m, p in dist.probs.items())
    )
    tableau = split(dist)
    via_split = np.zeros_like(t_arr, dtype=float)
    for part in tableau.parts:
        gap_j = (f_at[fl + part.j] - f_floor) / part.j
        for i, pj in part.probs_below.items():
            if i == fl:
                continue
            via_split = via_split + pj * (fl - i) * ((f_floor - f_at[i]) / (fl - i) - gap_j)
        via_split = via_split + part.frac_part * ((f_next - f_floor) - gap_j)
    gap = np.max(np.abs(direct - via_split)) if t_arr.size else 0.0
    if gap >= 1e-10:
        raise DeltaFMismatch(f"direct and split routes differ by {gap:.3e}")
    return direct if np.ndim(t) else float(direct)


def avg_slope_monotone(table: EnergyTable, t: float) -> tuple[bool, tuple[int, float] | None]:
    """Is F(M, t)/M non-increasing in M at this t?

    Returns (True, None) or (False, (M, excess)) for the first M whose
    average slope exceeds that of M-1 beyond 1e-9.
    """
    prev = None
    for m in range(1, table.m_max + 1):
        slope = table.series[m].value(t) / m
        if prev is not None and slope > prev + INEQ_TOL:
            return False, (m, float(slope - prev))
        prev = slope
    return True, None


@dataclass(frozen=True)
class InequalityReport:
    """Outcome of one grid check of a stored-energy inequality."""

    which: int  # 28 (ratio) or 29 (derivative)
    indices: tuple[int, ...]
    holds: bool = True
    max_excess: float = 0.0
    argmax_t: float | None = None
    n_violations: int = 0
    region_end: float = 0.0


def _default_grid(end: float) -> np.ndarray:
    n = int(math.floor(end / GRID_STEP + 1e-9))
    return np.arange(1, n + 1) * GRID_STEP


def _shared_scan(table: EnergyTable, *ms: int) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """t, F and dF/dt of the sectors ms on _default_grid(min of their t_max).

    Every cached grid is arange(1, n + 1) * GRID_STEP, so the shortest
    one is that grid and a prefix of the others: slicing gives the same
    numbers as evaluating each series on it afresh.
    """
    scans = [table._scan(m) for m in ms]
    n = min(s[1].size for s in scans)
    return scans[0][1][:n], [s[2][:n] for s in scans], [s[3][:n] for s in scans]


def _report(which: int, indices: tuple[int, ...], grid: np.ndarray, t: np.ndarray,
            excess: np.ndarray) -> InequalityReport:
    """The worst excess at the points t of a scan over grid."""
    region_end = float(grid[-1]) if grid.size else 0.0
    if excess.size == 0:
        return InequalityReport(which=which, indices=indices, region_end=region_end)
    worst = int(np.argmax(excess))
    n_bad = int(np.count_nonzero(excess > INEQ_TOL))
    return InequalityReport(
        which=which,
        indices=indices,
        holds=n_bad == 0,
        max_excess=float(excess[worst]),
        argmax_t=float(t[worst]),
        n_violations=n_bad,
        region_end=region_end,
    )


def check_ratio_inequality(table: EnergyTable, M: int, m: int) -> InequalityReport:
    """Grid check of F(M, t)/F(m, t) <= M/m for M >= m.

    The grid covers (0, min(t_max(M), t_max(m))] in steps of 1e-3: past
    the earlier of the two first maxima the denominator decays and the
    bound empirically fails, so the scan stays inside the joint charging
    window.  Reports the worst excess beyond M/m + 1e-9.
    """
    if not (M >= m >= 1):
        raise ValueError("need M >= m >= 1")
    t, (f_M, f_m), _ = _shared_scan(table, M, m)
    return _report(28, (M, m), t, t, f_M / f_m - M / m)


def check_derivative_inequality(table: EnergyTable, M: int, m: int, m0: int) -> InequalityReport:
    """Grid check of d/dt[F(M,t)/F(m0,t)] <= d/dt[F(m,t)/F(m0,t)].

    Uses exact series derivatives for M >= m >= m0; grid points where
    F(m0, t) < 1e-8 are excluded (the quotient is singular there).  The
    grid covers (0, min of the three first-maximum times].
    """
    if not (M >= m >= m0 >= 1):
        raise ValueError("need M >= m >= m0 >= 1")
    t, (f_M, f_m, f_0), (d_M, d_m, d_0) = _shared_scan(table, M, m, m0)
    ok = f_0 >= 1e-8
    lhs = (d_M * f_0 - f_M * d_0)[ok]
    rhs = (d_m * f_0 - f_m * d_0)[ok]
    return _report(29, (M, m, m0), t, t[ok], (lhs - rhs) / f_0[ok] ** 2)


def estimate_photon_number(e_known: float, m: int, e_observed: float) -> float:
    """Infer an unknown photon number from two stored-energy readings.

    With a reference sector m of measured energy e_known and an unknown
    sector of measured energy e_observed at the same short coupling
    time, the unknown photon number is m * e_observed / e_known.
    """
    if e_known <= 0:
        raise ZeroReferenceEnergy("reference stored energy must be positive")
    if e_observed < 0:
        raise NegativeObservedEnergy(f"observed stored energy {e_observed:g} is negative")
    return m * e_observed / e_known
