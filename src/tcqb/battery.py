"""Stored energy and charging power for arbitrary initial photon statistics.

The battery's energy intake depends on the initial field state only
through its photon-number probabilities p(M): the stored energy is the
expectation E(t) = sum_M p(M) F(M, t) over the energy table, the tuple
of per-sector series F(0..m_max, t), and the average charging power is
E(t)/t.  On top of that expectation this module builds the provably
optimal two-point distribution for a given mean, the equal-probability /
equal-expected-value splitting of an arbitrary distribution against it,
and grid checkers for the two hypersensitivity inequalities of the
number-state stored energy, which read the table's scan: one matrix
pair, F and dF/dt of every M as rows on one grid.
"""

from __future__ import annotations

import math
import numbers
import operator
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .oracle import SectorSpec, is_integer

if TYPE_CHECKING:  # spectral is imported where a table is built or scanned
    from .spectral import CosineSeries

__all__ = [
    "BatteryError",
    "NegativeMean",
    "TruncationTooSmall",
    "SupportExceedsTable",
    "ZeroReferenceEnergy",
    "NegativeObservedEnergy",
    "DeltaFMismatch",
    "PhotonDistribution",
    "fock_distribution",
    "coherent_distribution",
    "energy_table",
    "Scan",
    "scan",
    "stored_energy",
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
MEAN_SNAP_ULPS = 4  # a mean this many ulps from an integer is that integer
INEQ_TOL = 1e-9
GRID_STEP = 1e-3
COHERENT_TAIL_TOL = 1e-6  # Poisson mass dropped by an automatic coherent truncation


class BatteryError(Exception):
    """Base class for distribution/table failures."""


class NegativeMean(BatteryError, ValueError):
    """A target mean photon number below zero."""


class TruncationTooSmall(BatteryError):
    """Truncating the distribution would drop more than 1e-3 of its mass."""


class SupportExceedsTable(BatteryError):
    """The distribution needs sectors the energy table does not cover."""


class ZeroReferenceEnergy(BatteryError):
    """Photon-number estimation needs a positive reference energy."""


class NegativeObservedEnergy(BatteryError):
    """A stored-energy reading below zero, which no state can give."""


class DeltaFMismatch(BatteryError):
    """Direct and split-decomposed expectation gaps disagree."""


def _photon_number(key) -> int:
    """A pmf key as a photon number: an integer, or a string written as one (a JSON key)."""
    try:
        m = int(key) if isinstance(key, str) else operator.index(key)
    except (TypeError, ValueError):
        m = None
    if m is None or isinstance(key, bool) or (isinstance(key, str) and key != str(m)):
        raise ValueError(f"photon number {key!r} is not an integer")
    if abs(m) > sys.float_info.max:  # the mean sums m * p(m) in floats
        raise ValueError(f"photon number {key!r} is too large for a float")
    return m


@dataclass(frozen=True)
class PhotonDistribution:
    """Probability mass function over photon numbers, with its mean.

    Keys are integers (numpy integers too) or strings written exactly
    as str(int), as a JSON document stores them; each photon number is
    given once.  Probabilities are ints or floats (numpy scalars too,
    booleans not), finite and >= 0, and sum to 1 within PROB_SUM_TOL;
    each key and probability must fit in a float.  Anything else raises
    ValueError naming the key.  Zero probabilities are dropped.
    """

    probs: dict[int, float]
    mean: float = field(init=False)

    def __post_init__(self):
        cleaned, seen = {}, set()
        for key, p in self.probs.items():
            m = _photon_number(key)
            if m in seen:
                raise ValueError(f"photon number {key!r} is given twice")
            seen.add(m)
            if isinstance(p, bool):
                raise ValueError(f"probability p({m}) = {p} is a boolean, not a number")
            if not isinstance(p, numbers.Real):
                raise ValueError(f"probability p({m}) = {p!r} is not a number")
            try:
                p = float(p)
            except OverflowError:
                raise ValueError(f"probability p({m}) is too large for a float") from None
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
    """Point mass at photon number m, an integer >= 0 (a bool or a float is refused)."""
    if not is_integer(m) or m < 0:
        raise ValueError(f"photon number must be an integer >= 0, got {m!r}")
    return PhotonDistribution({int(m): 1.0})


def coherent_distribution(alpha_sq: float, truncation: int | None = None) -> PhotonDistribution:
    """Poissonian photon statistics of a coherent field, truncated.

    p(M) = exp(-|a|^2) |a|^(2M) / M! renormalized over 0..truncation.
    Without an explicit truncation the support is grown until the
    dropped tail is below COHERENT_TAIL_TOL.  A mean that is not finite,
    or a truncation that is negative or not an integer (a bool or a
    float is refused), raises ValueError; an explicit truncation
    dropping more than 1e-3 of the mass raises TruncationTooSmall.
    """
    if not math.isfinite(alpha_sq):
        raise ValueError(f"mean photon number {alpha_sq!r} is not finite")
    if alpha_sq < 0:
        raise ValueError("mean photon number |alpha|^2 must be >= 0")
    if truncation is not None and not is_integer(truncation):
        raise ValueError(f"truncation {truncation!r} is not an integer")
    if truncation is not None and truncation < 0:
        raise ValueError(f"truncation {truncation} is negative; it must be >= 0")
    if alpha_sq == 0:
        return fock_distribution(0)
    if truncation is None:
        truncation = _coherent_cut(alpha_sq)
    tail = _poisson_tail(alpha_sq, truncation)
    if tail > 1e-3:
        raise TruncationTooSmall(
            f"tail mass {tail:.3e} beyond M = {truncation} exceeds 1e-3"
        )
    log_p = [-alpha_sq + m * math.log(alpha_sq) - math.lgamma(m + 1) for m in range(truncation + 1)]
    raw = np.exp(log_p)
    raw /= raw.sum()
    return PhotonDistribution({m: float(p) for m, p in enumerate(raw)})


def _coherent_cut(mu: float) -> int:
    """The smallest cut >= max(1, ceil(mu)) whose Poisson tail is <= COHERENT_TAIL_TOL.

    The tail never rises as the cut grows (the prefix sum only gains
    positive terms), so the cut is bracketed by doubling steps and then
    found by bisection: 17 tail sums at mu = 4000, where a search one
    photon at a time takes 305.
    """
    lo, step = max(1, math.ceil(mu)) - 1, 1  # every cut from the start up to lo leaves too much tail
    while _poisson_tail(mu, lo + step) > COHERENT_TAIL_TOL:
        lo += step
        step *= 2
    hi = lo + step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _poisson_tail(mu, mid) > COHERENT_TAIL_TOL:
            lo = mid
        else:
            hi = mid
    return hi


def _poisson_tail(mu: float, cutoff: int) -> float:
    """P(X > cutoff) for X ~ Poisson(mu).

    The terms are summed in log space: exp(-mu) alone underflows to 0
    for mu > 745, which would leave the tail at 1 for every cutoff.
    """
    log_mu = math.log(mu)
    cdf = math.fsum(math.exp(m * log_mu - mu - math.lgamma(m + 1)) for m in range(cutoff + 1))
    return max(0.0, 1.0 - cdf)


def energy_table(n_atoms: int, m_max: int) -> tuple[CosineSeries, ...]:
    """F(0..m_max, t) from tridiagonal spectra; SectorSpec(n_atoms, m_max) checks the counts."""
    from .spectral import number_state_energy, tridiagonal_spectrum

    SectorSpec(n_atoms, m_max)
    return tuple(
        number_state_energy(tridiagonal_spectrum(SectorSpec(n_atoms, m))) for m in range(m_max + 1)
    )


def stored_energy(dist: PhotonDistribution, table: tuple[CosineSeries, ...], t):
    """E(t) = sum_M p(M) F(M, t); linear in the distribution."""
    if dist.max_support >= len(table):
        raise SupportExceedsTable(
            f"distribution reaches M = {dist.max_support}, table stops at {len(table) - 1}"
        )
    t_arr = np.asarray(t, dtype=float)
    out = np.zeros_like(t_arr, dtype=float)
    for m, p in dist.probs.items():
        out = out + p * table[m].value(t_arr)
    return out if np.ndim(t) else float(out)


def _mean_parts(nbar: float) -> tuple[int, float]:
    """Integer part and fractional remainder, snapping near-integers.

    Floating summation can leave an intended integer mean a few ulp
    below the integer, which would flip the floor; means within
    MEAN_SNAP_ULPS ulps of an integer are treated as exact.  Nothing
    wider snaps: the optimal partner must keep the mean, so a mean of
    5e-10 or 1e-300 keeps its fraction.
    """
    nearest = round(nbar)
    if abs(nbar - nearest) <= MEAN_SNAP_ULPS * math.ulp(nearest):
        return int(nearest), 0.0
    fl = math.floor(nbar)
    return int(fl), nbar - fl


def optimal_distribution(nbar: float) -> PhotonDistribution:
    """The two-point distribution maximizing stored energy at fixed mean.

    Weight 1-frac on [nbar] and frac on [nbar]+1 (a point mass when the
    mean is an integer); these are the squared amplitudes of the optimal
    superposition of the two neighboring number states.  A mean that is
    not finite raises ValueError.
    """
    if not math.isfinite(nbar):
        raise ValueError(f"mean photon number {nbar!r} is not finite")
    if nbar < 0:
        raise NegativeMean(f"mean photon number {nbar!r} is negative")
    fl, frac = _mean_parts(nbar)
    if frac == 0.0:
        return fock_distribution(fl)
    return PhotonDistribution({fl: 1.0 - frac, fl + 1: frac})


@dataclass(frozen=True)
class SplitTableau:
    """Equal-probability / equal-expected-value decomposition of a pmf.

    Group j = 1..d pairs the mass at [nbar]+j with the share w_j of
    every probability at and below [nbar] and of the optimal
    distribution's weights; within every group the total probability
    and the photon-number expectation match those of the same share of
    the optimal two-point distribution.  The weights w_j fix the whole
    split, so they are all it stores: d is len(weights).
    """

    floor: int
    frac: float
    weights: tuple[float, ...]  # w_j for j = 1..d

    @property
    def d(self) -> int:
        return len(self.weights)

    def identity_errors(self, dist: PhotonDistribution) -> tuple[float, float]:
        """Max deviations of the group-probability and group-mean identities, from each w_j."""
        below = {i: p for i, p in dist.probs.items() if i <= self.floor}
        below_total = math.fsum(below.values())
        err_p = 0.0
        err_m = 0.0
        for j, w in enumerate(self.weights, start=1):
            pj = dist.prob(self.floor + j)
            frac_j = w * self.frac
            one_minus_frac_j = w * (below_total - self.frac) + pj
            lhs_p = math.fsum(w * p for p in below.values()) + pj
            err_p = max(err_p, abs(lhs_p - (one_minus_frac_j + frac_j)))
            lhs_m = math.fsum(i * (w * p) for i, p in below.items()) + pj * (self.floor + j)
            rhs_m = self.floor * one_minus_frac_j + (self.floor + 1) * frac_j
            err_m = max(err_m, abs(lhs_m - rhs_m))
        return err_p, err_m


def split(dist: PhotonDistribution) -> SplitTableau:
    """Decompose a distribution against the optimal one with equal mean.

    Mass at [nbar]+j (j = 1..d) defines the j-th group weight
    w_j = j p([nbar]+j) / sum_k k p([nbar]+k), by which the below-mean
    probabilities and the fractional weights of the optimal distribution
    are shared out.  A distribution whose support stops at [nbar] yields
    the empty tableau (d = 0).  Otherwise the weights' denominator is at
    least d p([nbar]+d) > 0, since a distribution keeps only positive
    probabilities, so every tableau is well defined.
    """
    fl, frac = _mean_parts(dist.mean)
    d = max(dist.max_support - fl, 0)
    balance = math.fsum(k * dist.prob(fl + k) for k in range(1, d + 1))
    weights = tuple(j * dist.prob(fl + j) / balance for j in range(1, d + 1))
    return SplitTableau(floor=fl, frac=frac, weights=weights)


def delta_F(dist: PhotonDistribution, table: tuple[CosineSeries, ...], t):
    """Gap between the optimal-state and actual expectations of F.

    Computed both directly (optimal-minus-actual expectation) and
    through the split, as sum_j w_j [B - L g_j + frac (Delta - g_j)]
    with g_j = (F([nbar]+j) - F([nbar]))/j, Delta = F([nbar]+1) -
    F([nbar]), B = sum p(i) (F([nbar]) - F(i)) and L = sum p(i)
    ([nbar] - i) over i < [nbar]: each group's two Jensen gaps.  The
    two routes must agree within 1e-10 and the direct value is
    returned.  Accepts scalar or array t.
    """
    tableau = split(dist)
    fl, frac = tableau.floor, tableau.frac
    needed = max(dist.max_support, fl + 1)
    if needed >= len(table):
        raise SupportExceedsTable(
            f"need F up to M = {needed}, table stops at {len(table) - 1}"
        )
    t_arr = np.asarray(t, dtype=float)
    f_at = {m: table[m].value(t_arr) for m in range(0, needed + 1)}
    f_floor = f_at[fl]
    step = f_at[fl + 1] - f_floor
    direct = (
        f_floor
        + frac * step
        - sum(p * f_at[m] for m, p in dist.probs.items())
    )
    below = [(i, p) for i, p in dist.probs.items() if i < fl]
    base = sum((p * (f_floor - f_at[i]) for i, p in below), np.zeros_like(t_arr))
    lever = math.fsum(p * (fl - i) for i, p in below)
    via_split = np.zeros_like(t_arr)
    for j, w in enumerate(tableau.weights, start=1):
        g = (f_at[fl + j] - f_floor) / j
        via_split = via_split + w * (base - lever * g + frac * (step - g))
    gap = np.max(np.abs(direct - via_split)) if t_arr.size else 0.0
    if gap >= 1e-10:
        raise DeltaFMismatch(f"direct and split routes differ by {gap:.3e}")
    return direct if np.ndim(t) else float(direct)


def avg_slope_monotone(table: tuple[CosineSeries, ...], t: float) -> tuple[bool, tuple[int, float] | None]:
    """Is F(M, t)/M non-increasing in M at this t?

    Returns (True, None) or (False, (M, excess)) for the first M whose
    average slope exceeds that of M-1 beyond 1e-9.
    """
    slopes = np.array([table[m].value(t) / m for m in range(1, len(table))])
    bad = np.flatnonzero(slopes[1:] > slopes[:-1] + INEQ_TOL)
    if bad.size == 0:
        return True, None
    i = int(bad[0])
    return False, (i + 2, float(slopes[i + 1] - slopes[i]))


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


class Scan(NamedTuple):
    """A table's first-maximum times and its F, dF/dt rows on one grid."""

    t_max: tuple[float, ...]  # first_max_time of each F(M, t), nan at M = 0
    F: np.ndarray  # F(M, t) in row M, on _default_grid(max of t_max)
    dF: np.ndarray  # dF/dt(M, t) in row M, on the same grid


def scan(table: tuple[CosineSeries, ...]) -> Scan:
    """F and dF/dt of every M as rows on _default_grid(latest first maximum).

    Series are evaluated point by point, so a row's first n entries are
    its values on the n-point grid of any earlier first maximum.
    """
    from .spectral import first_max_time, series_derivative

    t_max = (math.nan, *(float(first_max_time(series)) for series in table[1:]))
    t = _default_grid(max(t_max[1:], default=0.0))
    F = np.array([series.value(t) for series in table])
    dF = np.array([series_derivative(series).value(t) for series in table])
    return Scan(t_max, F, dF)


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


def check_ratio_inequality(scan: Scan, M: int, m: int) -> InequalityReport:
    """Grid check of F(M, t)/F(m, t) <= M/m for M >= m.

    The grid covers (0, min(t_max(M), t_max(m))] in steps of 1e-3: past
    the earlier of the two first maxima the denominator decays and the
    bound empirically fails, so the scan stays inside the joint charging
    window.  Reports the worst excess beyond M/m + 1e-9.
    """
    if not (all(map(is_integer, (M, m))) and M >= m >= 1):
        raise ValueError("need M >= m >= 1")
    t = _default_grid(min(scan.t_max[M], scan.t_max[m]))
    return _report(28, (M, m), t, t, scan.F[M, :t.size] / scan.F[m, :t.size] - M / m)


def check_derivative_inequality(scan: Scan, M: int, m: int, m0: int) -> InequalityReport:
    """Grid check of d/dt[F(M,t)/F(m0,t)] <= d/dt[F(m,t)/F(m0,t)].

    Uses exact series derivatives for M >= m >= m0; grid points where
    F(m0, t) < 1e-8 are excluded (the quotient is singular there).  The
    grid covers (0, min of the three first-maximum times].
    """
    if not (all(map(is_integer, (M, m, m0))) and M >= m >= m0 >= 1):
        raise ValueError("need M >= m >= m0 >= 1")
    t = _default_grid(min(scan.t_max[M], scan.t_max[m], scan.t_max[m0]))
    f_M, f_m, f_0 = (scan.F[k, :t.size] for k in (M, m, m0))  # views, not copies
    d_M, d_m, d_0 = (scan.dF[k, :t.size] for k in (M, m, m0))
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
    return m * e_observed / e_known + 0.0  # + 0.0 turns a -0.0 reading into 0.0
