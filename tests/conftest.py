"""Shared fixtures: one solved N = 10 chain reused across the suite."""

import dataclasses
import math

import pytest

from tcqb import battery, bethe, spectral

N_ATOMS = 10
M_MAX = 20


@pytest.fixture(scope="session")
def chains():
    """Solved branch sets for N = 10, M = 0..20."""
    return bethe.solve_sectors(N_ATOMS, M_MAX)


@pytest.fixture(scope="session")
def spectra(chains):
    return {
        m: spectral.sector_spectrum(bethe.SectorSpec(N_ATOMS, m), branches)
        for m, branches in chains.items()
    }


@pytest.fixture(scope="session")
def table(spectra):
    """Energy table F(M, t) for N = 10 up to M = 20."""
    return tuple(spectral.number_state_energy(spectra[m]) for m in range(M_MAX + 1))


@pytest.fixture(scope="session")
def scan(table):
    """The table's first maxima and F, dF/dt rows on one grid."""
    return battery.scan(table)


@pytest.fixture()
def skewed_split(monkeypatch):
    """battery.split with every group weight scaled by 1.01: delta_F's routes then disagree."""
    true_split = battery.split

    def skewed(dist):
        tableau = true_split(dist)
        return dataclasses.replace(tableau, weights=tuple(1.01 * w for w in tableau.weights))

    monkeypatch.setattr(battery, "split", skewed)


def random_distribution(rng, mean, max_support=20, max_extra=4):
    """Random photon pmf with the exact target mean.

    Support points are drawn at random below and above the mean; the two
    extreme probabilities solve the normalization and mean constraints
    exactly, interior weights are scaled to keep them nonnegative.
    """
    floor_mean = math.floor(mean)
    for _ in range(500):
        lo = int(rng.integers(0, floor_mean + 1)) if floor_mean > 0 else 0
        hi = int(rng.integers(floor_mean + 1, max_support + 1))
        if not (lo < mean < hi):
            continue
        extras = rng.integers(0, max_support + 1, size=int(rng.integers(0, max_extra + 1)))
        support = sorted({lo, hi, *map(int, extras)})
        a, b = support[0], support[-1]
        if not (a < mean < b):
            continue
        interior = {i: float(rng.random()) for i in support[1:-1]}
        total = sum(interior.values())
        if total > 0:
            scale = float(rng.random()) * 0.9 / total
            interior = {i: q * scale for i, q in interior.items()}
        s0 = sum(interior.values())
        s1 = sum(i * q for i, q in interior.items())
        p_b = (mean - s1 - a * (1.0 - s0)) / (b - a)
        p_a = 1.0 - s0 - p_b
        if p_a <= 0 or p_b <= 0:
            continue
        probs = dict(interior)
        probs[a] = p_a
        probs[b] = p_b
        return battery.PhotonDistribution(probs)
    raise RuntimeError(f"could not draw a distribution with mean {mean}")
