import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_distribution
from tcqb import battery, cli, spectral
from tcqb.battery import (
    DeltaFMismatch,
    InequalityReport,
    PhotonDistribution,
    Scan,
    SupportExceedsTable,
    TruncationTooSmall,
    ZeroReferenceEnergy,
    avg_slope_monotone,
    check_derivative_inequality,
    check_ratio_inequality,
    coherent_distribution,
    delta_F,
    energy_table,
    estimate_photon_number,
    fock_distribution,
    optimal_distribution,
    split,
    stored_energy,
)
from tcqb.bethe import SectorSpec
from tcqb.oracle import oracle_F
from tcqb.spectral import (
    CosineSeries,
    first_max_time,
    number_state_energy,
    series_derivative,
    tridiagonal_spectrum,
)

SQRT10 = math.sqrt(10.0)

# The worked example distribution: mean exactly 10, total exactly 1.
EXAMPLE_PROBS = {0: 4 / 45, 8: 1 / 4, 9: 1 / 9, 10: 1 / 10, 12: 1 / 4, 15: 1 / 5}


def synthetic_table(values):
    """Table of constant (time-independent) synthetic F values."""
    return tuple(CosineSeries(offset=float(v), terms=()) for v in values)


def window_scan(m_max, t_max):
    """A hand-built scan whose sectors 1..m_max all peak at t_max, with F and dF/dt zero."""
    rows = np.zeros((m_max + 1, battery._default_grid(t_max).size))
    return Scan((math.nan, *[t_max] * m_max), rows, rows)


class TestPhotonDistribution:
    def test_rejects_negative_probability(self):
        with pytest.raises(ValueError):
            PhotonDistribution({0: -0.1, 1: 1.1})

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            PhotonDistribution({0: 0.5, 1: 0.6})

    def test_mean_cached(self):
        dist = PhotonDistribution({1: 0.25, 3: 0.75})
        assert dist.mean == pytest.approx(2.5)
        assert dist.max_support == 3

    @pytest.mark.parametrize("p", [math.nan, math.inf])
    def test_rejects_non_finite_probability(self, p):
        with pytest.raises(ValueError, match="not finite"):
            PhotonDistribution({1: 0.5, 2: p, 3: 0.5})

    def test_rejects_non_integral_photon_number(self):
        with pytest.raises(ValueError, match="photon number 2.7 is not an integer"):
            PhotonDistribution({2.7: 1.0})

    def test_rejects_a_photon_number_given_twice(self):
        with pytest.raises(ValueError, match="photon number '1' is given twice"):
            PhotonDistribution({1: 0.5, "1": 0.5})

    def test_numpy_keys_and_probabilities_pass(self):
        dist = PhotonDistribution({np.int64(2): np.float64(0.5), np.int32(4): 0.5})
        assert dist.probs == {2: 0.5, 4: 0.5}

    def test_json_roundtrip(self, tmp_path):
        dist = PhotonDistribution(EXAMPLE_PROBS)
        path = tmp_path / "dist.json"
        cli._write_json(path, {"probs": cli._probs_doc(dist)})
        back = cli._parse_init(f"file:{path}")
        assert back.probs.keys() == dist.probs.keys()
        assert back.mean == pytest.approx(10.0, abs=1e-10)


class TestFockAndCoherent:
    def test_fock_point_mass(self):
        dist = fock_distribution(10)
        assert dist.probs == {10: 1.0}
        assert dist.mean == 10.0

    def test_fock_vacuum(self):
        assert fock_distribution(0).probs == {0: 1.0}

    @pytest.mark.parametrize("m", [2.5, 2.0, True])
    def test_fock_refuses_a_count_that_is_not_an_integer(self, m):
        with pytest.raises(ValueError, match="photon number must be an integer >= 0"):
            fock_distribution(m)

    def test_fock_accepts_a_numpy_integer(self):
        assert fock_distribution(np.int64(3)).probs == {3: 1.0}

    def test_fock_equals_number_state_energy(self, table):
        t = np.linspace(0.0, 2.0, 50)
        assert np.array_equal(
            stored_energy(fock_distribution(4), table, t), table[4].value(t)
        )

    def test_coherent_ground_weight(self):
        dist = coherent_distribution(4.0, truncation=16)
        raw_total = sum(
            math.exp(-4.0) * 4.0**m / math.factorial(m) for m in range(17)
        )
        assert dist.prob(0) * raw_total == pytest.approx(math.exp(-4.0), rel=1e-12)

    def test_coherent_zero_is_vacuum(self):
        assert coherent_distribution(0.0).probs == {0: 1.0}

    def test_coherent_mean_close_to_alpha_sq(self):
        dist = coherent_distribution(6.0, truncation=16)
        assert abs(dist.mean - 6.0) < 0.05
        assert dist.max_support == 16

    def test_truncation_too_small(self):
        with pytest.raises(TruncationTooSmall):
            coherent_distribution(30.0, truncation=16)

    def test_auto_truncation_tail(self):
        dist = coherent_distribution(4.0)
        assert sum(dist.probs.values()) == pytest.approx(1.0, abs=1e-12)
        assert abs(dist.mean - 4.0) < 1e-4

    @pytest.mark.parametrize("truncation", [3.5, 16.0, True])
    def test_coherent_refuses_a_truncation_that_is_not_an_integer(self, truncation):
        with pytest.raises(ValueError, match=f"^truncation {truncation!r} is not an integer$"):
            coherent_distribution(2.0, truncation)

    def test_coherent_accepts_a_numpy_integer_truncation(self):
        assert coherent_distribution(6.0, np.int64(16)) == coherent_distribution(6.0, 16)

    @pytest.mark.parametrize("alpha_sq, truncation", [
        (math.inf, None), (math.nan, None), (-math.inf, None), (math.inf, 5),
    ])
    def test_coherent_refuses_a_mean_that_is_not_finite(self, alpha_sq, truncation):
        with pytest.raises(ValueError, match=f"^mean photon number {alpha_sq!r} is not finite$"):
            coherent_distribution(alpha_sq, truncation)

    @pytest.mark.parametrize("alpha_sq", [0.01, 0.5, 6, 6.5, 40, 64, 1000, 4000])
    def test_automatic_cut_is_the_one_step_search_cut(self, alpha_sq):
        cut = max(1, math.ceil(alpha_sq))
        while battery._poisson_tail(alpha_sq, cut) > battery.COHERENT_TAIL_TOL:
            cut += 1
        reference = coherent_distribution(alpha_sq, cut)
        got = coherent_distribution(alpha_sq)
        assert {m: p.hex() for m, p in got.probs.items()} == {
            m: p.hex() for m, p in reference.probs.items()}

    def test_automatic_cut_takes_few_tail_sums(self, monkeypatch):
        calls = []
        tail = battery._poisson_tail

        def counted(mu, cutoff):
            calls.append(cutoff)
            return tail(mu, cutoff)

        monkeypatch.setattr(battery, "_poisson_tail", counted)
        assert coherent_distribution(4000).max_support == 4304
        assert len(calls) <= 30  # a search one photon at a time takes 306


class TestStoredEnergy:
    def test_peak_of_single_photon(self, table):
        e = stored_energy(fock_distribution(1), table, math.pi / (2 * SQRT10))
        assert e == pytest.approx(1.0, abs=1e-12)

    def test_zero_at_t0(self, table):
        dist = PhotonDistribution(EXAMPLE_PROBS)
        assert stored_energy(dist, table, 0.0) == pytest.approx(0.0, abs=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(
        p_weights=st.lists(st.floats(0.0, 1.0), min_size=21, max_size=21).filter(any),
        q_weights=st.lists(st.floats(0.0, 1.0), min_size=21, max_size=21).filter(any),
        alpha=st.floats(0.0, 1.0),
    )
    def test_linear_in_mixtures(self, table, p_weights, q_weights, alpha):
        t = np.linspace(0.0, 3.0, 31)
        p = np.array(p_weights) / math.fsum(p_weights)
        q = np.array(q_weights) / math.fsum(q_weights)
        mix = PhotonDistribution(dict(enumerate(alpha * p + (1 - alpha) * q)))
        direct = stored_energy(mix, table, t)
        combo = (alpha * stored_energy(PhotonDistribution(dict(enumerate(p))), table, t)
                 + (1 - alpha) * stored_energy(PhotonDistribution(dict(enumerate(q))), table, t))
        assert np.max(np.abs(direct - combo)) < 1e-12

    def test_support_beyond_table(self, table):
        with pytest.raises(SupportExceedsTable):
            stored_energy(fock_distribution(len(table)), table, 0.5)


class TestEnergyTable:
    def test_series_is_the_tuple_of_number_state_series(self):
        table = energy_table(10, 14)
        assert isinstance(table, tuple) and len(table) == 15
        for m, series in enumerate(table):
            want = number_state_energy(tridiagonal_spectrum(SectorSpec(10, m)))
            assert isinstance(series, CosineSeries)
            assert series.offset.hex() == want.offset.hex()
            assert [(a.hex(), w.hex()) for a, w in series.terms] == [
                (a.hex(), w.hex()) for a, w in want.terms
            ]

    @pytest.mark.parametrize("m_max, message", [
        (2.5, "got 2.5"), (True, "got True"), (-1, "got -1"),
    ])
    def test_counts_are_checked_as_a_sector_spec(self, m_max, message):
        with pytest.raises(ValueError, match=f"^excitations must be an integer >= 0, {message}$"):
            energy_table(10, m_max)

    @pytest.mark.parametrize("n_atoms", [1, 2, 10])
    def test_matches_direct_evolution(self, n_atoms):
        table = energy_table(n_atoms, 20)
        assert len(table) - 1 == 20
        t = np.linspace(0.0, 3.0, 2000)
        worst = max(
            float(np.max(np.abs(table[m].value(t) - oracle_F(SectorSpec(n_atoms, m), t))))
            for m in range(21)
        )
        assert worst < 1e-10


class TestChargingPower:
    def test_short_time_linear_growth(self, table):
        # F(1, t) ~ 2 J M t^2 = 10 t^2, so the average power E/t ~ 10 t
        t = 1e-3
        p = stored_energy(fock_distribution(1), table, t) / t
        assert p == pytest.approx(10.0 * t, rel=1e-4)


class TestOptimalDistribution:
    def test_integer_mean_is_fock(self):
        assert optimal_distribution(10.0).probs == {10: 1.0}

    def test_fractional_mean_two_point(self):
        assert optimal_distribution(2.5).probs == pytest.approx({2: 0.5, 3: 0.5})

    def test_zero_mean_is_vacuum(self):
        assert optimal_distribution(0.0).probs == {0: 1.0}

    def test_mean_is_exact(self):
        for nbar in (0.3, 4.75, 7.5):
            assert optimal_distribution(nbar).mean == pytest.approx(nbar, abs=1e-12)

    def test_near_integer_mean_snaps(self):
        dist = optimal_distribution(math.nextafter(3.0, 0))
        assert dist.probs == {3: 1.0}

    @pytest.mark.parametrize("nbar", [math.inf, math.nan, -math.inf])
    def test_refuses_a_mean_that_is_not_finite(self, nbar):
        with pytest.raises(ValueError, match=f"^mean photon number {nbar!r} is not finite$"):
            optimal_distribution(nbar)


class TestSplit:
    def test_worked_example_tableau(self):
        dist = PhotonDistribution(EXAMPLE_PROBS)
        tableau = split(dist)
        assert tableau.floor == 10
        assert tableau.frac == 0.0
        assert tableau.d == 5
        err_p, err_m = tableau.identity_errors(dist)
        assert err_p < 1e-12
        assert err_m < 1e-12
        assert sum(tableau.weights) == pytest.approx(1.0, abs=1e-15)
        # group shares of each below-mean probability rebuild it
        for i in (0, 8, 9, 10):
            total = sum(w * dist.prob(i) for w in tableau.weights)
            assert total == pytest.approx(dist.prob(i), abs=1e-12)

    def test_point_mass_gives_empty_tableau(self):
        tableau = split(fock_distribution(6))
        assert tableau.d == 0
        assert tableau.weights == ()

    def test_identities_on_random_integer_means(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            mean = int(rng.integers(1, 15))
            dist = random_distribution(rng, mean)
            tableau = split(dist)
            err_p, err_m = tableau.identity_errors(dist)
            assert err_p < 1e-12
            assert err_m < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), mean=st.floats(0.05, 19.5))
    def test_identities_on_random_distributions(self, seed, mean):
        dist = random_distribution(np.random.default_rng(seed), mean, max_support=20)
        err_p, err_m = split(dist).identity_errors(dist)
        assert err_p <= 1e-12
        assert err_m <= 1e-12

    def test_identities_on_fractional_means(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            mean = float(rng.uniform(0.5, 14.5))
            dist = random_distribution(rng, mean)
            err_p, err_m = split(dist).identity_errors(dist)
            assert err_p < 1e-12
            assert err_m < 1e-12


class TestDeltaF:
    def test_worked_example_gap_nonnegative(self, table, scan):
        dist = PhotonDistribution(EXAMPLE_PROBS)
        t_max10 = scan.t_max[10]
        grid = np.arange(1, int(t_max10 / 1e-3) + 1) * 1e-3
        gap = delta_F(dist, table, grid)
        assert np.min(gap) > -1e-9

    def test_optimal_distribution_gap_is_zero(self, table):
        dist = optimal_distribution(7.5)
        assert delta_F(dist, table, 0.4) == pytest.approx(0.0, abs=1e-12)

    def test_convex_synthetic_profile_reverses_sign(self):
        # F(M) = M^2 has increasing average slope, so the two-point
        # distribution is the worst one and the gap is nonpositive.
        tbl = synthetic_table([m**2 for m in range(7)])
        dist = PhotonDistribution({1: 0.5, 5: 0.5})  # mean 3
        assert delta_F(dist, tbl, 0.2) <= 0.0
        assert delta_F(dist, tbl, 0.2) == pytest.approx(9 - (1 + 25) / 2)

    @settings(max_examples=25, deadline=None)
    @given(dist=st.builds(lambda seed, mean: random_distribution(np.random.default_rng(seed), mean),
                          st.integers(0, 2**32 - 1), st.floats(0.05, 19.5)))
    # Means a hair above an integer: the optimal partner keeps the fraction.
    @example(dist=PhotonDistribution({0: 1 - 5e-10, 1: 5e-10}))
    @example(dist=coherent_distribution(1e-300))
    def test_gap_nonnegative_inside_the_charging_window(self, table, scan, dist):
        # The window closes at the earliest first maximum among the
        # sectors the pmf and its optimal two-point partner occupy.
        floor = math.floor(dist.mean)
        window = min(scan.t_max[m] for m in {*dist.probs, floor, floor + 1} if m >= 1)
        t = np.linspace(0.0, window, 201)[1:]
        assert optimal_distribution(dist.mean).mean == pytest.approx(dist.mean, rel=1e-12, abs=0)
        assert np.min(delta_F(dist, table, t)) >= -1e-12

    def test_routes_cross_check_enforced(self, table):
        rng = np.random.default_rng(17)
        for _ in range(50):
            dist = random_distribution(rng, int(rng.integers(2, 14)))
            delta_F(dist, table, 0.3)  # raises DeltaFMismatch on divergence

    @pytest.mark.usefixtures("skewed_split")
    def test_weights_off_by_one_percent_are_a_route_mismatch(self, table):
        with pytest.raises(DeltaFMismatch, match="^direct and split routes differ by "):
            delta_F(PhotonDistribution(EXAMPLE_PROBS), table, 0.3)


class TestAvgSlopeMonotone:
    def test_holds_in_charging_window(self, table):
        ok, violation = avg_slope_monotone(table, 0.3)
        assert ok and violation is None

    def test_trivially_true_at_t0(self, table):
        ok, _ = avg_slope_monotone(table, 0.0)
        assert ok

    def test_detects_convex_profile(self):
        tbl = synthetic_table([0, 1, 4, 9])
        ok, violation = avg_slope_monotone(tbl, 0.1)
        assert not ok
        assert violation[0] == 2

    @pytest.mark.parametrize("values", [
        [0, 3, 5, 6, 9, 10],  # slopes 3, 2.5, 2, 2.25, 2: one violation, at M = 4
        [0, 2, 4, 7, 6, 10],  # slopes 2, 2, 7/3, 1.5, 2: violations at M = 3 and 5
        [0, 4, 6, 6],  # slopes 4, 3, 2: none
    ])
    def test_first_violation_and_excess_match_a_running_scan(self, values):
        table = synthetic_table(values)
        prev, want = None, None
        for m in range(1, len(table)):
            slope = table[m].value(0.1) / m
            if prev is not None and slope > prev + battery.INEQ_TOL:
                want = (m, slope - prev)
                break
            prev = slope
        assert avg_slope_monotone(table, 0.1) == (want is None, want)


class TestRatioInequality:
    def test_published_pair_has_no_violation(self, scan):
        report = check_ratio_inequality(scan, 4, 2)
        assert report.holds
        assert report.n_violations == 0

    def test_equal_indices_ratio_one(self, scan):
        report = check_ratio_inequality(scan, 3, 3)
        assert report.holds
        assert report.max_excess <= 1e-12

    def test_short_time_limit_is_photon_ratio(self, table):
        t = 1e-3
        for M, m in ((4, 2), (9, 3), (14, 1)):
            ratio = table[M].value(t) / table[m].value(t)
            assert abs(ratio - M / m) < 1e-3


class TestDerivativeInequality:
    def test_equal_upper_indices_hold_trivially(self, scan):
        report = check_derivative_inequality(scan, 5, 5, 2)
        assert report.holds

    def test_report_structure(self, scan):
        report = check_derivative_inequality(scan, 6, 4, 2)
        assert report.which == 29
        assert report.indices == (6, 4, 2)
        assert report.region_end > 0
        # The ordering is an empirical short-time statement; by the end
        # of the charging window it is violated (see decisions ledger).
        assert isinstance(report.holds, bool)

    def test_holds_on_short_horizon(self, table, monkeypatch):
        # With every first maximum read as 0.2 the scan covers t <= 0.2,
        # well inside the charging window.
        monkeypatch.setattr(spectral, "first_max_time", lambda series: 0.2)
        short = battery.scan(table)
        for M, m, m0 in ((6, 4, 2), (10, 5, 1), (14, 9, 4)):
            report = check_derivative_inequality(short, M, m, m0)
            assert report.region_end == pytest.approx(0.2)
            assert report.holds, (M, m, m0, report.max_excess)


def _fresh_report(table, t_max, indices):
    """A checker's report with every series evaluated afresh on the scan grid."""
    t = battery._default_grid(min(t_max[k] for k in indices))
    f = [table[k].value(t) for k in indices]
    if len(indices) == 2:
        if t.size == 0:
            return InequalityReport(which=28, indices=indices)
        which, t_ok, excess = 28, t, f[0] / f[1] - indices[0] / indices[1]
    else:
        d = [series_derivative(table[k]).value(t) for k in indices]
        ok = f[2] >= 1e-8
        lhs = (d[0] * f[2] - f[0] * d[2])[ok]
        rhs = (d[1] * f[2] - f[1] * d[2])[ok]
        which, t_ok, excess = 29, t[ok], (lhs - rhs) / f[2][ok] ** 2
    if excess.size == 0:
        return InequalityReport(which=which, indices=indices, region_end=float(t[-1]) if t.size else 0.0)
    worst = int(np.argmax(excess))
    n_bad = int(np.count_nonzero(excess > battery.INEQ_TOL))
    return InequalityReport(
        which=which,
        indices=indices,
        holds=n_bad == 0,
        max_excess=float(excess[worst]),
        argmax_t=float(t_ok[worst]),
        n_violations=n_bad,
        region_end=float(t[-1]),
    )


@pytest.mark.parametrize("n_atoms, m_max", [(10, 14), (64, 8)])
def test_shared_grid_scans_equal_fresh_evaluation(n_atoms, m_max):
    table = energy_table(n_atoms, m_max)
    scanned = battery.scan(table)
    t_max = {k: first_max_time(table[k]) for k in range(1, m_max + 1)}
    for M in range(1, m_max + 1):
        for m in range(1, M + 1):
            assert check_ratio_inequality(scanned, M, m) == _fresh_report(table, t_max, (M, m))
            for m0 in range(1, m + 1):
                assert check_derivative_inequality(scanned, M, m, m0) == _fresh_report(
                    table, t_max, (M, m, m0)
                )


class TestScan:
    def test_rows_are_the_series_on_the_latest_window(self, table, scan):
        assert math.isnan(scan.t_max[0])
        assert all(type(t_max) is float for t_max in scan.t_max)
        assert scan.t_max[1:] == tuple(first_max_time(series) for series in table[1:])
        t = battery._default_grid(max(scan.t_max[1:]))
        assert scan.F.shape == scan.dF.shape == (len(table), t.size)
        for m, series in enumerate(table):
            assert np.array_equal(scan.F[m], series.value(t))
            assert np.array_equal(scan.dF[m], series_derivative(series).value(t))

    @pytest.mark.parametrize("check, indices", [
        (check_ratio_inequality, (2, 1)),
        (check_derivative_inequality, (3, 2, 1)),
    ])
    def test_a_window_shorter_than_one_step_is_empty(self, check, indices):
        report = check(window_scan(3, 0.5 * battery.GRID_STEP), *indices)
        assert (report.holds, report.n_violations, report.region_end) == (True, 0, 0.0)
        assert report.argmax_t is None


@pytest.mark.parametrize("probs", [{10: 1.0}, {3: 0.5, 12: 0.5}], ids=["floor-plus-one", "support"])
def test_delta_F_refuses_a_distribution_beyond_the_table(probs):
    # F up to M = 10 only: a mean of 10 needs F(11), and support at 12 needs F(12)
    with pytest.raises(SupportExceedsTable, match="table stops at 10"):
        delta_F(PhotonDistribution(probs), synthetic_table(range(11)), 0.1)


@pytest.mark.parametrize("check, indices", [
    (check_ratio_inequality, (1, 2)),
    (check_ratio_inequality, (2, 0)),
    (check_derivative_inequality, (1, 2, 1)),
    (check_derivative_inequality, (3, 1, 2)),
    (check_derivative_inequality, (3, 2, 0)),
    (check_ratio_inequality, (2.0, 1)),
    (check_ratio_inequality, (True, 1)),
    (check_derivative_inequality, (3, 2.0, 1)),
])
def test_inequality_indices_must_be_ordered(check, indices):
    with pytest.raises(ValueError, match="need M >= m"):
        check(window_scan(4, 0.1), *indices)


class TestEstimator:
    def test_recovers_ratio(self):
        assert estimate_photon_number(0.5, 3, 0.5) == pytest.approx(3.0)

    def test_short_time_simulation(self, table):
        t = 0.02
        e2 = table[2].value(t)
        e4 = table[4].value(t)
        est = estimate_photon_number(e2, 2, e4)
        assert 3.9 <= est <= 4.1

    def test_long_time_underestimates(self, table):
        t = 0.4
        est = estimate_photon_number(table[2].value(t), 2, table[8].value(t))
        assert est < 8.0

    def test_zero_reference_rejected(self):
        with pytest.raises(ZeroReferenceEnergy):
            estimate_photon_number(0.0, 2, 1.0)


class TestOptimality:
    def test_two_point_beats_random_distributions(self, table):
        rng = np.random.default_rng(23)
        t_grid = np.linspace(0.05, 0.45, 9)
        for nbar in (3.0, 7.5):
            opt = optimal_distribution(nbar)
            e_opt = stored_energy(opt, table, t_grid)
            for _ in range(40):
                dist = random_distribution(rng, nbar)
                e_rand = stored_energy(dist, table, t_grid)
                assert np.all(e_opt >= e_rand - 1e-9)

    def test_jensen_reduction_integer_mean(self, table):
        rng = np.random.default_rng(29)
        t = 0.3
        f10 = table[10].value(t)
        for _ in range(40):
            dist = random_distribution(rng, 10)
            assert f10 >= stored_energy(dist, table, t) - 1e-9
