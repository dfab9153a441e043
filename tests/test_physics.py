"""Physics model tests against hand-derived values and grid oracles."""

import math

import pytest

from aoi_uav.physics import (
    ChannelParams,
    LaserParams,
    PhysicsDomainError,
    PropulsionParams,
    laser_power_received,
    los_probability,
    optimal_speed,
    propulsion_power,
    transmission_rate,
)

CH = ChannelParams()
LA = LaserParams()
PR = PropulsionParams()

# Frozen by direct evaluation of the closed forms (independent of the module).
PLOS_AT_90 = 0.999975074537903
RATE_OVERHEAD_80M = 10610534.754162503
LASER_OVERHEAD_80M = 149.9880004799872
LASER_EDGE_250_80 = 149.9606319528027
POWER_AT_5 = 48.317043489296964
HAND_POWER_AT_5 = 48.32  # three-term hand sum: 14.925 + 32.79 + 0.601


class TestLosProbability:
    def test_at_b1_exponent_vanishes(self):
        assert los_probability(CH.b1, CH.b1, CH.b2) == pytest.approx(1.0 / (1.0 + CH.b1), abs=1e-15)

    def test_at_zenith(self):
        assert los_probability(90.0, 9.61, 0.16) == pytest.approx(PLOS_AT_90, abs=1e-12)

    def test_monotone_in_elevation(self):
        assert los_probability(60.0, CH.b1, CH.b2) > los_probability(20.0, CH.b1, CH.b2)

    def test_strictly_increasing_on_grid(self):
        grid = [los_probability(t, CH.b1, CH.b2) for t in range(0, 91, 1)]
        assert all(a < b for a, b in zip(grid, grid[1:]))

    def test_domain_error(self):
        with pytest.raises(PhysicsDomainError):
            los_probability(-1.0, CH.b1, CH.b2)
        with pytest.raises(PhysicsDomainError):
            los_probability(90.5, CH.b1, CH.b2)


class TestTransmissionRate:
    def test_directly_overhead(self):
        rate = transmission_rate(CH, 0.0, 80.0)
        assert rate == pytest.approx(RATE_OVERHEAD_80M, rel=1e-9)

    def test_zero_tx_power(self):
        ch = ChannelParams(tx_power_w=0.0)
        assert transmission_rate(ch, 100.0, 80.0) == 0.0

    def test_rate_nonnegative_and_zero_iff_no_power(self):
        assert transmission_rate(CH, 5000.0, 80.0) > 0.0

    def test_decreasing_in_horizontal_distance(self):
        rates = [transmission_rate(CH, d, 80.0) for d in range(0, 501, 50)]
        assert all(a > b for a, b in zip(rates, rates[1:]))


class TestLaserPower:
    def test_directly_overhead(self):
        assert laser_power_received(LA, 0.0, 80.0) == pytest.approx(LASER_OVERHEAD_80M, abs=1e-9)

    def test_no_attenuation(self):
        la = LaserParams(attenuation_per_m=0.0)
        assert laser_power_received(la, 123.0, 80.0) == LA.power_w * LA.conversion_eff

    def test_charging_area_edge(self):
        assert laser_power_received(LA, 250.0, 80.0) == pytest.approx(LASER_EDGE_250_80, abs=1e-9)

    def test_decreasing_in_slant_distance(self):
        powers = [laser_power_received(LA, d, 80.0) for d in range(0, 501, 25)]
        assert all(a > b for a, b in zip(powers, powers[1:]))


class TestPropulsionPower:
    def test_hover_is_exact_sum(self):
        p0 = propulsion_power(PR, 0.0)
        assert p0 == PR.blade_power_w + PR.induced_power_w

    def test_at_five_matches_hand_derivation(self):
        p5 = propulsion_power(PR, 5.0)
        assert p5 == pytest.approx(POWER_AT_5, rel=1e-12)
        assert abs(p5 - HAND_POWER_AT_5) / HAND_POWER_AT_5 < 0.005

    def test_parasite_term_at_unit_speed(self):
        # P(1) - blade(1) - induced(1) equals the bare cubic coefficient.
        coeff = 0.5 * PR.drag_ratio * PR.air_density * PR.rotor_solidity * PR.rotor_area
        blade = PR.blade_power_w * (1.0 + 3.0 / PR.tip_speed**2)
        v0sq = PR.hover_induced_speed**2
        induced = PR.induced_power_w * math.sqrt(
            math.sqrt(1.0 + 1.0 / (4.0 * v0sq * v0sq)) - 1.0 / (2.0 * v0sq))
        assert propulsion_power(PR, 1.0) - blade - induced == pytest.approx(coeff, abs=1e-12)

    def test_midpoint_convexity_above_five(self):
        # Convex only past ~4.8 m/s; below that the curve is concave (the
        # induced-power term dominates with -P_beta/(2 v0^2) curvature).
        grid = [5.0 + i * (25.0 / 299) for i in range(300)]
        for a, b in zip(grid, grid[2:]):
            mid = 0.5 * (a + b)
            assert propulsion_power(PR, mid) <= (
                0.5 * (propulsion_power(PR, a) + propulsion_power(PR, b)) + 1e-9)

    def test_unimodal_on_search_interval(self):
        # Strictly decreasing up to the optimum, strictly increasing after;
        # this is what validates the golden-section search.
        vals = [propulsion_power(PR, 0.01 + i * (29.99 / 599)) for i in range(600)]
        diffs = [b - a for a, b in zip(vals, vals[1:])]
        sign_changes = sum(
            1 for d0, d1 in zip(diffs, diffs[1:]) if (d0 < 0) != (d1 < 0))
        assert sign_changes == 1

    def test_negative_speed_rejected(self):
        with pytest.raises(PhysicsDomainError):
            propulsion_power(PR, -0.1)


class TestOptimalSpeed:
    def _grid_argmin(self, v_max, step=0.01):
        best_v, best_p = 0.0, propulsion_power(PR, 0.0)
        n = int(round(v_max / step))
        for i in range(n + 1):
            v = i * step
            p = propulsion_power(PR, v)
            if p < best_p:
                best_v, best_p = v, p
        return best_v

    def test_matches_grid_scan(self):
        v_e = optimal_speed(PR, 30.0, 0.01)
        assert abs(v_e - self._grid_argmin(30.0)) <= 0.01 + 1e-9

    def test_minimizer_property(self):
        v_e = optimal_speed(PR, 30.0, 0.01)
        p_e = propulsion_power(PR, v_e)
        assert p_e <= propulsion_power(PR, 0.0)
        assert p_e <= propulsion_power(PR, 30.0)
