"""Tests for the manifold Boltzmann ensemble."""

import numpy as np
import pytest

from rotorchain.entanglement import one_vs_rest_L
from rotorchain.model import ModelParams
from rotorchain.oracle import embed_manifold_density, full_one_vs_rest_L, full_pair_L
from rotorchain.entanglement import log_negativity, pair_reduced
from rotorchain.thermal import (
    ThermalSpec,
    evaluate_observable,
    parse_observable,
    thermal_scan,
    thermal_state,
    truncation_weight_bound,
)


class TestThermalState:
    def test_low_temperature_limit_is_ground(self):
        params = ModelParams(4, 0.1)
        rho = thermal_state(ThermalSpec(0.01, params))
        assert rho.weights[0] == pytest.approx(1.0, abs=1e-12)
        for p in range(1, 5):
            assert one_vs_rest_L(rho, p) == 0.0

    def test_high_temperature_limit_is_uniform(self):
        params = ModelParams(3, 0.1, 0.5)
        rho = thermal_state(ThermalSpec(1e7, params))
        assert np.max(np.abs(rho.weights - 1.0 / 10.0)) < 1e-6

    def test_two_molecule_weights_hand_computed(self):
        # seven-term partition function from the analytic N=2 energies
        v, t = 0.1, 0.5
        params = ModelParams(2, v)
        rho = thermal_state(ThermalSpec(t, params))
        energies = np.array([
            0.0,
            2 - 2 * v / 3, 2 + 2 * v / 3,
            2 - v / 3, 2 + v / 3,
            2 - v / 3, 2 + v / 3,
        ])
        hand = np.exp(-energies / t)
        hand /= hand.sum()
        assert np.max(np.abs(np.sort(rho.weights) - np.sort(hand))) < 1e-12

    def test_degenerate_pairs_bit_equal_weights(self):
        params = ModelParams(5, 0.2, 4.0)
        rho = thermal_state(ThermalSpec(0.7, params))
        n = params.n_molecules
        w_up = rho.weights[1 + n: 1 + 2 * n]
        w_down = rho.weights[1 + 2 * n: 1 + 3 * n]
        assert np.array_equal(w_up, w_down)

    def test_weights_normalized_and_positive(self):
        for t in (0.2, 0.6, 1.2):
            for e_z in (0.0, 5.0, 12.0):
                rho = thermal_state(ThermalSpec(t, ModelParams(6, 0.1, e_z)))
                assert np.all(rho.weights >= 0)
                assert abs(rho.weights.sum() - 1.0) < 1e-12

    def test_temperature_must_be_positive(self):
        with pytest.raises(ValueError):
            ThermalSpec(0.0, ModelParams(2, 0.1))
        with pytest.raises(ValueError):
            ThermalSpec(-1.0, ModelParams(2, 0.1))

    def test_truncation_bound(self):
        spec = ThermalSpec(0.5, ModelParams(2, 0.1))
        assert truncation_weight_bound(spec) == pytest.approx(np.exp(-8.0), rel=1e-12)


class TestBruteForceAgreement:
    @pytest.mark.parametrize("n", [3, 4])
    def test_matches_full_space_on_same_manifold(self, n):
        params = ModelParams(n, 0.1, 1.0)
        rho = thermal_state(ThermalSpec(0.8, params))
        weights, vectors = embed_manifold_density(rho)
        center = n // 2 + 1
        assert one_vs_rest_L(rho, center) == pytest.approx(
            full_one_vs_rest_L(weights, vectors, n, center), abs=1e-10
        )
        manifold_pair = log_negativity(pair_reduced(rho, 1, 2), ((0,), (1,)))
        assert manifold_pair == pytest.approx(full_pair_L(weights, vectors, n, 1, 2), abs=1e-10)


class TestThermalScan:
    def test_single_point_grid(self):
        result = thermal_scan(ModelParams(3, 0.1), [0.5], [1.0], ("jzvar",))
        assert len(result.rows) == 1
        assert result.rows[0][2] == "jzvar"

    def test_row_ordering(self):
        result = thermal_scan(ModelParams(3, 0.1), [0.4, 0.8], [0.0, 2.0], ("lprime", 2))
        keys = [(row[0], row[1]) for row in result.rows]
        assert keys == [(0.4, 0.0), (0.4, 2.0), (0.8, 0.0), (0.8, 2.0)]

    def test_interior_maximum_in_temperature(self):
        # fixed small field: entanglement rises from the ground state, then
        # fades toward the uniform manifold mixture
        params = ModelParams(10, 0.1)
        t_grid = np.linspace(0.2, 1.2, 20)
        result = thermal_scan(params, t_grid, [0.0], ("lprime", 6))
        values = np.array([row[3] for row in result.rows])
        peak = int(np.argmax(values))
        assert 0 < peak < len(values) - 1
        assert np.all(np.diff(values[: peak + 1]) > 0)
        assert np.all(np.diff(values[peak:]) < 0)

    def test_field_trend_across_crossing(self):
        # fixed temperature: larger fields favor the less entangled levels
        params = ModelParams(10, 0.1)
        result = thermal_scan(params, [0.8], [0.0, 14.0], ("lprime", 6))
        before, after = result.rows[0][3], result.rows[1][3]
        assert after < before

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            thermal_scan(ModelParams(3, 0.1), [], [0.0], ("jzvar",))

    def test_field_grid_validation(self):
        with pytest.raises(ValueError):
            thermal_scan(ModelParams(3, 0.1), [0.5], [], ("jzvar",))
        with pytest.raises(ValueError):
            thermal_scan(ModelParams(3, 0.1), [0.5], [1.0, 0.5], ("jzvar",))

    def test_parallel_workers_match_serial(self):
        params = ModelParams(4, 0.1)
        a = thermal_scan(params, [0.5, 0.9], [0.0, 1.0], ("lprime", 2), workers=1)
        b = thermal_scan(params, [0.5, 0.9], [0.0, 1.0], ("lprime", 2), workers=2)
        assert a.rows == b.rows


class TestMonotoneFlattening:
    def test_relative_field_sensitivity_decreases(self):
        # N = 10 regression grid; the absolute max |dL'/de_z| peaks together
        # with the thermal maximum of L' itself, so the flattening statement
        # is pinned to the field sensitivity relative to the level: that
        # ratio decreases monotonically across the window
        params = ModelParams(10, 0.1)
        t_grid = np.linspace(0.2, 1.2, 11)
        ez_grid = np.linspace(0.0, 15.0, 16)
        result = thermal_scan(params, t_grid, ez_grid, ("lprime", 6))
        values = np.array([row[3] for row in result.rows]).reshape(len(t_grid), len(ez_grid))
        step = ez_grid[1] - ez_grid[0]
        sensitivity = np.abs(np.diff(values, axis=1)).max(axis=1) / step
        relative = sensitivity / values.max(axis=1)
        upper = relative[t_grid >= 0.6]
        assert np.all(np.diff(upper) < 0)


def test_parse_observable():
    assert parse_observable("jzvar") == ("jzvar",)
    assert parse_observable("lprime:26") == ("lprime", 26)
    assert parse_observable("ld:10") == ("ld", 10)
    with pytest.raises(ValueError):
        parse_observable("lprime")
    with pytest.raises(ValueError):
        parse_observable("entropy:3")
    with pytest.raises(ValueError, match="jzvar:3"):
        parse_observable("jzvar:3")


def test_evaluate_observable_dispatch():
    params = ModelParams(3, 0.1)
    rho = thermal_state(ThermalSpec(0.5, params))
    assert evaluate_observable(rho, ("jzvar",)) >= 0.0
    assert evaluate_observable(rho, ("ld", 1)) >= 0.0
    with pytest.raises(ValueError):
        evaluate_observable(rho, ("purity",))
