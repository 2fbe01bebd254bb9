"""Tests for the manifold block Hamiltonian and its solvers."""

import numpy as np
import pytest
from scipy.optimize import brentq

from rotorchain import manifold, model
from rotorchain.errors import NoCrossingError
from rotorchain.manifold import (
    DOWN,
    PLUS,
    UP,
    ManifoldState,
    SubspaceSpectrum,
    block_eigenstate,
    build_block_hamiltonian,
    find_crossing,
    lowest_excited,
    solve_blocks,
    solve_symmetric_tridiagonal,
    spectrum_vs_field,
)
from rotorchain.model import ModelParams, bare_basis, dressed_solution, pair_dipole_operator

# crossing field for the default chain, frozen from the bisection run
CROSSING_N50_V01 = 9.13833964


def solve_uniform_tridiagonal(a: float, t: float, n: int) -> SubspaceSpectrum:
    """Closed-form spectrum of a uniform tridiagonal matrix, the analytic reference.

    lambda_k = a + 2 t cos(k pi / (n+1)), v_k(p) = sqrt(2/(n+1)) sin(p k pi / (n+1)),
    returned in ascending order.
    """
    k = np.arange(1, n + 1)
    values = a + 2.0 * t * np.cos(k * np.pi / (n + 1))
    p = np.arange(1, n + 1)
    vectors = np.sqrt(2.0 / (n + 1)) * np.sin(np.outer(p, k) * np.pi / (n + 1))
    order = np.argsort(values, kind="stable")
    return SubspaceSpectrum(label="uniform", eigenvalues=values[order], eigenvectors=vectors[:, order])


def crossing_map(params: ModelParams, e_z_grid) -> list:
    """Every level crossing between the two excitation families on a grid.

    Scans the grid for sign changes of E_plus[k] - E_one[l] over all level
    pairs and returns (plus_level, one_level, e_z) tuples with the field
    linearly interpolated inside the bracketing interval, so the accuracy is
    set by the grid spacing.  Within one family levels never cross.
    """
    e_z_grid = np.asarray(e_z_grid, dtype=float)
    gaps = []
    for e_z in e_z_grid:
        spectra = solve_blocks(build_block_hamiltonian(params.with_field(float(e_z))))
        gaps.append(spectra[PLUS].eigenvalues[:, None] - spectra[UP].eigenvalues[None, :])
    found = []
    for a in range(len(e_z_grid) - 1):
        lo, hi = gaps[a], gaps[a + 1]
        for k, l in zip(*np.nonzero(np.sign(lo) * np.sign(hi) < 0)):
            fraction = lo[k, l] / (lo[k, l] - hi[k, l])
            e_cross = e_z_grid[a] + fraction * (e_z_grid[a + 1] - e_z_grid[a])
            found.append((int(k), int(l), float(e_cross)))
    return sorted(found, key=lambda item: item[2])


class TestBuildBlockHamiltonian:
    def test_two_molecule_levels(self):
        v = 0.1
        bh = build_block_hamiltonian(ModelParams(2, v))
        spectra = solve_blocks(bh)
        rel_plus = spectra[PLUS].eigenvalues - bh.ground_energy
        rel_one = spectra[UP].eigenvalues - bh.ground_energy
        assert np.allclose(rel_plus, [2 - 2 * v / 3, 2 + 2 * v / 3], atol=1e-12)
        assert np.allclose(rel_one, [2 - v / 3, 2 + v / 3], atol=1e-12)

    def test_three_molecule_plus_band(self):
        v = 0.2
        bh = build_block_hamiltonian(ModelParams(3, v))
        rel = solve_blocks(bh)[PLUS].eigenvalues - bh.ground_energy
        # uniform-tridiagonal oracle: 2 + 2 t cos(k pi / 4) with t = -2v/3
        t = -2.0 * v / 3.0
        expected = np.sort(2.0 + 2.0 * t * np.cos(np.arange(1, 4) * np.pi / 4.0))
        assert np.allclose(rel, expected, atol=1e-12)
        assert rel[0] == pytest.approx(2.0 - 0.9428 * v, abs=1e-4 * v)

    @pytest.mark.parametrize("n", [2, 5, 11])
    def test_zero_field_hops_match_pair_operator(self, n):
        v = 0.31
        params = ModelParams(n, v)
        pair = pair_dipole_operator(bare_basis(), params)
        idx = lambda a, b: 4 * a + b
        hop_plus = pair[idx(1, 0), idx(0, 1)]
        hop_one = pair[idx(2, 0), idx(0, 2)]
        bh = build_block_hamiltonian(params)
        assert np.allclose(bh.offdiagonals[PLUS], hop_plus, atol=1e-14)
        assert np.allclose(bh.offdiagonals[UP], hop_one, atol=1e-14)
        # no field: every diagonal dipole correction vanishes
        assert np.allclose(bh.diagonals[PLUS] - bh.ground_energy, 2.0, atol=1e-14)

    def test_hone_blocks_identical(self):
        bh = build_block_hamiltonian(ModelParams(7, 0.15, 3.0))
        assert np.array_equal(bh.diagonals[UP], bh.diagonals[DOWN])
        assert np.array_equal(bh.offdiagonals[UP], bh.offdiagonals[DOWN])

    def test_edge_vs_bulk_diagonal(self):
        bh = build_block_hamiltonian(ModelParams(6, 0.1, 5.0))
        diag = bh.diagonals[PLUS]
        assert diag[0] == diag[-1]
        assert np.allclose(diag[1:-1], diag[1])
        assert diag[0] != diag[1]

    def test_small_chain_rejected(self):
        with pytest.raises(ValueError):
            ModelParams(1, 0.1)

    def test_field_dressing_solved_once(self, monkeypatch):
        calls = []
        original = model.dressed_solution

        def counting(e_z, params):
            calls.append(e_z)
            return original(e_z, params)

        monkeypatch.setattr(model, "dressed_solution", counting)
        monkeypatch.setattr(manifold, "dressed_solution", counting)
        build_block_hamiltonian(ModelParams(4, 0.1, 3.0))
        assert calls == [3.0]


class TestTridiagonalSolvers:
    def test_uniform_single_site(self):
        s = solve_uniform_tridiagonal(3.7, 0.5, 1)
        assert s.eigenvalues.tolist() == [3.7]

    def test_uniform_two_sites(self):
        s = solve_uniform_tridiagonal(0.0, -1.0, 2)
        assert np.allclose(s.eigenvalues, [-1.0, 1.0], atol=1e-14)

    def test_uniform_matches_dense_solver(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            a, t, n = rng.normal(), rng.normal(), 50
            s = solve_uniform_tridiagonal(a, t, n)
            m = np.diag(np.full(n, a)) + np.diag(np.full(n - 1, t), 1) + np.diag(np.full(n - 1, t), -1)
            dense = np.linalg.eigvalsh(m)
            assert np.max(np.abs(s.eigenvalues - dense)) < 1e-10
            gram = s.eigenvectors.T @ s.eigenvectors
            assert np.max(np.abs(gram - np.eye(n))) < 1e-10

    def test_symmetric_agrees_with_uniform(self):
        n = 17
        s1 = solve_uniform_tridiagonal(1.3, -0.4, n)
        s2 = solve_symmetric_tridiagonal(np.full(n, 1.3), np.full(n - 1, -0.4))
        assert np.max(np.abs(s1.eigenvalues - s2.eigenvalues)) < 1e-10

    def test_symmetric_two_site(self):
        s = solve_symmetric_tridiagonal([0.0, 0.0], [1.0])
        assert np.allclose(s.eigenvalues, [-1.0, 1.0], atol=1e-14)

    def test_symmetric_random_matches_dense(self):
        rng = np.random.default_rng(11)
        diag = rng.normal(size=8)
        off = rng.normal(size=7)
        s = solve_symmetric_tridiagonal(diag, off)
        m = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        assert np.max(np.abs(s.eigenvalues - np.linalg.eigvalsh(m))) < 1e-10
        h_norm = np.linalg.norm(m)
        for k in range(8):
            residual = np.linalg.norm(m @ s.eigenvectors[:, k] - s.eigenvalues[k] * s.eigenvectors[:, k])
            assert residual <= 1e-10 * h_norm

    def test_analytic_numeric_agreement_large_n(self):
        for n in (100, 200):
            s1 = solve_uniform_tridiagonal(2.0, -0.7, n)
            s2 = solve_symmetric_tridiagonal(np.full(n, 2.0), np.full(n - 1, -0.7))
            assert np.max(np.abs(s1.eigenvalues - s2.eigenvalues)) < 1e-10


class TestSpectrumScan:
    def test_row_count_and_labels(self):
        params = ModelParams(50, 0.1)
        result = spectrum_vs_field(params, [0.0])
        assert len(result.rows) == 1 + 2 * 50
        labels = {row[1] for row in result.rows}
        assert labels == {"ground", "plus", "one"}

    def test_lowest_excited_is_plus_at_zero_field(self):
        # band-edge oracle: |2 t_plus| > |2 t_one| so the plus band dips lower
        params = ModelParams(50, 0.1)
        spectra = solve_blocks(build_block_hamiltonian(params))
        label, _ = lowest_excited(spectra)
        assert label == PLUS
        assert spectra[PLUS].eigenvalues[0] < spectra[UP].eigenvalues[0]

    def test_large_field_one_below_plus(self):
        params = ModelParams(50, 0.1, 25.0)
        spectra = solve_blocks(build_block_hamiltonian(params))
        assert spectra[UP].eigenvalues[-1] < spectra[PLUS].eigenvalues[0]

    def test_hone_levels_block_independent(self):
        spectra = solve_blocks(build_block_hamiltonian(ModelParams(9, 0.1, 4.0)))
        assert np.array_equal(spectra[UP].eigenvalues, spectra[DOWN].eigenvalues)

    def test_double_degeneracy_in_combined_spectrum(self):
        spectra = solve_blocks(build_block_hamiltonian(ModelParams(8, 0.1, 2.0)))
        combined = np.sort(np.concatenate([spectra[UP].eigenvalues, spectra[DOWN].eigenvalues]))
        assert np.max(np.abs(combined[0::2] - combined[1::2])) < 1e-12

    def test_no_crossing_inside_blocks_over_grid(self):
        params = ModelParams(20, 0.1)
        for e_z in np.linspace(0.0, 20.0, 101):
            spectra = solve_blocks(build_block_hamiltonian(params.with_field(e_z)))
            for label in (PLUS, UP):
                gaps = np.diff(spectra[label].eigenvalues)
                assert np.all(gaps > 0)

    def test_grid_validation(self):
        params = ModelParams(4, 0.1)
        with pytest.raises(ValueError):
            spectrum_vs_field(params, [])
        with pytest.raises(ValueError):
            spectrum_vs_field(params, [1.0, 0.5])

    def test_parallel_workers_match_serial(self):
        params = ModelParams(6, 0.1)
        grid = np.linspace(0.0, 4.0, 5)
        serial = spectrum_vs_field(params, grid, workers=1)
        parallel = spectrum_vs_field(params, grid, workers=2)
        assert serial.rows == parallel.rows


class TestFindCrossing:
    def test_two_molecule_against_analytic_root(self):
        v = 0.1
        params = ModelParams(2, v)

        def analytic_gap(e_z):
            # single bond, both sites are edges; cos-matrix elements give
            # <-|c|->^2 = sin^2(2 phi)/3 and <-|c|+>^2 = cos^2(2 phi)/3
            sol = dressed_solution(e_z, params)
            s2 = (2.0 * sol.sin_phi * sol.cos_phi) ** 2
            c2 = (sol.cos_phi**2 - sol.sin_phi**2) ** 2
            min_plus = 2.0 * sol.lam + (4.0 * v / 3.0) * s2 - (2.0 * v / 3.0) * c2
            min_one = 1.0 + sol.lam + (2.0 * v / 3.0) * s2 - (v / 3.0) * sol.cos_phi**2
            return min_plus - min_one

        oracle = brentq(analytic_gap, 1e-6, 30.0, xtol=1e-12)
        found = find_crossing(params, 1e-6, 30.0)
        assert found == pytest.approx(oracle, abs=1e-8)

    def test_default_chain_regression(self):
        star = find_crossing(ModelParams(50, 0.1), 1e-3, 30.0)
        assert star == pytest.approx(CROSSING_N50_V01, abs=1e-6)
        # the located field really flips the ordering
        below = solve_blocks(build_block_hamiltonian(ModelParams(50, 0.1, star - 1e-3)))
        above = solve_blocks(build_block_hamiltonian(ModelParams(50, 0.1, star + 1e-3)))
        assert below[PLUS].eigenvalues[0] < below[UP].eigenvalues[0]
        assert above[PLUS].eigenvalues[0] > above[UP].eigenvalues[0]

    def test_gap_tolerance_met(self):
        params = ModelParams(10, 0.1)
        star = find_crossing(params, 1e-3, 30.0)
        spectra = solve_blocks(build_block_hamiltonian(params.with_field(star)))
        assert abs(spectra[PLUS].eigenvalues[0] - spectra[UP].eigenvalues[0]) <= 1e-10

    def test_no_sign_change_raises(self):
        with pytest.raises(NoCrossingError):
            find_crossing(ModelParams(50, 0.1), 20.0, 30.0)

    def test_unreachable_tolerance_raises(self):
        """tol = 0: the bracket shrinks to adjacent floats with |gap| ~ 1e-16 left, which is not a crossing."""
        bracket = r"stopped at bracket \[9\.13833964\d*, 9\.13833964\d*\] with last \|gap\| = "
        with pytest.raises(NoCrossingError, match=bracket):
            find_crossing(ModelParams(50, 0.1), 1e-3, 30.0, tol=0.0)

    def test_crossing_map_contains_lowest_pair(self):
        params = ModelParams(4, 0.1)
        star = find_crossing(params, 1e-3, 30.0)
        found = crossing_map(params, np.linspace(0.0, 20.0, 401))
        lowest = [e for k, l, e in found if k == 0 and l == 0]
        assert len(lowest) == 1
        assert lowest[0] == pytest.approx(star, abs=0.05)
        # exactly the pairs that start with the plus level below the one
        # level cross (once); at large fields the families are fully swapped
        zero_field = solve_blocks(build_block_hamiltonian(params))
        expected = sum(
            1
            for ep in zero_field[PLUS].eigenvalues
            for eo in zero_field[UP].eigenvalues
            if ep < eo
        )
        assert len(found) == expected
        assert [e for _, _, e in found] == sorted(e for _, _, e in found)


class TestManifoldState:
    def test_norm_validation(self):
        params = ModelParams(3, 0.1)
        with pytest.raises(ValueError):
            ManifoldState(params, 0.5, {})
        amps = np.zeros(3, dtype=complex)
        amps[0] = 1.0
        state = ManifoldState(params, 0.0, {PLUS: amps})
        vec = state.vector()
        assert vec.shape == (10,)
        assert vec[1] == 1.0

    def test_block_eigenstate_roundtrip(self):
        params = ModelParams(4, 0.1, 1.0)
        spectra = solve_blocks(build_block_hamiltonian(params))
        state = block_eigenstate(params, spectra[PLUS], 0)
        assert abs(np.linalg.norm(state.vector()) - 1.0) < 1e-12
