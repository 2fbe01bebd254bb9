"""Tests for the full-Hilbert-space reference solver."""

import numpy as np
import pytest

from rotorchain.entanglement import DensityMatrix, branch_density, log_negativity
from rotorchain.errors import ResourceLimitError
from rotorchain.manifold import build_block_hamiltonian, lowest_excited, solve_blocks
from rotorchain.model import ModelParams, bare_basis, site_operator
from rotorchain.oracle import (
    dense_eigensolve,
    embed_manifold_density,
    full_hamiltonian,
    full_one_vs_rest_L,
    full_pair_L,
    full_split_density,
    validate_manifold,
)

# frozen after the first calibration run: worst measured eigenvalue
# deviation over N in {3,4}, v in {0.02,0.05}, e_z in {0,0.5,2} was 0.502 v^2
EIGENVALUE_DEV_CONSTANT = 0.75

# regression: log-negativity of the exact N=3 ground state at v=0.05; the
# admixture of two-excitation components is first order in v, so this sits
# far above a naive second-order estimate
GROUND_LPRIME_N3_V005 = 0.0669


def full_jz(n: int) -> np.ndarray:
    """Total axial angular momentum operator on the 4^N product space."""
    jz1 = site_operator("jz", bare_basis()).matrix
    return sum(np.kron(np.kron(np.eye(4**i), jz1), np.eye(4 ** (n - i - 1))) for i in range(n))


def dense_split_density(weights, vectors, n, p, others) -> DensityMatrix:
    """Site p against `others` in the product basis: 4 x 4^len(others), the rest traced."""
    perm = [p - 1] + [q - 1 for q in others]
    perm += [ax for ax in range(n) if ax not in perm]
    d = 4 ** (1 + len(others))
    rho = np.zeros((d, d), dtype=vectors.dtype)
    for w, vec in zip(weights, vectors.T):
        t = vec.reshape((4,) * n).transpose(perm).reshape(d, -1)
        rho += w * (t @ t.conj().T)
    return DensityMatrix(dims=(4, d // 4), matrix=rho)


class TestFullHamiltonian:
    def test_free_limit_degeneracies(self):
        h = full_hamiltonian(ModelParams(2, 1e-12))
        values = np.linalg.eigvalsh(h)
        expected = np.sort([0.0] + [2.0] * 6 + [4.0] * 9)
        assert np.max(np.abs(values - expected)) < 1e-10

    def test_two_molecule_excited_levels_exact(self):
        v = 0.1
        h = full_hamiltonian(ModelParams(2, v))
        values = np.linalg.eigvalsh(h)
        one_excitation = values[1:7]
        expected = np.sort([2 - 2 * v / 3, 2 - v / 3, 2 - v / 3, 2 + v / 3, 2 + v / 3, 2 + 2 * v / 3])
        assert np.max(np.abs(one_excitation - expected)) < 1e-10

    def test_hermitian(self):
        h = full_hamiltonian(ModelParams(3, 0.2, 1.0))
        assert np.max(np.abs(h - h.conj().T)) < 1e-12

    def test_total_m_conservation(self):
        for n in (3, 5):
            params = ModelParams(n, 0.1, 0.7)
            h = full_hamiltonian(params)
            jz = full_jz(n)
            assert np.max(np.abs(h @ jz - jz @ h)) < 1e-12

    @pytest.mark.parametrize("n", [3, 5])
    def test_m_sector_elements_exactly_zero(self, n):
        h = full_hamiltonian(ModelParams(n, 0.1, 0.5))
        jz = np.diag(full_jz(n))
        zero_sector = np.where(jz == 0.0)[0]
        for m in (1.0, -1.0):
            one_sector = np.where(jz == m)[0]
            assert np.all(h[np.ix_(zero_sector, one_sector)] == 0.0)

    def test_resource_guard(self):
        with pytest.raises(ResourceLimitError):
            full_hamiltonian(ModelParams(7, 0.1))


class TestDenseEigensolve:
    def test_diagonal_input(self):
        values, _ = dense_eigensolve(np.diag([3.0, -1.0, 2.0]))
        assert values.tolist() == [-1.0, 2.0, 3.0]

    def test_two_by_two(self):
        values, _ = dense_eigensolve(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(values, [-1.0, 1.0], atol=1e-14)

    def test_reconstruction_identity(self):
        rng = np.random.default_rng(12)
        a = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
        h = a + a.conj().T
        values, vectors = dense_eigensolve(h)
        reconstructed = (vectors * values) @ vectors.conj().T
        assert np.linalg.norm(reconstructed - h) <= 1e-9 * np.linalg.norm(h)

    def test_dimension_guard(self):
        with pytest.raises(ResourceLimitError):
            dense_eigensolve(np.zeros((4097, 4097)))


class TestValidateManifold:
    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("v", [0.02, 0.05])
    @pytest.mark.parametrize("e_z", [0.0, 0.5, 2.0])
    def test_eigenvalues_within_frozen_bound(self, n, v, e_z):
        report = validate_manifold(ModelParams(n, v, e_z))
        assert report.max_eigenvalue_dev <= EIGENVALUE_DEV_CONSTANT * v**2

    def test_interaction_free_limit(self):
        report = validate_manifold(ModelParams(3, 1e-12, 0.0))
        assert report.max_eigenvalue_dev < 1e-12

    def test_same_state_two_representations(self):
        report = validate_manifold(ModelParams(4, 0.05, 0.5))
        assert report.same_state_negativity_dev <= 1e-10

    def test_ground_lprime_regression_first_order(self):
        report = validate_manifold(ModelParams(3, 0.05, 0.0))
        assert report.ground_lprime_max == pytest.approx(GROUND_LPRIME_N3_V005, abs=2e-4)
        half = validate_manifold(ModelParams(3, 0.025, 0.0))
        # halving v halves the value: the residual is O(v), not O(v^2)
        assert report.ground_lprime_max / half.ground_lprime_max == pytest.approx(2.0, abs=0.1)

    def test_m_sector_degeneracy(self):
        # Jz is diagonal in the product basis, so H splits into exact m
        # blocks; the m = +1 and m = -1 blocks must share their spectra
        params = ModelParams(3, 0.1, 1.0)
        h = full_hamiltonian(params)
        m_labels = np.diag(full_jz(params.n_molecules))
        plus_idx = np.where(m_labels == 1.0)[0]
        minus_idx = np.where(m_labels == -1.0)[0]
        plus_levels = np.linalg.eigvalsh(h[np.ix_(plus_idx, plus_idx)])
        minus_levels = np.linalg.eigvalsh(h[np.ix_(minus_idx, minus_idx)])
        assert np.max(np.abs(plus_levels - minus_levels)) < 1e-9

    def test_size_guard(self):
        # the full Hamiltonian's MAX_FULL_CHAIN guard is validate's only limit
        with pytest.raises(ResourceLimitError):
            validate_manifold(ModelParams(7, 0.05))

    def test_report_serializable(self):
        report = validate_manifold(ModelParams(3, 0.05, 0.5))
        d = report.to_dict()
        assert set(d) >= {
            "max_eigenvalue_dev",
            "ground_lprime_max",
            "same_state_negativity_dev",
            "matched_lprime_dev",
        }


def test_full_one_vs_rest_on_bell_pair():
    # two sites, pure Bell-like state |10,00> + |00,10>
    psi = np.zeros(16)
    psi[4 * 1 + 0] = psi[0 * 4 + 1] = 1.0 / np.sqrt(2.0)
    value = full_one_vs_rest_L(np.array([1.0]), psi[:, None], 2, 1)
    assert value == pytest.approx(1.0, abs=1e-12)


class TestFullSplitDensity:
    """The support-basis split against the dense product-basis one."""

    @staticmethod
    def mixtures(params):
        _, vectors = dense_eigensolve(full_hamiltonian(params))
        spectra = solve_blocks(build_block_hamiltonian(params))
        rng = np.random.default_rng(params.n_molecules)
        generic = rng.normal(size=(vectors.shape[0], 2)) + 1j * rng.normal(size=(vectors.shape[0], 2))
        return {
            "ground": (np.array([1.0]), vectors[:, [0]]),
            "excited": (np.array([1.0]), vectors[:, [2]]),
            "two-level": (np.array([0.7, 0.3]), vectors[:, [0, 1]]),
            "branch": embed_manifold_density(branch_density(params, spectra, lowest_excited(spectra)[0])),
            "complex": (np.array([0.5, 0.5]), generic / np.linalg.norm(generic, axis=0)),
        }

    @pytest.mark.parametrize("n,e_z", [(3, 0.0), (3, 12.0), (4, 0.0), (4, 12.0), (5, 12.0)])
    def test_matches_dense_split(self, n, e_z):
        for weights, vectors in self.mixtures(ModelParams(n, 0.1, e_z)).values():
            for p in range(1, n + 1):
                rest = [q for q in range(1, n + 1) if q != p]
                split = full_split_density(weights, vectors, n, p, rest)
                assert split.dims[0] == 4 and split.dims[1] <= 4 * len(weights)
                splits = [(rest, full_one_vs_rest_L(weights, vectors, n, p))]
                splits += [([j], full_pair_L(weights, vectors, n, p, j)) for j in rest]
                for others, value in splits:
                    reference = log_negativity(dense_split_density(weights, vectors, n, p, others), ((0,), (1,)))
                    assert value == pytest.approx(reference, abs=1e-12)
                    assert (value == 0.0) == (reference == 0.0)
