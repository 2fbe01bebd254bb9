"""Tests for reduced densities, negativity and the Jz variance."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from rotorchain.entanglement import (
    DensityMatrix,
    ManifoldDensity,
    SpectralMixture,
    branch_density,
    jz_variance,
    log_negativity,
    lowest_excited_density,
    lowest_excited_rows,
    one_vs_rest_L,
    pair_reduced,
    pairwise_L_sum,
    partial_transpose,
    split_density,
)
from rotorchain.manifold import (
    BLOCKS,
    DOWN,
    PLUS,
    UP,
    ManifoldState,
    block_eigenstate,
    SubspaceSpectrum,
    build_block_hamiltonian,
    lowest_excited,
    solve_blocks,
)
from rotorchain.model import ModelParams
from rotorchain.oracle import embed_manifold_density, embed_manifold_state, full_one_vs_rest_L, full_pair_L
from rotorchain.thermal import ThermalSpec, thermal_state


def bell_density():
    psi = np.zeros(4)
    psi[1] = 1.0 / np.sqrt(2.0)
    psi[2] = -1.0 / np.sqrt(2.0)
    return DensityMatrix((2, 2), np.outer(psi, psi))


def random_product_density(rng, dims):
    factors = []
    for d in dims:
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = a @ a.conj().T
        factors.append(rho / np.trace(rho))
    out = factors[0]
    for f in factors[1:]:
        out = np.kron(out, f)
    return DensityMatrix(dims, out)


def random_separable_density(rng, dims, terms=3):
    weights = rng.dirichlet(np.ones(terms))
    total = np.zeros((int(np.prod(dims)), int(np.prod(dims))), dtype=complex)
    for w in weights:
        total += w * random_product_density(rng, dims).matrix
    return DensityMatrix(dims, total)


@st.composite
def manifold_states(draw, params):
    """Normalized manifold state over a random set of flavors and amplitudes."""
    n = params.n_molecules
    flavors = draw(st.sets(st.sampled_from(BLOCKS)))
    parts = st.floats(-1.0, 1.0)
    amplitude = st.builds(complex, parts, parts)
    ground = draw(amplitude) if draw(st.booleans()) else 0.0
    amps = {f: np.array(draw(st.lists(amplitude, min_size=n, max_size=n))) for f in flavors}
    norm = np.sqrt(abs(ground) ** 2 + sum(np.sum(np.abs(a) ** 2) for a in amps.values()))
    assume(norm > 1e-3)
    return ManifoldState(params, ground / norm, {f: a / norm for f, a in amps.items()})


@st.composite
def manifold_mixtures(draw):
    """A mixture of random manifold states, or a thermal state, on N <= 4."""
    n = draw(st.integers(2, 4))
    params = ModelParams(n, draw(st.floats(0.02, 0.2)), draw(st.floats(0.0, 20.0)))
    if draw(st.booleans()):
        return thermal_state(ThermalSpec(draw(st.floats(0.1, 2.0)), params))
    k = draw(st.integers(1, 3))
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k)))
    states = [draw(manifold_states(params)) for _ in range(k)]
    return ManifoldDensity.mixture(weights / weights.sum(), states)


class TestDensityMatrixValidation:
    def test_trace_enforced(self):
        with pytest.raises(ValueError):
            DensityMatrix((2,), np.eye(2))

    def test_hermiticity_enforced(self):
        m = np.array([[0.5, 0.1], [0.3, 0.5]])
        with pytest.raises(ValueError):
            DensityMatrix((2,), m)

    def test_positivity_enforced(self):
        m = np.diag([1.5, -0.5])
        with pytest.raises(ValueError):
            DensityMatrix((2,), m)

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            DensityMatrix((2, 2), np.eye(2) / 2)


class TestPartialTranspose:
    def test_bell_eigenvalues(self):
        # textbook 4x4 hand computation: {1/2, 1/2, 1/2, -1/2}
        pt = partial_transpose(bell_density(), 1)
        assert np.allclose(np.sort(np.linalg.eigvalsh(pt)), [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_product_state_spectrum_unchanged(self):
        rng = np.random.default_rng(3)
        rho = random_product_density(rng, (2, 3))
        before = np.sort(np.linalg.eigvalsh(rho.matrix))
        after = np.sort(np.linalg.eigvalsh(partial_transpose(rho, 0)))
        assert np.allclose(before, after, atol=1e-12)

    def test_involution(self):
        rng = np.random.default_rng(4)
        rho = random_separable_density(rng, (2, 2, 3))
        for subsystem in range(3):
            once = partial_transpose(rho, subsystem)
            twice = partial_transpose(DensityMatrix(rho.dims, once), subsystem)
            assert np.array_equal(twice, rho.matrix)

    def test_trace_and_hermiticity_preserved(self):
        rng = np.random.default_rng(5)
        rho = random_separable_density(rng, (4, 4))
        pt = partial_transpose(rho, 1)
        assert abs(np.trace(pt) - 1.0) < 1e-12
        assert np.max(np.abs(pt - pt.conj().T)) < 1e-12

    def test_bad_subsystem(self):
        with pytest.raises(ValueError):
            partial_transpose(bell_density(), 2)


class TestLogNegativity:
    def test_bell_state(self):
        assert log_negativity(bell_density(), ((0,), (1,))) == pytest.approx(1.0, abs=1e-12)

    def test_product_states_vanish(self):
        rng = np.random.default_rng(6)
        for dims in ((2, 2), (3, 4), (4, 4)):
            rho = random_product_density(rng, dims)
            assert log_negativity(rho, ((0,), (1,))) == 0.0

    def test_separable_mixtures_vanish(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            rho = random_separable_density(rng, (2, 4))
            assert log_negativity(rho, ((0,), (1,))) == 0.0

    def test_bipartition_symmetry(self):
        rng = np.random.default_rng(8)
        rho = random_separable_density(rng, (3, 3))
        psi = np.zeros(9)
        psi[0] = psi[4] = 1 / np.sqrt(2)
        mixed = DensityMatrix((3, 3), 0.5 * rho.matrix + 0.5 * np.outer(psi, psi))
        a = log_negativity(mixed, ((0,), (1,)))
        b = log_negativity(mixed, ((1,), (0,)))
        assert a == pytest.approx(b, abs=1e-12)

    def test_bipartition_must_cover(self):
        with pytest.raises(ValueError):
            log_negativity(bell_density(), ((0,), ()))


class TestPairReduced:
    def test_two_molecules_nothing_traced(self):
        params = ModelParams(2, 0.1)
        spectra = solve_blocks(build_block_hamiltonian(params))
        rho = ManifoldDensity.pure(block_eigenstate(params, spectra[PLUS], 0))
        reduced = pair_reduced(rho, 1, 2)
        # nothing is traced out: the lowest plus level at N=2 is the pure
        # Bell-like projector onto (|+,-> + |-,+>)/sqrt(2)
        psi = np.zeros(16)
        psi[4 * 1 + 0] = psi[1] = 1.0 / np.sqrt(2.0)
        assert np.allclose(reduced.matrix, np.outer(psi, psi), atol=1e-12)

    def test_ground_state_is_product(self):
        params = ModelParams(5, 0.1)
        rho = ManifoldDensity.pure(ManifoldState(params, 1.0, {}))
        reduced = pair_reduced(rho, 2, 4)
        expected = np.zeros((16, 16))
        expected[0, 0] = 1.0
        assert np.allclose(reduced.matrix, expected, atol=1e-15)

    def test_against_full_space_partial_trace(self):
        # uniform one-excitation state on three molecules, plus flavor
        params = ModelParams(3, 0.1)
        amps = np.full(3, 1.0 / np.sqrt(3.0), dtype=complex)
        state = ManifoldState(params, 0.0, {PLUS: amps})
        rho = ManifoldDensity.pure(state)
        reduced = pair_reduced(rho, 1, 2)

        vec = embed_manifold_state(state)
        t = vec.reshape(4, 4, 4)
        oracle = np.tensordot(t, t.conj(), axes=([2], [2])).reshape(16, 16)
        assert np.max(np.abs(reduced.matrix - oracle)) < 1e-12

    def test_index_validation(self):
        params = ModelParams(3, 0.1)
        rho = ManifoldDensity.pure(ManifoldState(params, 1.0, {}))
        with pytest.raises(ValueError):
            pair_reduced(rho, 2, 2)
        with pytest.raises(ValueError):
            pair_reduced(rho, 0, 2)


class TestObservables:
    def test_two_molecule_paper_values(self):
        params = ModelParams(2, 0.1)
        spectra = solve_blocks(build_block_hamiltonian(params))
        pure = ManifoldDensity.pure(block_eigenstate(params, spectra[PLUS], 0))
        assert pairwise_L_sum(pure, 1) == pytest.approx(1.0, abs=1e-12)
        assert one_vs_rest_L(pure, 1) == pytest.approx(1.0, abs=1e-12)
        assert jz_variance(pure) == pytest.approx(0.0, abs=1e-14)

        mixture = ManifoldDensity.mixture(
            [0.5, 0.5],
            [block_eigenstate(params, spectra[b], 0) for b in (UP, DOWN)],
        )
        expected = np.log2(1.0 + np.sqrt(2.0) / 2.0)
        assert pairwise_L_sum(mixture, 1) == pytest.approx(expected, abs=1e-12)
        assert jz_variance(mixture) == pytest.approx(1.0, abs=1e-14)

    def test_pure_up_state_has_zero_variance(self):
        params = ModelParams(2, 0.1)
        spectra = solve_blocks(build_block_hamiltonian(params))
        pure_up = ManifoldDensity.pure(block_eigenstate(params, spectra[UP], 0))
        assert jz_variance(pure_up) == pytest.approx(0.0, abs=1e-14)

    def test_ground_state_observables_vanish(self):
        params = ModelParams(6, 0.1)
        rho = ManifoldDensity.pure(ManifoldState(params, 1.0, {}))
        assert pairwise_L_sum(rho, 2) == 0.0
        assert one_vs_rest_L(rho, 3) == 0.0
        assert jz_variance(rho) == 0.0

    def test_distance_ordering_small_chain(self):
        params = ModelParams(4, 0.1)
        rho = lowest_excited_density(params)
        l1 = pairwise_L_sum(rho, 1)
        l2 = pairwise_L_sum(rho, 2)
        l3 = pairwise_L_sum(rho, 3)
        assert l1 > l2 > l3

    def test_center_beats_edge(self):
        params = ModelParams(5, 0.1)
        rho = lowest_excited_density(params)
        assert one_vs_rest_L(rho, 3) >= one_vs_rest_L(rho, 1)

    def test_site_validation(self):
        params = ModelParams(4, 0.1)
        rho = lowest_excited_density(params)
        with pytest.raises(ValueError):
            one_vs_rest_L(rho, 5)
        with pytest.raises(ValueError):
            pairwise_L_sum(rho, 4)


class TestMirrorSymmetry:
    def test_eigenstate_and_thermal(self):
        params = ModelParams(7, 0.12, 3.0)
        rho = lowest_excited_density(params)
        thermal = thermal_state(ThermalSpec(0.8, params))
        for density in (rho, thermal):
            for p in (1, 2, 3):
                assert one_vs_rest_L(density, p) == pytest.approx(
                    one_vs_rest_L(density, 8 - p), abs=1e-10
                )
            for (i, j) in ((1, 3), (2, 5)):
                a = log_negativity(pair_reduced(density, i, j), ((0,), (1,)))
                b = log_negativity(pair_reduced(density, 8 - j, 8 - i), ((0,), (1,)))
                assert a == pytest.approx(b, abs=1e-10)


class TestSubspaceUniformity:
    def test_not_uniform_across_levels(self):
        # documented observation: levels of one block do NOT share L_d
        # (e.g. the middle N=3 plus level has zero nearest-neighbour
        # negativity while the band edges do not), so the uniformity claim
        # is demoted from invariant to observation
        params = ModelParams(3, 0.1)
        spectra = solve_blocks(build_block_hamiltonian(params))
        l_bottom = pairwise_L_sum(ManifoldDensity.pure(block_eigenstate(params, spectra[PLUS], 0)), 1)
        l_middle = pairwise_L_sum(ManifoldDensity.pure(block_eigenstate(params, spectra[PLUS], 1)), 1)
        assert l_bottom > 0.2
        assert l_middle == 0.0

    def test_degenerate_partners_share_values(self):
        params = ModelParams(6, 0.1, 2.0)
        spectra = solve_blocks(build_block_hamiltonian(params))
        for k in (0, 3, 5):
            a = ManifoldDensity.pure(block_eigenstate(params, spectra[UP], k))
            b = ManifoldDensity.pure(block_eigenstate(params, spectra[DOWN], k))
            assert pairwise_L_sum(a, 1) == pytest.approx(pairwise_L_sum(b, 1), abs=1e-14)
            assert one_vs_rest_L(a, 2) == pytest.approx(one_vs_rest_L(b, 2), abs=1e-14)


class TestFullSpaceEquivalence:
    @pytest.mark.parametrize("n,e_z", [(3, 0.0), (3, 1.5), (4, 0.0), (4, 2.0)])
    def test_manifold_matches_embedded_full_space(self, n, e_z):
        params = ModelParams(n, 0.1, e_z)
        rho = lowest_excited_density(params)
        weights, vectors = embed_manifold_density(rho)
        for p in range(1, n + 1):
            assert one_vs_rest_L(rho, p) == pytest.approx(
                full_one_vs_rest_L(weights, vectors, n, p), abs=1e-10
            )
        for i, j in ((1, 2), (1, n)):
            manifold_value = log_negativity(pair_reduced(rho, i, j), ((0,), (1,)))
            assert manifold_value == pytest.approx(
                full_pair_L(weights, vectors, n, i, j), abs=1e-10
            )

    def test_one_vs_rest_density_dims(self):
        params = ModelParams(4, 0.1)
        rho = lowest_excited_density(params)
        assert split_density(rho, 2, [1, 3, 4]).dims == (4, 10)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(rho=manifold_mixtures())
    def test_random_mixtures_match_full_space(self, rho):
        n = rho.params.n_molecules
        weights, vectors = embed_manifold_density(rho)
        for p in range(1, n + 1):
            value = one_vs_rest_L(rho, p)
            assert 0.0 <= value <= 2.0
            assert value == pytest.approx(full_one_vs_rest_L(weights, vectors, n, p), abs=1e-10)
        full_pairs = {}
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                full_pairs[i, j] = full_pair_L(weights, vectors, n, i, j)
                manifold_value = log_negativity(pair_reduced(rho, i, j), ((0,), (1,)))
                assert manifold_value == pytest.approx(full_pairs[i, j], abs=1e-10)
        for d in range(1, n):
            full_sum = sum(full_pairs[i, i + d] for i in range(1, n - d + 1))
            assert pairwise_L_sum(rho, d) == pytest.approx(full_sum, abs=1e-10)


class TestStructuredOneVsRest:
    """The reduced partial-transpose route against the dense split density."""

    @pytest.mark.parametrize("e_z", [2.0, 12.0])  # below and above e_z* = 9.14
    def test_matches_dense_split_density(self, e_z):
        params = ModelParams(50, 0.1, e_z)
        spectra = solve_blocks(build_block_hamiltonian(params))
        ground = ManifoldDensity.pure(ManifoldState(params, 1.0, {}))
        densities = [
            ground,
            branch_density(params, spectra, PLUS),
            branch_density(params, spectra, UP),  # the |m| = 1 mixture
            thermal_state(ThermalSpec(0.15, params)),
            thermal_state(ThermalSpec(0.7, params)),
        ]
        for p in (1, 26, 50):
            rest = [q for q in range(1, 51) if q != p]
            assert one_vs_rest_L(ground, p) == 0.0
            for rho in densities:
                dense = log_negativity(split_density(rho, p, rest), ((0,), (1,)))
                assert one_vs_rest_L(rho, p) == pytest.approx(dense, abs=1e-12)
        for d in (1, 10, 25):
            for rho in densities:
                dense = sum(log_negativity(pair_reduced(rho, i, i + d), ((0,), (1,))) for i in range(1, 51 - d))
                assert pairwise_L_sum(rho, d) == pytest.approx(dense, abs=1e-12)

    @pytest.mark.parametrize("n", [3, 7, 20])
    @pytest.mark.parametrize("flavors", [(UP,), BLOCKS])
    def test_single_excitation_closed_form(self, n, flavors):
        """A pure single excitation with site weights a_q, against formulas of a_q alone."""
        rng = np.random.default_rng(n)
        raw = {f: rng.normal(size=n) + 1j * rng.normal(size=n) for f in flavors}
        norm = np.sqrt(sum(np.sum(np.abs(x) ** 2) for x in raw.values()))
        amps = {f: x / norm for f, x in raw.items()}
        rho = ManifoldDensity.pure(ManifoldState(ModelParams(n, 0.1), 0.0, amps))
        a = sum(np.abs(x) ** 2 for x in amps.values())  # excitation weight per site
        for p in range(1, n + 1):
            expected = np.log2(1.0 + 2.0 * np.sqrt(a[p - 1] * (1.0 - a[p - 1])))
            assert one_vs_rest_L(rho, p) == pytest.approx(expected, abs=1e-12)
        g = 1.0 - a[0] - a[-1]
        expected = np.log2(1.0 + np.sqrt(g * g + 4.0 * a[0] * a[-1]) - g)
        assert pairwise_L_sum(rho, n - 1) == pytest.approx(expected, abs=1e-12)

    def test_localised_excitation_is_product(self):
        """All weight on one site: g = 0 and c = 0 in every split, so 0/0 must not arise."""
        amps = np.zeros(4, dtype=complex)
        amps[1] = 1.0
        rho = ManifoldDensity.pure(ManifoldState(ModelParams(4, 0.1), 0.0, {UP: amps}))
        assert [one_vs_rest_L(rho, p) for p in range(1, 5)] == [0.0] * 4
        assert [pairwise_L_sum(rho, d) for d in range(1, 4)] == [0.0] * 3

    def test_manifold_matrix_is_weighted_sum_of_projectors(self):
        rho = thermal_state(ThermalSpec(0.7, ModelParams(6, 0.1, 3.0)))
        expected = sum(w * np.outer(s.vector(), s.vector().conj()) for w, s in zip(rho.weights, rho.states))
        assert np.max(np.abs(rho.manifold_matrix() - expected)) < 1e-15


class TestSpectralMixture:
    """Rows from block eigenpairs against the `ManifoldDensity` route."""

    @pytest.mark.parametrize("n", [3, 7, 50])
    @pytest.mark.parametrize("e_z", [2.0, 12.0])  # both branches at N = 50, e_z* = 9.14
    def test_lowest_excited_rows_match_branch_density(self, n, e_z):
        params = ModelParams(n, 0.1, e_z)
        block_h = build_block_hamiltonian(params)
        spectra = solve_blocks(block_h)
        label, _ = lowest_excited(spectra)
        rho = branch_density(params, spectra, label)
        d_list, p_list = sorted({1, n // 2, n - 1}), sorted({1, n // 2 + 1, n})
        rows = lowest_excited_rows(d_list, p_list, params, block_h, spectra)
        expected = [pairwise_L_sum(rho, d) for d in d_list] + [one_vs_rest_L(rho, p) for p in p_list]
        assert [row[1:4] for row in rows] == (
            [("ld", d, "plus" if label == PLUS else "one") for d in d_list]
            + [("lprime", p, "plus" if label == PLUS else "one") for p in p_list]
        )
        for row, want in zip(rows, expected):
            assert (row[4] == 0.0) == (want == 0.0), row
            assert row[4] == pytest.approx(want, abs=1e-12)

    def test_non_normalized_eigenvector_rejected(self):
        params = ModelParams(5, 0.1, 2.0)
        block_h = build_block_hamiltonian(params)
        spectra = solve_blocks(block_h)
        label, _ = lowest_excited(spectra)
        bad = dict(spectra)
        bad[label] = SubspaceSpectrum(label, spectra[label].eigenvalues, spectra[label].eigenvectors * 1.001)
        with pytest.raises(ValueError, match="not normalized"):
            lowest_excited_rows([1], [1], params, block_h, bad)

    @pytest.mark.parametrize("ground,weights", [
        ([0.5], [[0.4]]),            # sums to 0.9
        ([1.2], [[-0.2]]),           # a negative weight
        ([np.nan], [[1.0]]),         # not a number
    ])
    def test_invalid_weights_rejected(self, ground, weights):
        with pytest.raises(ValueError, match="weights"):
            SpectralMixture(ground, {PLUS: (np.eye(3)[:, :1], weights)})

    def test_jz_variance_of_unbalanced_mixture(self):
        """Half ground, half one "up" level: <m^2> = <m> = 1/2, so the mean term matters."""
        params = ModelParams(4, 0.1)
        up = np.full(4, 0.5)
        rho = ManifoldDensity.mixture([0.5, 0.5], [ManifoldState(params, 1.0, {}), ManifoldState(params, 0.0, {UP: up})])
        mixture = SpectralMixture([0.5], {UP: (up[:, None], [[0.5]])})
        assert jz_variance(rho) == pytest.approx(0.25, abs=1e-15)
        assert mixture.jz_variance() == pytest.approx([0.25], abs=1e-15)

    def test_index_validation(self):
        level = SpectralMixture([0.0], {PLUS: (np.full((4, 1), 0.5), [[1.0]])})
        for bad in (0, 5):
            with pytest.raises(ValueError):
                level.one_vs_rest_L(bad)
        for bad in (0, 4):
            with pytest.raises(ValueError):
                level.pairwise_L_sum(bad)


class TestSplitDensity:
    @pytest.mark.parametrize("p,others", [
        (2, [1, 2]),   # p among the others
        (0, [1]),      # sites outside 1..N
        (1, [5]),
        (1, [2, 2]),   # repeated site
        (2, []),       # nothing on side B
    ])
    def test_invalid_sites(self, p, others):
        rho = ManifoldDensity.pure(ManifoldState(ModelParams(4, 0.1), 1.0, {}))
        with pytest.raises(ValueError):
            split_density(rho, p, others)


class TestManifoldDensityValidation:
    def test_weights_must_normalize(self):
        params = ModelParams(3, 0.1)
        state = ManifoldState(params, 1.0, {})
        with pytest.raises(ValueError):
            ManifoldDensity(params, np.array([0.5]), (state,))
        with pytest.raises(ValueError):
            ManifoldDensity(params, np.array([-0.5, 1.5]), (state, state))
