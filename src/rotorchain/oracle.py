"""Independent full-Hilbert-space reference for small chains.

Builds the complete 4^N Hamiltonian (free rotors + Stark + nearest-neighbour
dipole coupling, no manifold truncation beyond j <= 1), diagonalizes it
densely and recomputes every negativity from first principles as one split
of a site against other sites.  The manifold levels miss the exact ones by
about v^2/6 per bond at e_z = 0 (each bond shifts the all-ground level at
second order), so that deviation grows with N.  Everything here is
deliberately generic tensor algebra so that agreement with the
`manifold`/`entanglement` fast paths is a genuine cross-check, not a shared
code path.
"""

from dataclasses import asdict, dataclass

import numpy as np

from .entanglement import (
    DensityMatrix,
    ManifoldDensity,
    branch_density,
    log_negativity,
    lowest_excited_density,  # unused here; perfbench/selftest.py checks the tracer wraps this binding
    one_vs_rest_L,
    pairwise_L_sum,
)
from .errors import ResourceLimitError
from .manifold import PLUS, ManifoldState, block_eigenstate, build_block_hamiltonian, lowest_excited, solve_blocks
from .model import (
    ModelParams,
    dressed_basis,
    free_site_hamiltonian,
    pair_dipole_operator,
    bare_basis,
    stark_site_hamiltonian,
)

MAX_FULL_CHAIN = 6
MAX_DENSE_DIM = 4096


def _embed(op: np.ndarray, site: int, n: int, width: int = 1) -> np.ndarray:
    """Pad an operator on `width` adjacent sites with identities."""
    left = np.eye(4 ** site)
    right = np.eye(4 ** (n - site - width))
    return np.kron(np.kron(left, op), right)


def full_hamiltonian(params: ModelParams) -> np.ndarray:
    """Complete 4^N x 4^N chain Hamiltonian in the bare product basis."""
    n = params.n_molecules
    if n > MAX_FULL_CHAIN:
        raise ResourceLimitError(f"full Hamiltonian limited to N <= {MAX_FULL_CHAIN}, got {n}")
    single = free_site_hamiltonian() + stark_site_hamiltonian(params)
    h = np.zeros((4**n, 4**n))
    for i in range(n):
        h += _embed(single, i, n)
    pair = pair_dipole_operator(bare_basis(), params)
    for i in range(n - 1):
        h += _embed(pair, i, n, width=2)
    return h


def dense_eigensolve(h: np.ndarray):
    """Ascending eigenvalues and orthonormal eigenvectors of a Hermitian matrix."""
    if h.shape[0] > MAX_DENSE_DIM:
        raise ResourceLimitError(f"dense solver limited to dimension {MAX_DENSE_DIM}")
    return np.linalg.eigh(h)


def embed_manifold_state(state: ManifoldState) -> np.ndarray:
    """Manifold state as a 4^N vector in the bare product basis."""
    params = state.params
    n = params.n_molecules
    u = dressed_basis(params).rotation()
    site_states = u.T  # row f = dressed local state f in bare coordinates

    def product(local_states):
        vec = np.ones(1)
        for s in local_states:
            vec = np.kron(vec, s)
        return vec

    ground_local = [site_states[0]] * n
    full = complex(state.ground_amplitude) * product(ground_local)
    for label, flavor in (("plus", 1), ("up", 2), ("down", 3)):
        amps = state.excitation_amplitudes.get(label)
        if amps is None:
            continue
        for p in range(n):
            if amps[p] == 0:
                continue
            local = list(ground_local)
            local[p] = site_states[flavor]
            full = full + amps[p] * product(local)
    return full


def embed_manifold_density(rho: ManifoldDensity):
    """(weights, 4^N column vectors) for a manifold mixture."""
    vectors = np.column_stack([embed_manifold_state(s) for s in rho.states])
    return np.asarray(rho.weights, dtype=float), vectors


def full_split_density(weights, vectors, n: int, p: int, others) -> DensityMatrix:
    """Site p against the 1-based sites `others` of a 4^N mixture, the rest traced.

    The matrix is not in the product basis: the `others` factor is written in
    an orthonormal basis of the mixture's support there (a reduced QR), so
    dims are (4, k) with k <= min(4^|others|, 4 r 4^|traced|) for r states.
    That local isometry keeps trace, positivity and negativity.
    """
    perm = [p - 1] + [q - 1 for q in others]
    perm += [ax for ax in range(n) if ax not in perm]
    d_others = 4 ** len(others)
    t = np.concatenate([np.sqrt(w) * vec.reshape((4,) * n).transpose(perm).reshape(4, d_others, -1)
                        for w, vec in zip(weights, vectors.T)], axis=2)
    q, _ = np.linalg.qr(t.transpose(1, 0, 2).reshape(d_others, -1))
    m = (q.conj().T @ t).reshape(4 * q.shape[1], -1)
    return DensityMatrix(dims=(4, q.shape[1]), matrix=m @ m.conj().T)


def full_one_vs_rest_L(weights, vectors, n: int, p: int) -> float:
    others = [q for q in range(1, n + 1) if q != p]
    return log_negativity(full_split_density(weights, vectors, n, p, others), ((0,), (1,)))


def full_pair_L(weights, vectors, n: int, i: int, j: int) -> float:
    return log_negativity(full_split_density(weights, vectors, n, i, [j]), ((0,), (1,)))


@dataclass(frozen=True)
class ValidationReport:
    """Max deviations between manifold and full-space routes."""

    n_molecules: int
    v_dip: float
    e_z: float
    max_eigenvalue_dev: float        # manifold levels vs lowest full levels
    eigenvalue_dev_over_v2: float    # same, divided by v^2
    ground_lprime_max: float         # entanglement of the full ground state
    same_state_negativity_dev: float  # lowest level: shipped closed form vs full-space split
    matched_lprime_dev: float        # manifold level vs matching full eigenstate

    def to_dict(self) -> dict:
        return asdict(self)


def validate_manifold(params: ModelParams) -> ValidationReport:
    """Compare the manifold treatment against the untruncated chain."""
    n = params.n_molecules
    block_h = build_block_hamiltonian(params)
    spectra = solve_blocks(block_h)
    manifold_levels = np.sort(
        np.concatenate(
            [
                [block_h.ground_energy],
                spectra["plus"].eigenvalues,
                spectra["up"].eigenvalues,
                spectra["down"].eigenvalues,
            ]
        )
    )

    h = full_hamiltonian(params)
    full_values, full_vectors = dense_eigensolve(h)
    lowest = full_values[: manifold_levels.size]
    max_dev = float(np.max(np.abs(manifold_levels - lowest)))

    # entanglement of the exact ground state (zero in first order)
    center = n // 2 + 1
    ground = full_vectors[:, [0]]
    ground_lprime = max(
        full_one_vs_rest_L(np.array([1.0]), ground, n, p) for p in range(1, n + 1)
    )

    # identical state, manifold vs full-space machinery
    rho_low = branch_density(params, spectra, lowest_excited(spectra)[0])
    weights, vectors = embed_manifold_density(rho_low)
    dev_same = abs(one_vs_rest_L(rho_low, center) - full_one_vs_rest_L(weights, vectors, n, center))
    pair_full = sum(full_pair_L(weights, vectors, n, i, i + 1) for i in range(1, n))
    dev_same = max(dev_same, abs(pairwise_L_sum(rho_low, 1) - pair_full))

    # manifold lowest "plus" level vs the full eigenvector it overlaps most
    state = block_eigenstate(params, spectra[PLUS], 0)
    embedded = embed_manifold_state(state)
    overlaps = np.abs(full_vectors.conj().T @ embedded)
    match = int(np.argmax(overlaps))
    matched_dev = abs(
        one_vs_rest_L(ManifoldDensity.pure(state), center)
        - full_one_vs_rest_L(np.array([1.0]), full_vectors[:, [match]], n, center)
    )

    return ValidationReport(
        n_molecules=n,
        v_dip=params.v_dip,
        e_z=params.e_z,
        max_eigenvalue_dev=max_dev,
        eigenvalue_dev_over_v2=max_dev / params.v_dip**2,
        ground_lprime_max=float(ground_lprime),
        same_state_negativity_dev=float(dev_same),
        matched_lprime_dev=float(matched_dev),
    )
