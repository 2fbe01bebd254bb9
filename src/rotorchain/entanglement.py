"""Reduced densities, partial transpose, logarithmic negativity, Jz variance.

Negativity is the summed magnitude of the negative eigenvalues of the
partially transposed density matrix; the log-negativity is
L = log2(2 N + 1), so a two-qubit Bell state gives exactly 1.  Eigenvalues
with magnitude below 1e-10 are treated as zero to separate genuine
negativity from numerical noise.

Every reduced density of a manifold state is one split: molecule p against
a set of other molecules, with the remaining molecules traced out.  Each
side's factor is spanned by that side's ground configuration plus its single
excitations: (|->, "plus", "up", "down") for p, and for the others their
ground configuration followed by the three flavors ("plus", "up", "down") of
each site in turn.  A traced molecule is in |-> unless it carries the
excitation, so the traced components only feed the all-ground element.  A
pair (i, j) is the split of i against [j]; one-molecule-vs-rest is the split
of p against every other site.

A split's partial transpose needs no 4(1 + 3 len(others))-dimensional
product space.  With A the three excitation slots of p and B the all-ground
slot 0 plus the excitation slots of the others, the split density is the
manifold matrix on A and B, with every traced slot's diagonal added to
[0, 0], plus zero rows and columns.  Transposing B maps it to three pieces
that meet only at slot 0: the B block, transposed; the A block with its
coherences to slot 0; and one "spoke" row per A-B coherence, touching only
slot 0.  The spokes span one direction, so they collapse to one node coupled
to slot 0 by the Frobenius norm of the A-B coherences; the orthogonal spoke
directions are exact zero eigenvalues.  `_split_L` therefore diagonalises
8 x 8 for a pair and (3N+2) x (3N+2) for one-vs-rest; its callers validate
the manifold matrix once per state instead of each split density, which
shares its trace and Hermiticity and is positive when it is.
"""

from dataclasses import dataclass
from math import log2, prod

import numpy as np

from .manifold import (
    DOWN,
    FLAVOR_OF_BLOCK,
    HONE_BLOCKS,
    PLUS,
    UP,
    ManifoldState,
    block_eigenstate,
    build_block_hamiltonian,
    lowest_excited,
    solve_blocks,
)
from .model import ModelParams

NEGATIVE_EIGENVALUE_CUTOFF = 1e-10

TRACE_TOL = 1e-10
HERMITICITY_TOL = 1e-12
POSITIVITY_TOL = 1e-10


@dataclass(frozen=True)
class DensityMatrix:
    """Density operator on a product of subsystems; validated on construction."""

    dims: tuple
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        d = prod(self.dims)
        if self.matrix.shape != (d, d):
            raise ValueError(f"matrix shape {self.matrix.shape} does not match dims {self.dims}")
        if abs(np.trace(self.matrix) - 1.0) > TRACE_TOL:
            raise ValueError(f"trace is {np.trace(self.matrix)!r}, expected 1")
        if np.max(np.abs(self.matrix - self.matrix.conj().T)) > HERMITICITY_TOL:
            raise ValueError("matrix is not Hermitian")
        if np.linalg.eigvalsh(self.matrix).min() < -POSITIVITY_TOL:
            raise ValueError("matrix has a significantly negative eigenvalue")


def _transpose_factors(rho: DensityMatrix, factors) -> np.ndarray:
    """Matrix of `rho` with each tensor factor in `factors` transposed."""
    k = len(rho.dims)
    t = rho.matrix.reshape(rho.dims + rho.dims)
    for s in factors:
        t = np.swapaxes(t, s, k + s)
    d = prod(rho.dims)
    return t.reshape(d, d)


def partial_transpose(rho: DensityMatrix, subsystem: int) -> np.ndarray:
    """Transpose the chosen tensor factor; an involution that preserves trace."""
    if not 0 <= subsystem < len(rho.dims):
        raise ValueError(f"subsystem {subsystem} out of range for dims {rho.dims}")
    return _transpose_factors(rho, (subsystem,))


def negativity(rho: DensityMatrix, bipartition) -> float:
    """Sum of |negative eigenvalues| of the density transposed on the B side."""
    side_a, side_b = (tuple(s) for s in bipartition)
    if sorted(side_a + side_b) != list(range(len(rho.dims))):
        raise ValueError(f"bipartition {bipartition} must cover dims {rho.dims} exactly once")
    return _negative_sum(_transpose_factors(rho, side_b))


def _negative_sum(pt: np.ndarray) -> float:
    """Sum of |eigenvalues| of the Hermitian `pt` below -NEGATIVE_EIGENVALUE_CUTOFF."""
    eigenvalues = np.linalg.eigvalsh(pt)
    negatives = eigenvalues[eigenvalues < -NEGATIVE_EIGENVALUE_CUTOFF]
    return float(-negatives.sum())


def log_negativity(rho: DensityMatrix, bipartition) -> float:
    return log2(2.0 * negativity(rho, bipartition) + 1.0)


@dataclass(frozen=True)
class ManifoldDensity:
    """Statistical mixture of manifold states (probabilities sum to one)."""

    params: ModelParams
    weights: np.ndarray
    states: tuple

    def __post_init__(self):
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        object.__setattr__(self, "states", tuple(self.states))
        if self.weights.shape != (len(self.states),):
            raise ValueError("one weight per state required")
        if np.any(self.weights < 0):
            raise ValueError("weights must be non-negative")
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {self.weights.sum()!r}, expected 1")
        for state in self.states:
            if state.params.n_molecules != self.params.n_molecules:
                raise ValueError("all states must live on the same chain")

    @classmethod
    def pure(cls, state: ManifoldState) -> "ManifoldDensity":
        return cls(state.params, np.array([1.0]), (state,))

    @classmethod
    def mixture(cls, weights, states) -> "ManifoldDensity":
        states = tuple(states)
        return cls(states[0].params, np.asarray(weights, dtype=float), states)

    def manifold_matrix(self) -> np.ndarray:
        """(3N+1) x (3N+1) Hermitian representation in the manifold basis."""
        vectors = np.stack([state.vector() for state in self.states], axis=1)
        return (vectors * self.weights) @ vectors.conj().T


def _site_slot(site: int, flavor: int) -> int:
    """Manifold basis index of an excitation (0-based site, flavor 0..2)."""
    return 1 + 3 * site + flavor


def split_density(rho: ManifoldDensity, p: int, others) -> DensityMatrix:
    """Molecule p against the 1-based molecules `others`, dims (4, 1 + 3 len(others)).

    The B factor orders the others as given; every molecule in neither is
    traced out, and its excitation weight joins the all-ground element.
    """
    rm = rho.manifold_matrix()
    n = rho.params.n_molecules
    others = list(others)
    sites = [p] + others
    if not others:
        raise ValueError("need at least one other molecule")
    if not all(1 <= q <= n for q in sites):
        raise ValueError(f"sites {sites} must lie in 1..{n}")
    if len(set(sites)) != len(sites):
        raise ValueError(f"sites {sites} must be distinct")
    d_b = 1 + 3 * len(others)
    coherent = [0] + [_site_slot(q - 1, f) for q in sites for f in range(3)]
    positions = [0] + [(f + 1) * d_b for f in range(3)] + list(range(1, d_b))
    out = np.zeros((4 * d_b, 4 * d_b), dtype=complex)
    out[np.ix_(positions, positions)] = rm[np.ix_(coherent, coherent)]
    traced = [_site_slot(q - 1, f) for q in range(1, n + 1) if q not in sites for f in range(3)]
    if traced:
        out[0, 0] += rm[traced, traced].sum()
    return DensityMatrix(dims=(4, d_b), matrix=out)


def pair_reduced(rho: ManifoldDensity, i: int, j: int) -> DensityMatrix:
    """Exact two-molecule reduced density for 1-based sites i < j, dims (4, 4)."""
    n = rho.params.n_molecules
    if not (1 <= i < j <= n):
        raise ValueError(f"need 1 <= i < j <= {n}, got ({i}, {j})")
    return split_density(rho, i, [j])


def _validated_matrix(rho: ManifoldDensity) -> np.ndarray:
    """Manifold matrix of `rho`, validated as a density of dims (3N+1,)."""
    rm = rho.manifold_matrix()
    DensityMatrix(dims=(len(rm),), matrix=rm)
    return rm


def _split_L(rm: np.ndarray, p: int, others) -> float:
    """Log-negativity of molecule p against the 1-based `others`, from the validated `rm`."""
    a = np.arange(_site_slot(p - 1, 0), _site_slot(p - 1, 3))
    b = np.array([0] + [_site_slot(q - 1, f) for q in others for f in range(3)])
    nb = len(b)
    pt = np.zeros((nb + 4, nb + 4), dtype=complex)
    pt[:nb, :nb] = rm[np.ix_(b, b)].T
    # exactly 0.0 when nothing is traced
    pt[0, 0] += np.delete(rm.diagonal(), np.r_[a, b]).sum()
    pt[nb:-1, nb:-1] = rm[np.ix_(a, a)]
    pt[nb:-1, 0] = rm[a, 0]
    pt[0, nb:-1] = rm[0, a]
    pt[-1, 0] = pt[0, -1] = np.linalg.norm(rm[np.ix_(a, b[1:])])
    return log2(2.0 * _negative_sum(pt) + 1.0)


def one_vs_rest_L(rho: ManifoldDensity, p: int) -> float:
    """Log-negativity of molecule p against the rest of the chain."""
    n = rho.params.n_molecules
    if not 1 <= p <= n:
        raise ValueError(f"need 1 <= p <= {n}, got {p}")
    return _split_L(_validated_matrix(rho), p, [q for q in range(1, n + 1) if q != p])


def pairwise_L_sum(rho: ManifoldDensity, d: int) -> float:
    """L_d: pair log-negativity summed over all pairs at chain distance d."""
    n = rho.params.n_molecules
    if not 1 <= d <= n - 1:
        raise ValueError(f"need 1 <= d <= {n - 1}, got {d}")
    rm = _validated_matrix(rho)
    return sum(_split_L(rm, i, [i + d]) for i in range(1, n - d + 1))


def jz_variance(rho: ManifoldDensity) -> float:
    """Variance of the total axial angular momentum, exact from basis labels.

    Manifold basis states are Jz eigenstates: the ground and "plus"
    excitations carry m = 0, the "up"/"down" excitations carry m = +-1.
    """
    n = rho.params.n_molecules
    m_values = np.zeros(3 * n + 1)
    for q in range(n):
        m_values[_site_slot(q, FLAVOR_OF_BLOCK[UP])] = 1.0
        m_values[_site_slot(q, FLAVOR_OF_BLOCK[DOWN])] = -1.0
    populations = np.real(np.diag(rho.manifold_matrix()))
    mean = float(m_values @ populations)
    mean_sq = float((m_values**2) @ populations)
    return mean_sq - mean**2


def branch_density(params: ModelParams, spectra: dict, label: str) -> ManifoldDensity:
    """Lowest level of one excitation branch of solved blocks as a manifold density.

    A "plus" level is a pure state; a doubly-degenerate |m| = 1 level is
    always the equal-weight mixture of its m = +1 and m = -1 partners.
    """
    if label == PLUS:
        return ManifoldDensity.pure(block_eigenstate(params, spectra[PLUS], 0))
    states = [block_eigenstate(params, spectra[b], 0) for b in HONE_BLOCKS]
    return ManifoldDensity.mixture([0.5, 0.5], states)


def lowest_excited_density(params: ModelParams) -> ManifoldDensity:
    """Lowest one-excitation level as a manifold density (see `branch_density`)."""
    spectra = solve_blocks(build_block_hamiltonian(params))
    return branch_density(params, spectra, lowest_excited(spectra)[0])


def lowest_excited_rows(d_list, p_list, params: ModelParams, block_h, spectra: dict) -> list:
    """(e_z, "ld" | "lprime", d | p, branch, value, per-pair mean) rows of the lowest excited level."""
    label, _ = lowest_excited(spectra)
    rm = _validated_matrix(branch_density(params, spectra, label))
    branch = "plus" if label == PLUS else "one"
    n = params.n_molecules
    rows = []
    for d in d_list:
        value = sum(_split_L(rm, i, [i + d]) for i in range(1, n - d + 1))
        rows.append((params.e_z, "ld", d, branch, value, value / (n - d)))
    for p in p_list:
        value = _split_L(rm, p, [q for q in range(1, n + 1) if q != p])
        rows.append((params.e_z, "lprime", p, branch, value, ""))
    return rows
