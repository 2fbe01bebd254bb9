"""Reduced densities, partial transpose, logarithmic negativity, Jz variance.

Negativity is the summed magnitude of the negative eigenvalues of the
partially transposed density matrix; the log-negativity is
L = log2(2 N + 1), so a two-qubit Bell state gives exactly 1.  A negative
eigenvalue of magnitude at most 1e-10 counts as numerical noise, not negativity.

Every reduced density of a manifold state is one split: molecule p against
a set of other molecules, with the remaining molecules traced out.  Each
side's factor is spanned by that side's ground configuration plus its single
excitations: (|->, "plus", "up", "down") for p, and for the others their
ground configuration followed by the three flavors ("plus", "up", "down") of
each site in turn.  A traced molecule is in |-> unless it carries the
excitation, so the traced components only feed the all-ground element.  A
pair (i, j) is the split of i against [j]; one-molecule-vs-rest is the split
of p against every other site.

Every state the scans build (a block level, the |m| = 1 mixture, a Boltzmann
mixture) has no coherence between the all-ground slot and an excitation.
Then, with A the three excitation slots of p and B those of the others, the
split's partial transpose is the PSD blocks rm[A, A] and rm[B, B]^T plus one
2 x 2 block [[g, c], [c, 0]]: g is the all-ground element (slot 0 plus every
traced slot's diagonal) and c^2 = sum |rm[A, B]|^2, the A-B coherences that
the transpose moves next to it.  Its one negative eigenvalue gives
N = 2 c^2 / (g + sqrt(g^2 + 4 c^2)), the W-state form; `closed_form_L`
computes it with no eigensolve.  A state with ground coherence goes through
the dense `split_density` instead.  A manifold density is validated on
construction (weights >= 0 summing to 1, normalised states), so its manifold
matrix is not checked again.

The scans never form the manifold matrix.  Flavours do not mix, so rm is the
ground weight w_0 plus one real N x N correlation matrix per flavour,
R^f = U_f diag(w_f) U_f^T, with U_f the block's eigenvector columns and w_f
their weights.  `SpectralMixture` reads every split from U_f and w_f, for a
whole batch of weight vectors (every temperature of a field) at once:

    L'_p:  g = w_0,  c^2 = sum_f [(U_f o U_f)_p . w_f^2 - ((U_f o U_f)_p . w_f)^2]
    L_d:   pop = sum_f (U_f o U_f) w_f,  g_i = 1 - pop_i - pop_(i+d),
           c_i^2 = sum_f ((U_f[:-d] o U_f[d:]) w_f)_i^2

with o the elementwise product.  A pure level is the one-column case: its
branch's lowest eigenvector a with weight s = 1 ("plus") or s = 1/2 on each
of "up" and "down", which gives g = 1 - a_i^2 - a_(i+d)^2, c = sqrt(s) |a_i a_(i+d)|
for a pair and g = 0, c^2 = s a_p^2 (1 - a_p^2) against the rest.  The
`ManifoldDensity` functions stay the reference these rows are tested against.
"""

from dataclasses import dataclass
from math import log2, prod

import numpy as np

from .manifold import (
    DOWN,
    FLAVOR_OF_BLOCK,
    HONE_BLOCKS,
    NORM_TOL,
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
    eigenvalues = np.linalg.eigvalsh(_transpose_factors(rho, side_b))
    return float(-eigenvalues[eigenvalues < -NEGATIVE_EIGENVALUE_CUTOFF].sum())


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


def closed_form_L(g, c) -> np.ndarray:
    """log2(2 N + 1) of the split block [[g, c], [c, 0]], elementwise over arrays.

    g is the all-ground weight and c >= 0 the coherence norm; N = 2 c^2 /
    (g + sqrt(g^2 + 4 c^2)), and an N at or below the cutoff gives 0.  A g
    below 0 can only be rounding of a vanishing weight, so it counts as 0.
    """
    g, c = np.broadcast_arrays(np.maximum(g, 0.0), np.asarray(c, dtype=float))
    neg = np.zeros(g.shape)
    np.divide(2.0 * c * c, g + np.hypot(g, 2.0 * c), out=neg, where=c > 0)
    return np.where(neg > NEGATIVE_EIGENVALUE_CUTOFF, np.log2(2.0 * neg + 1.0), 0.0)


def _split_L(rm: np.ndarray, p: int, others) -> float:
    """Log-negativity of molecule p against the 1-based `others`, for `rm` with rm[0, 1:] = 0."""
    a = np.arange(_site_slot(p - 1, 0), _site_slot(p - 1, 3))
    b = np.array([_site_slot(q - 1, f) for q in others for f in range(3)])
    g = np.delete(rm.diagonal(), np.r_[a, b]).real.sum()  # slot 0 plus every traced slot
    return float(closed_form_L(g, np.linalg.norm(rm[np.ix_(a, b)])))


def one_vs_rest_L(rho: ManifoldDensity, p: int) -> float:
    """Log-negativity of molecule p against the rest of the chain."""
    n = rho.params.n_molecules
    if not 1 <= p <= n:
        raise ValueError(f"need 1 <= p <= {n}, got {p}")
    others = [q for q in range(1, n + 1) if q != p]
    rm = rho.manifold_matrix()
    if rm[0, 1:].any():
        return log_negativity(split_density(rho, p, others), ((0,), (1,)))
    return _split_L(rm, p, others)


def pairwise_L_sum(rho: ManifoldDensity, d: int) -> float:
    """L_d: pair log-negativity summed over all pairs at chain distance d."""
    n = rho.params.n_molecules
    if not 1 <= d <= n - 1:
        raise ValueError(f"need 1 <= d <= {n - 1}, got {d}")
    rm = rho.manifold_matrix()
    if rm[0, 1:].any():
        return sum(log_negativity(pair_reduced(rho, i, i + d), ((0,), (1,))) for i in range(1, n - d + 1))
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


class SpectralMixture:
    """A batch of excitation-diagonal manifold densities, held as block eigenpairs.

    `flavours` maps a block label to (U, W): U (N x K) holds eigenvector
    columns of that block and W (K x M) their weights, one column per density.
    Density m is ground[m] on the all-ground slot plus R^f = U diag(W[:, m]) U^T
    per flavour (see the module docstring); no R^f is formed.  Every method
    returns one value per density.  Validated on construction: weights >= 0,
    each density's weights sum to 1, and every eigenvector column has unit norm.
    """

    def __init__(self, ground, flavours: dict):
        self.ground = np.asarray(ground, dtype=float)
        self.flavours = {}  # label -> (U, U o U, W)
        total = self.ground
        for label, (u, w) in flavours.items():
            u, w = np.asarray(u, dtype=float), np.asarray(w, dtype=float)
            if not np.all(w >= 0):
                raise ValueError("weights must be non-negative")
            if not np.all(np.abs((u * u).sum(axis=0) - 1.0) <= NORM_TOL):
                raise ValueError(f"block {label!r} eigenvectors are not normalized")
            self.flavours[label] = (u, u * u, w)
            total = total + w.sum(axis=0)
        if not (np.all(self.ground >= 0) and np.all(np.abs(total - 1.0) <= TRACE_TOL)):
            raise ValueError(f"weights must be non-negative and sum to 1, got sums {total!r}")
        self.n_molecules = u.shape[0]

    def one_vs_rest_L(self, p: int) -> np.ndarray:
        """L'_p: log-negativity of molecule p against the rest of the chain."""
        if not 1 <= p <= self.n_molecules:
            raise ValueError(f"need 1 <= p <= {self.n_molecules}, got {p}")
        c2 = sum(sq[p - 1] @ (w * w) - (sq[p - 1] @ w) ** 2 for _, sq, w in self.flavours.values())
        return closed_form_L(self.ground, np.sqrt(np.maximum(c2, 0.0)))

    def pairwise_L_sum(self, d: int) -> np.ndarray:
        """L_d: pair log-negativity summed over all pairs at chain distance d."""
        if not 1 <= d <= self.n_molecules - 1:
            raise ValueError(f"need 1 <= d <= {self.n_molecules - 1}, got {d}")
        pop = sum(sq @ w for _, sq, w in self.flavours.values())
        c2 = sum(((u[:-d] * u[d:]) @ w) ** 2 for u, _, w in self.flavours.values())
        return closed_form_L(1.0 - pop[:-d] - pop[d:], np.sqrt(c2)).sum(axis=0)

    def jz_variance(self) -> np.ndarray:
        """Variance of the total axial angular momentum: "up" carries m = +1, "down" m = -1.

        A flavour's total weight is the sum of its W, its columns having unit norm.
        """
        weight = {label: w.sum(axis=0) for label, (_, _, w) in self.flavours.items()}
        up, down = weight.get(UP, 0.0), weight.get(DOWN, 0.0)
        return up + down - (up - down) ** 2


def lowest_excited_rows(d_list, p_list, params: ModelParams, block_h, spectra: dict) -> list:
    """(e_z, "ld" | "lprime", d | p, branch, value, per-pair mean) rows of the lowest excited level.

    The level is its branch's lowest eigenvector with weight 1 ("plus"), or
    1/2 on each of "up" and "down" (the |m| = 1 mixture of `branch_density`).
    """
    label, _ = lowest_excited(spectra)
    a = spectra[label].eigenvectors[:, :1]
    shares = {PLUS: 1.0} if label == PLUS else dict.fromkeys(HONE_BLOCKS, 0.5)
    level = SpectralMixture([0.0], {b: (a, [[s]]) for b, s in shares.items()})
    branch = "plus" if label == PLUS else "one"
    n = params.n_molecules
    rows = []
    for d in d_list:
        value = float(level.pairwise_L_sum(d)[0])
        rows.append((params.e_z, "ld", d, branch, value, value / (n - d)))
    for p in p_list:
        rows.append((params.e_z, "lprime", p, branch, float(level.one_vs_rest_L(p)[0]), ""))
    return rows
