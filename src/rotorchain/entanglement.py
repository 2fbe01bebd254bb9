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

There are two routes to a split's negativity.  The dense one
(`split_density` or `pair_reduced`, then `log_negativity`) builds the split
as a `DensityMatrix` from the manifold matrix and works for any manifold
state.  The closed form needs every state of the mixture to be the
all-ground configuration alone or one flavour alone, as every state the CLI
evaluates is (`ManifoldDensity.spectral`).  Flavours then do not mix, and
the manifold matrix is the ground weight w_0 plus one N x N correlation
matrix per flavour, R^f = U_f diag(w_f) U_f^H, with U_f the flavour's
unit-norm amplitude columns (real or complex, orthogonal or not) and w_f
their weights.  The split's partial transpose is then positive blocks plus
one 2 x 2 block [[g, c], [c, 0]]: g is the all-ground weight (w_0 plus every
traced excitation) and c^2 is the summed |R^f_pq|^2 between the two sides,
the coherences that the transpose moves next to it.  Its one negative
eigenvalue gives N = 2 c^2 / (g + sqrt(g^2 + 4 c^2)) (`closed_form_L`):

    L'_p:  g = w_0,  c^2 = sum_f sum_(q != p) |R^f_pq|^2,  R^f[p, :] = (U_f[p] o w_f) U_f^H
    L_d:   pop_i = sum_f R^f_ii,  g_i = 1 - pop_i - pop_(i+d),  c_i^2 = sum_f |R^f_(i,i+d)|^2

`SpectralMixture` evaluates these from U_f and w_f for a whole batch of
weight vectors (every temperature of a field) at once, and forms no R^f;
o is the elementwise product.
"""

from dataclasses import dataclass
from math import log2, prod

import numpy as np

from .manifold import (
    BLOCKS,
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

    def spectral(self):
        """This density as a one-column `SpectralMixture` if every state is the all-ground
        configuration alone or one flavour alone (a flavour with no states is an (N x 0) block), else None."""
        ground, columns = 0.0, {label: [] for label in BLOCKS}
        for weight, state in zip(self.weights, self.states):
            parts = [(label, amps) for label, amps in state.excitation_amplitudes.items() if np.any(amps)]
            if not parts:
                ground += weight * abs(state.ground_amplitude) ** 2
            elif len(parts) == 1 and state.ground_amplitude == 0:
                columns[parts[0][0]].append((parts[0][1], weight))
            else:
                return None
        n = self.params.n_molecules
        return SpectralMixture([ground], {
            label: (np.reshape([a for a, _ in cols], (-1, n)).T, np.reshape([w for _, w in cols], (-1, 1)))
            for label, cols in columns.items()
        })


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


def one_vs_rest_L(rho: ManifoldDensity, p: int) -> float:
    """Log-negativity of molecule p against the rest of the chain."""
    mixture = rho.spectral()
    if mixture is not None:
        return float(mixture.one_vs_rest_L(p)[0])
    others = [q for q in range(1, rho.params.n_molecules + 1) if q != p]
    return log_negativity(split_density(rho, p, others), ((0,), (1,)))


def pairwise_L_sum(rho: ManifoldDensity, d: int) -> float:
    """L_d: pair log-negativity summed over all pairs at chain distance d."""
    n = rho.params.n_molecules
    if not 1 <= d <= n - 1:
        raise ValueError(f"need 1 <= d <= {n - 1}, got {d}")
    mixture = rho.spectral()
    if mixture is not None:
        return float(mixture.pairwise_L_sum(d)[0])
    return sum(log_negativity(pair_reduced(rho, i, i + d), ((0,), (1,))) for i in range(1, n - d + 1))


def jz_variance(rho: ManifoldDensity) -> float:
    """Variance of the total axial angular momentum, exact from basis labels.

    Manifold basis states are Jz eigenstates: the ground and "plus"
    excitations carry m = 0, the "up"/"down" excitations carry m = +-1.
    """
    populations = rho.manifold_matrix().diagonal().real
    up = populations[1 + FLAVOR_OF_BLOCK[UP]::3].sum()
    down = populations[1 + FLAVOR_OF_BLOCK[DOWN]::3].sum()
    return float(up + down - (up - down) ** 2)


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
    """A batch of flavour-diagonal manifold densities, held as amplitude columns and weights.

    `flavours` maps a block label to (U, W): U (N x K) holds unit-norm
    amplitude columns of that flavour, real or complex and not necessarily
    orthogonal, and W (K x M) their weights, one column per density.  Density
    m is ground[m] on the all-ground slot plus R^f = U diag(W[:, m]) U^H per
    flavour.  Each method evaluates the module docstring's closed form in R^f,
    forming no R^f, and returns one value per density.  Validated on
    construction: at least one flavour, weights >= 0 summing to 1 per density,
    and unit-norm columns.
    """

    def __init__(self, ground, flavours: dict):
        if not flavours:
            raise ValueError("no flavour block (U, W) given; an empty flavour is an (N x 0) U")
        self.ground = np.asarray(ground, dtype=float)
        self.flavours = {}  # label -> (U, |U|^2, W)
        total = self.ground
        for label, (u, w) in flavours.items():
            u, w = np.asarray(u, dtype=complex if np.iscomplexobj(u) else float), np.asarray(w, dtype=float)
            sq = np.abs(u) ** 2
            if not np.all(w >= 0):
                raise ValueError("weights must be non-negative")
            if not np.all(np.abs(sq.sum(axis=0) - 1.0) <= NORM_TOL):
                raise ValueError(f"block {label!r} eigenvectors are not normalized")
            self.flavours[label] = (u, sq, w)
            total = total + w.sum(axis=0)
        if not (np.all(self.ground >= 0) and np.all(np.abs(total - 1.0) <= TRACE_TOL)):
            raise ValueError(f"weights must be non-negative and sum to 1, got sums {total!r}")
        self.n_molecules = u.shape[0]

    def one_vs_rest_L(self, p: int) -> np.ndarray:
        """L'_p: log-negativity of molecule p against the rest of the chain."""
        if not 1 <= p <= self.n_molecules:
            raise ValueError(f"need 1 <= p <= {self.n_molecules}, got {p}")
        rows = [(u[p - 1] * w.T) @ u.conj().T for u, _, w in self.flavours.values()]  # R^f[p, :] per density
        c2 = sum((np.abs(np.delete(row, p - 1, axis=1)) ** 2).sum(axis=1) for row in rows)
        return closed_form_L(self.ground, np.sqrt(c2))

    def pairwise_L_sum(self, d: int) -> np.ndarray:
        """L_d: pair log-negativity summed over all pairs at chain distance d."""
        if not 1 <= d <= self.n_molecules - 1:
            raise ValueError(f"need 1 <= d <= {self.n_molecules - 1}, got {d}")
        pop = sum(sq @ w for _, sq, w in self.flavours.values())
        c2 = sum(np.abs((u[:-d] * u[d:].conj()) @ w) ** 2 for u, _, w in self.flavours.values())
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
