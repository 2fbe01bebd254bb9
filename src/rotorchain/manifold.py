"""Effective Hamiltonian on the {ground, one-excitation} manifold.

With the interaction expressed in the dressed single-molecule basis, the
manifold splits into the ground configuration |--...-> plus three decoupled
N-dimensional blocks labeled by the excitation flavor:

    "plus"  one molecule in |+>       (total m = 0)
    "up"    one molecule in |1,+1>    (total m = +1)
    "down"  one molecule in |1,-1>    (total m = -1)

Each block is a real symmetric tridiagonal matrix: the diagonal holds the
dressed site energies plus the diagonal dipole expectations over
nearest-neighbour bonds (edge sites have one bond, bulk sites two), and the
constant off-diagonal is the excitation-exchange element.  The "up" and
"down" blocks are identical, so every |m| = 1 level is doubly degenerate.
Couplings between blocks vanish by total-m conservation; the residual
coupling between the ground configuration and the "plus" block is dropped
(first-order treatment; the full-space solver in `oracle` quantifies the
O(v^2) error).
"""

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import get_context

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import NoCrossingError
from .model import ModelParams, dressed_solution, site_operator
from .results import ScanResult

PLUS, UP, DOWN = "plus", "up", "down"
BLOCKS = (PLUS, UP, DOWN)
HONE_BLOCKS = (UP, DOWN)

# flavor index inside a site's excited triple, in manifold basis order
FLAVOR_OF_BLOCK = {PLUS: 0, UP: 1, DOWN: 2}

# largest | |psi|^2 - 1 | accepted for a manifold state or an eigenvector column
NORM_TOL = 1e-12


@dataclass(frozen=True)
class BlockHamiltonian:
    """Labeled tridiagonal blocks plus the dressed ground-state energy."""

    params: ModelParams
    ground_energy: float
    diagonals: dict     # label -> (N,) array
    offdiagonals: dict  # label -> (N-1,) array, constant along each block


@dataclass(frozen=True)
class SubspaceSpectrum:
    label: str
    eigenvalues: np.ndarray   # ascending
    eigenvectors: np.ndarray  # orthonormal columns, site amplitudes


@dataclass(frozen=True)
class ManifoldState:
    """Normalized state on the (3N+1)-dimensional manifold.

    The flat ordering is: ground first, then sites ascending with the three
    excitation flavors ("plus", "up", "down") per site.
    """

    params: ModelParams
    ground_amplitude: complex
    excitation_amplitudes: dict  # label -> (N,) complex array

    def __post_init__(self):
        n = self.params.n_molecules
        norm2 = abs(self.ground_amplitude) ** 2
        for label in BLOCKS:
            amps = np.asarray(self.excitation_amplitudes.get(label, np.zeros(n)))
            if amps.shape != (n,):
                raise ValueError(f"block {label!r} amplitudes must have shape ({n},)")
            norm2 += float(np.sum(np.abs(amps) ** 2))
        if abs(norm2 - 1.0) > NORM_TOL:
            raise ValueError(f"manifold state not normalized: |psi|^2 = {norm2!r}")

    def vector(self) -> np.ndarray:
        n = self.params.n_molecules
        vec = np.zeros(3 * n + 1, dtype=complex)
        vec[0] = self.ground_amplitude
        for label in BLOCKS:
            amps = self.excitation_amplitudes.get(label)
            if amps is not None:
                vec[1 + FLAVOR_OF_BLOCK[label]::3] = amps
        return vec


def ground_manifold_state(params: ModelParams) -> ManifoldState:
    return ManifoldState(params, 1.0, {})


def block_eigenstate(params: ModelParams, spectrum: SubspaceSpectrum, k: int) -> ManifoldState:
    """Manifold state for level k (ascending) of a solved block."""
    return ManifoldState(params, 0.0, {spectrum.label: spectrum.eigenvectors[:, k].astype(complex)})


def build_block_hamiltonian(params: ModelParams) -> BlockHamiltonian:
    """Assemble the tridiagonal blocks and ground energy for the chain.

    Matrix elements (units of B, w = e_z v / 3, lam = sqrt(1 + w^2)):
        <-|cos|->  = w / (sqrt(3) lam),   <+|cos|+> = -<-|cos|->,
        <-|cos|+>  = 1 / (sqrt(3) lam),
        "plus" hop = -2 v <-|cos|+>^2,    "up"/"down" hop = (v/3) cos(phi)^2.
    """
    n = params.n_molecules
    v = params.v_dip
    sol = dressed_solution(params.e_z, params)
    c = site_operator("cos_theta", sol.basis()).matrix
    c_gg, c_ee, c_ge = c[0, 0], c[1, 1], c[0, 1]

    hop_plus = -2.0 * v * c_ge**2
    hop_one = (v / 3.0) * sol.cos_phi**2

    bonds = np.full(n, 2.0)
    bonds[0] = bonds[-1] = 1.0
    ground_energy = n * sol.e_minus - 2.0 * v * c_gg**2 * (n - 1)

    diag_plus = (
        (n - 1) * sol.e_minus + sol.e_plus
        - 2.0 * v * (c_gg**2 * ((n - 1) - bonds) + c_gg * c_ee * bonds)
    )
    # the |1,+-1> site energy stays at 2B within the j <= 1 truncation and the
    # site's own bonds carry no diagonal dipole expectation
    diag_one = (n - 1) * sol.e_minus + 2.0 - 2.0 * v * c_gg**2 * ((n - 1) - bonds)

    off_plus = np.full(n - 1, hop_plus)
    off_one = np.full(n - 1, hop_one)
    return BlockHamiltonian(
        params=params,
        ground_energy=float(ground_energy),
        diagonals={PLUS: diag_plus, UP: diag_one, DOWN: diag_one},
        offdiagonals={PLUS: off_plus, UP: off_one, DOWN: off_one},
    )


def solve_symmetric_tridiagonal(diag, off, label: str = "tridiagonal") -> SubspaceSpectrum:
    """Full eigendecomposition of a real symmetric tridiagonal matrix."""
    diag = np.asarray(diag, dtype=float)
    off = np.asarray(off, dtype=float)
    if off.shape != (diag.shape[0] - 1,):
        raise ValueError("off-diagonal must have length n - 1")
    values, vectors = eigh_tridiagonal(diag, off)
    return SubspaceSpectrum(label=label, eigenvalues=values, eigenvectors=vectors)


def solve_blocks(block_h: BlockHamiltonian) -> dict:
    """Solve every block; the degenerate "up"/"down" pair is solved once."""
    one = solve_symmetric_tridiagonal(block_h.diagonals[UP], block_h.offdiagonals[UP], label=UP)
    return {
        PLUS: solve_symmetric_tridiagonal(block_h.diagonals[PLUS], block_h.offdiagonals[PLUS], label=PLUS),
        UP: one,
        DOWN: SubspaceSpectrum(label=DOWN, eigenvalues=one.eigenvalues, eigenvectors=one.eigenvectors),
    }


def lowest_excited(spectra: dict):
    """(label, energy) of the lowest one-excitation level; ties go to "plus"."""
    e_plus = spectra[PLUS].eigenvalues[0]
    e_one = spectra[UP].eigenvalues[0]
    return (PLUS, float(e_plus)) if e_plus <= e_one else (UP, float(e_one))


def _solve_field(task):
    params, evaluate = task
    block_h = build_block_hamiltonian(params)
    return evaluate(params, block_h, solve_blocks(block_h))


def field_grid(e_z_grid) -> np.ndarray:
    """The field grid as a float array; rejects an empty or descending grid."""
    e_z_grid = np.asarray(e_z_grid, dtype=float)
    if e_z_grid.size == 0:
        raise ValueError("field grid is empty")
    if np.any(np.diff(e_z_grid) < 0):
        raise ValueError("field grid must be ascending")
    return e_z_grid


def scan_fields(params: ModelParams, e_z_grid, evaluate, workers: int = 1) -> list:
    """Build and solve the blocks once per field; one `evaluate` result per field.

    `evaluate(params, block_h, spectra)` receives the chain at each field of
    the grid; its results come back in grid order.  With `workers > 1` the
    fields are spread over that many spawned processes, so `evaluate` must be
    picklable (a module-level function or a functools.partial of one).
    """
    tasks = [(params.with_field(float(e)), evaluate) for e in field_grid(e_z_grid)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers, mp_context=get_context("spawn")) as pool:
            return list(pool.map(_solve_field, tasks))
    return [_solve_field(task) for task in tasks]


def _spectrum_rows(params: ModelParams, block_h: BlockHamiltonian, spectra: dict) -> list:
    e_z = params.e_z
    rows = [(e_z, "ground", 0, block_h.ground_energy)]
    rows += [(e_z, "plus", k, float(val)) for k, val in enumerate(spectra[PLUS].eigenvalues)]
    rows += [(e_z, "one", k, float(val)) for k, val in enumerate(spectra[UP].eigenvalues)]
    return rows


def spectrum_vs_field(params: ModelParams, e_z_grid, workers: int = 1) -> ScanResult:
    """Ground plus excited-manifold energies for every field on the grid.

    Emits 1 + 2N rows per grid point; "one" rows stand for doubly-degenerate
    levels (the m = +1 and m = -1 blocks are identical).
    """
    chunks = scan_fields(params, e_z_grid, _spectrum_rows, workers)
    rows = [row for chunk in chunks for row in chunk]
    meta = {
        "experiment": "spectrum",
        "n_molecules": params.n_molecules,
        "v_dip": params.v_dip,
        "ez_points": len(chunks),
    }
    return ScanResult(columns=("e_z", "subspace", "level", "energy"), rows=rows, metadata=meta)


def _lowest_gap(params: ModelParams, e_z: float) -> float:
    spectra = solve_blocks(build_block_hamiltonian(params.with_field(e_z)))
    return float(spectra[PLUS].eigenvalues[0] - spectra[UP].eigenvalues[0])


def find_crossing(params: ModelParams, e_z_lo: float, e_z_hi: float, tol: float = 1e-10) -> float:
    """Bisect for the field where the lowest "plus" and |m|=1 levels cross.

    Returns once the energy difference magnitude drops to `tol`; raises
    NoCrossingError when the bracket shows no sign change, or when bisection
    stops first (the bracket reaches float resolution, or 200 halvings pass).
    """
    f_lo = _lowest_gap(params, e_z_lo)
    f_hi = _lowest_gap(params, e_z_hi)
    if f_lo == 0.0:
        return float(e_z_lo)
    if f_hi == 0.0:
        return float(e_z_hi)
    if np.sign(f_lo) == np.sign(f_hi):
        raise NoCrossingError(
            f"no crossing in range [{e_z_lo}, {e_z_hi}]: "
            f"gap {f_lo:.3e} -> {f_hi:.3e} does not change sign"
        )
    lo, hi, f_mid = float(e_z_lo), float(e_z_hi), f_hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        f_mid = _lowest_gap(params, mid)
        if abs(f_mid) <= tol:
            return mid
        if np.sign(f_mid) == np.sign(f_lo):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    raise NoCrossingError(f"crossing search stopped at bracket [{lo!r}, {hi!r}] with last |gap| = {abs(f_mid):.3e}")
