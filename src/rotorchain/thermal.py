"""Boltzmann ensembles on the {ground, one-excitation} manifold.

The partition function includes only the ground configuration and the 3N
one-excitation levels, the regime where the rescaled temperature T = k_B T/B
is low enough that higher manifolds stay unpopulated.  Energies are measured
from the lowest manifold level before exponentiation so small T cannot
underflow.  exp(-4/T) (`truncation_weight_bound`) weighs one omitted 4B state, but
the manifold drops D = 1 - (1 + N x)/(1 + x)^N of the v = 0 Z, x = exp(-gap_plus/T)
+ 2 exp(-gap_one/T) over the dressed site gaps: at N = 50, 1 % at T ~ 0.29, 50 % at 0.45.

A (T, e_z) scan solves each field once and computes every temperature of it
at once from the block eigenpairs.  The weights of the 3N+1 levels form one
(3N+1) x T matrix W.  At each T, flavour f's correlation matrix is
R^f = U_f diag(w_f) U_f^T, with U_f the block's eigenvectors and w_f its rows
of W, and every row is a closed form in U_f and W that forms no R^f
(`entanglement.SpectralMixture`).  The scan builds no manifold state, no
density and no manifold matrix; `thermal_state` builds the `ManifoldDensity`
that the tests compare those rows against.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from .entanglement import ManifoldDensity, SpectralMixture, jz_variance, one_vs_rest_L, pairwise_L_sum
from .manifold import BLOCKS, block_eigenstate, build_block_hamiltonian, ground_manifold_state, scan_fields, solve_blocks
from .model import ModelParams
from .results import ScanResult


@dataclass(frozen=True)
class ThermalSpec:
    t_rescaled: float
    params: ModelParams

    def __post_init__(self):
        if not self.t_rescaled > 0:
            raise ValueError(f"rescaled temperature must be > 0, got {self.t_rescaled}")


def _boltzmann_weights(block_h, spectra: dict, t_grid) -> np.ndarray:
    """Weights of the 3N+1 levels, one normalized row per temperature.

    Levels are ordered ground, then the "plus", "up" and "down" blocks.
    """
    energies = np.concatenate([[block_h.ground_energy]] + [spectra[label].eigenvalues for label in BLOCKS])
    weights = np.exp(-(energies - energies.min()) / np.asarray(t_grid, dtype=float)[:, None])
    return weights / weights.sum(axis=1, keepdims=True)


def thermal_state(spec: ThermalSpec) -> ManifoldDensity:
    """Boltzmann mixture over the 3N+1 manifold eigenstates.

    Degenerate "up"/"down" partners share one eigenvalue array, so their
    weights are equal bit for bit.
    """
    params = spec.params
    block_h = build_block_hamiltonian(params)
    spectra = solve_blocks(block_h)
    states = [ground_manifold_state(params)] + [
        block_eigenstate(params, spectra[label], k) for label in BLOCKS for k in range(params.n_molecules)
    ]
    weights = _boltzmann_weights(block_h, spectra, [spec.t_rescaled])[0]
    return ManifoldDensity.mixture(weights, states)


def truncation_weight_bound(spec: ThermalSpec) -> float:
    """Relative Boltzmann weight of one omitted ~4B state; it bounds no total dropped weight."""
    return float(np.exp(-4.0 / spec.t_rescaled))


def parse_observable(spec_string: str):
    """Parse "lprime:26", "ld:1" or "jzvar" into an observable tuple."""
    name, _, arg = spec_string.partition(":")
    if spec_string == "jzvar":
        return ("jzvar",)
    if name in ("lprime", "ld"):
        try:
            return (name, int(arg))
        except ValueError:
            raise ValueError(f"observable {spec_string!r} needs an integer site/distance, e.g. '{name}:1'") from None
    raise ValueError(f"unknown observable {spec_string!r}; expected lprime:P, ld:D or jzvar")


def evaluate_observable(rho: ManifoldDensity, observable) -> float:
    name = observable[0]
    if name == "lprime":
        return one_vs_rest_L(rho, observable[1])
    if name == "ld":
        return pairwise_L_sum(rho, observable[1])
    if name == "jzvar":
        return jz_variance(rho)
    raise ValueError(f"unknown observable {observable!r}")


def observable_name(observable) -> str:
    return observable[0] if len(observable) == 1 else f"{observable[0]}:{observable[1]}"


SPECTRAL_OBSERVABLES = {
    "lprime": SpectralMixture.one_vs_rest_L,
    "ld": SpectralMixture.pairwise_L_sum,
    "jzvar": SpectralMixture.jz_variance,
}


def _thermal_rows(t_grid, observable, params: ModelParams, block_h, spectra: dict) -> list:
    """One row per temperature at the field of `params`, all from the block eigenpairs."""
    n = params.n_molecules
    weights = _boltzmann_weights(block_h, spectra, t_grid).T
    mixture = SpectralMixture(weights[0], {
        label: (spectra[label].eigenvectors, weights[1 + k * n:1 + (k + 1) * n])
        for k, label in enumerate(BLOCKS)
    })
    values = SPECTRAL_OBSERVABLES[observable[0]](mixture, *observable[1:])
    name = observable_name(observable)
    return [(t, params.e_z, name, float(value)) for t, value in zip(t_grid, values)]


def thermal_scan(params: ModelParams, t_grid, e_z_grid, observable, workers: int = 1) -> ScanResult:
    """Observable on the thermal state over a (T, e_z) grid, rows by (T, e_z)."""
    t_grid = [float(t) for t in t_grid]
    if not t_grid:
        raise ValueError("temperature grid is empty")
    by_field = scan_fields(params, e_z_grid, partial(_thermal_rows, t_grid, observable), workers)
    rows = [field_rows[i] for i in range(len(t_grid)) for field_rows in by_field]
    meta = {
        "experiment": "thermal",
        "n_molecules": params.n_molecules,
        "v_dip": params.v_dip,
        "observable": observable_name(observable),
        "t_points": len(t_grid),
        "ez_points": len(by_field),
    }
    return ScanResult(columns=("t_rescaled", "e_z", "observable", "value"), rows=rows, metadata=meta)
