"""Boltzmann ensembles on the {ground, one-excitation} manifold.

The partition function includes only the ground configuration and the 3N
one-excitation levels, the regime where the rescaled temperature T = k_B T/B
is low enough that higher manifolds stay unpopulated.  Energies are measured
from the lowest manifold level before exponentiation so small T cannot
underflow.  The omitted two-excitation states sit near 4B; their neglected
relative weight is bounded by exp(-(E_2exc - E_0)/T), which
`truncation_weight_bound` evaluates.

A (T, e_z) scan solves each field once and reuses its 3N+1 levels for every
temperature.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from .entanglement import ManifoldDensity, jz_variance, one_vs_rest_L, pairwise_L_sum
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


def manifold_levels(params: ModelParams, block_h, spectra: dict):
    """Energies and states of the 3N+1 manifold levels, ground first."""
    energies = [block_h.ground_energy]
    states = [ground_manifold_state(params)]
    for label in BLOCKS:
        spectrum = spectra[label]
        for k in range(params.n_molecules):
            energies.append(float(spectrum.eigenvalues[k]))
            states.append(block_eigenstate(params, spectrum, k))
    return np.asarray(energies), states


def boltzmann_mixture(energies: np.ndarray, states, spec: ThermalSpec) -> ManifoldDensity:
    """Boltzmann mixture of the given levels at the temperature of `spec`."""
    weights = np.exp(-(energies - energies.min()) / spec.t_rescaled)
    weights /= weights.sum()
    return ManifoldDensity.mixture(weights, states)


def thermal_state(spec: ThermalSpec) -> ManifoldDensity:
    """Boltzmann mixture over the 3N+1 manifold eigenstates.

    Degenerate "up"/"down" partners share one eigenvalue array, so their
    weights are equal bit for bit.
    """
    block_h = build_block_hamiltonian(spec.params)
    energies, states = manifold_levels(spec.params, block_h, solve_blocks(block_h))
    return boltzmann_mixture(energies, states, spec)


def truncation_weight_bound(spec: ThermalSpec) -> float:
    """Upper bound on the relative Boltzmann weight of an omitted ~4B state."""
    return float(np.exp(-4.0 / spec.t_rescaled))


def parse_observable(spec_string: str):
    """Parse "lprime:26", "ld:1" or "jzvar" into an observable tuple."""
    name, _, arg = spec_string.partition(":")
    if spec_string == "jzvar":
        return ("jzvar",)
    if name in ("lprime", "ld"):
        if not arg:
            raise ValueError(f"observable {name!r} needs a site/distance, e.g. '{name}:1'")
        return (name, int(arg))
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


def _thermal_rows(t_grid, observable, params: ModelParams, block_h, spectra: dict) -> list:
    """One row per temperature at the field of `params`."""
    energies, states = manifold_levels(params, block_h, spectra)
    name = observable_name(observable)
    rows = []
    for t in t_grid:
        rho = boltzmann_mixture(energies, states, ThermalSpec(t, params))
        rows.append((t, params.e_z, name, evaluate_observable(rho, observable)))
    return rows


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
