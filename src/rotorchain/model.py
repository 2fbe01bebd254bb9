"""Single-rotor model: units, restricted basis, field dressing, pair interaction.

Each molecule is a rigid rotor truncated to its four lowest states. The
single-site basis ordering is fixed everywhere (index 0 is the local ground
state):

    bare:    |0,0>, |1,0>, |1,+1>, |1,-1>
    dressed: |->,   |+>,   |1,+1>, |1,-1>

All energies are expressed in units of the rotational constant B, so the free
rotor spectrum is j(j+1) and the dimensionless dipole scale is
v = mu^2 / (4 pi eps0 r^3 B).  A static axial field enters through the
dimensionless amplitude e_z = E_z 4 sqrt(3) pi eps0 r^3 / |mu|, which makes
the Stark off-diagonal element equal to e_z * v / 3 in units of B.

Sign conventions (only squared moduli are observable, fixed for
reproducibility): <1,0|cos(theta)|0,0> = +1/sqrt(3) and the shift operators
T+- = sin(theta) e^{+-i phi} carry Condon-Shortley signs,
<1,+-1|T+-|0,0> = -+sqrt(2/3).  The dressed mixing amplitude sin(phi) is then
<= 0 for e_z >= 0.
"""

from dataclasses import dataclass

import numpy as np
from scipy import constants

SQRT3 = np.sqrt(3.0)
SQRT23 = np.sqrt(2.0 / 3.0)

# 1 Debye in C*m (exact, via the speed of light)
DEBYE = 1e-21 / constants.c


@dataclass(frozen=True)
class ModelParams:
    """Dimensionless chain parameters; all energies are in units of B."""

    n_molecules: int
    v_dip: float
    e_z: float = 0.0

    def __post_init__(self):
        if int(self.n_molecules) != self.n_molecules or self.n_molecules < 2:
            raise ValueError(f"n_molecules must be an integer >= 2, got {self.n_molecules}")
        if not self.v_dip > 0:
            raise ValueError(f"v_dip must be > 0, got {self.v_dip}")
        if self.e_z < 0:
            raise ValueError(f"e_z must be >= 0, got {self.e_z}")

    def with_field(self, e_z: float) -> "ModelParams":
        return ModelParams(self.n_molecules, self.v_dip, e_z)


@dataclass(frozen=True)
class PhysicalParams:
    """Laboratory-unit inputs: Debye, GHz, nm, V/m."""

    dipole_debye: float
    b_ghz: float
    r_nm: float
    field_v_per_m: float = 0.0

    def __post_init__(self):
        for name in ("dipole_debye", "b_ghz", "r_nm"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.field_v_per_m < 0:
            raise ValueError(f"field_v_per_m must be >= 0, got {self.field_v_per_m}")


def rotor_energy(j: int) -> float:
    """Free rigid-rotor energy j(j+1) in units of B."""
    return float(j * (j + 1))


def to_dimensionless(phys: PhysicalParams, n_molecules: int) -> ModelParams:
    """Convert laboratory units to the internal dimensionless parameters."""
    mu = phys.dipole_debye * DEBYE
    r = phys.r_nm * 1e-9
    b_joule = constants.h * phys.b_ghz * 1e9
    four_pi_eps0_r3 = 4.0 * np.pi * constants.epsilon_0 * r**3
    v_dip = mu**2 / four_pi_eps0_r3 / b_joule
    e_z = phys.field_v_per_m * SQRT3 * four_pi_eps0_r3 / mu
    return ModelParams(n_molecules=n_molecules, v_dip=v_dip, e_z=e_z)


@dataclass(frozen=True)
class DressedSolution:
    """Eigen-solution of the single-molecule 2x2 Stark block {|0,0>, |1,0>}."""

    e_z: float
    stark: float      # off-diagonal magnitude e_z * v / 3, units of B
    lam: float        # sqrt(1 + stark^2)
    cos_phi: float
    sin_phi: float
    e_minus: float    # 1 - lam
    e_plus: float     # 1 + lam

    def basis(self) -> "SiteBasis":
        """The dressed site basis of this solution."""
        return SiteBasis("dressed", cos_phi=self.cos_phi, sin_phi=self.sin_phi)


def dressed_solution(e_z: float, params: ModelParams) -> DressedSolution:
    """Dressed single-molecule states for field e_z at the chain's dipole scale.

    The 2x2 block of H_rot - mu E_z cos(theta) on {|0,0>, |1,0>} is
    [[0, -w], [-w, 2]] with w = e_z v / 3; its eigenvectors are
    |-> = cos(phi)|0,0> - sin(phi)|1,0> and |+> = sin(phi)|0,0> + cos(phi)|1,0>
    with cos(phi) = sqrt((1 + lam) / (2 lam)) and sin(phi) <= 0.
    """
    if e_z < 0:
        raise ValueError(f"e_z must be >= 0, got {e_z}")
    w = e_z * params.v_dip / 3.0
    lam = np.hypot(1.0, w)
    cos_phi = np.sqrt((1.0 + lam) / (2.0 * lam))
    sin_phi = -w / np.sqrt(2.0 * lam * (1.0 + lam))
    return DressedSolution(
        e_z=e_z, stark=w, lam=lam, cos_phi=cos_phi, sin_phi=sin_phi,
        e_minus=1.0 - lam, e_plus=1.0 + lam,
    )


@dataclass(frozen=True)
class SiteBasis:
    """Four-state single-rotor basis, bare or field-dressed.

    A dressed basis carries its dressing angle phi; at e_z = 0 (phi = 0) it
    coincides with the bare one.
    """

    kind: str                  # "bare" or "dressed"
    cos_phi: float = 1.0
    sin_phi: float = 0.0

    def __post_init__(self):
        if self.kind not in ("bare", "dressed"):
            raise ValueError(f"unknown basis kind {self.kind!r}")
        if self.kind == "bare" and (self.cos_phi, self.sin_phi) != (1.0, 0.0):
            raise ValueError("bare basis carries no dressing angle")

    def rotation(self) -> np.ndarray:
        """4x4 rotation whose columns are the basis states in bare coordinates."""
        u = np.eye(4)
        if self.kind == "dressed":
            u[0, 0], u[1, 0] = self.cos_phi, -self.sin_phi
            u[0, 1], u[1, 1] = self.sin_phi, self.cos_phi
        return u


def bare_basis() -> SiteBasis:
    return SiteBasis("bare")


def dressed_basis(params: ModelParams) -> SiteBasis:
    return dressed_solution(params.e_z, params).basis()


@dataclass(frozen=True)
class SiteOperator:
    basis: SiteBasis
    matrix: np.ndarray


def _cos_theta_bare() -> np.ndarray:
    m = np.zeros((4, 4))
    m[0, 1] = m[1, 0] = 1.0 / SQRT3
    return m


def _t_plus_bare() -> np.ndarray:
    m = np.zeros((4, 4))
    m[2, 0] = -SQRT23   # <1,+1|T+|0,0>
    m[0, 3] = +SQRT23   # <0,0|T+|1,-1>
    return m


_BARE_MATRICES = {
    "cos_theta": _cos_theta_bare,
    "t_plus": _t_plus_bare,
    "t_minus": lambda: _t_plus_bare().T,
    "jz": lambda: np.diag([0.0, 0.0, 1.0, -1.0]),
}


def site_operator(kind: str, basis: SiteBasis) -> SiteOperator:
    """Single-site operator matrix in the fixed 4-state ordering."""
    if kind not in _BARE_MATRICES:
        raise ValueError(f"unknown operator kind {kind!r}")
    m = _BARE_MATRICES[kind]()
    if basis.kind == "dressed":
        u = basis.rotation()
        m = u.T @ m @ u
    return SiteOperator(basis=basis, matrix=m)


def free_site_hamiltonian() -> np.ndarray:
    """Free rotor energies diag(0, 2, 2, 2), bare basis."""
    return np.diag([rotor_energy(0), rotor_energy(1), rotor_energy(1), rotor_energy(1)])


def stark_site_hamiltonian(params: ModelParams) -> np.ndarray:
    """Field term -mu E_z cos(theta) = -(e_z v / sqrt(3)) cos(theta), bare basis."""
    return -(params.e_z * params.v_dip / SQRT3) * _cos_theta_bare()


def pair_dipole_operator(basis: SiteBasis, params: ModelParams) -> np.ndarray:
    """Nearest-neighbour dipole-dipole interaction on the 4 (x) 4 pair space.

    V = v [ -2 cos(theta) (x) cos(theta) + (T+ (x) T- + T- (x) T+) / 2 ],
    which conserves the total axial angular momentum of the pair.
    """
    c = site_operator("cos_theta", basis).matrix
    tp = site_operator("t_plus", basis).matrix
    tm = site_operator("t_minus", basis).matrix
    return params.v_dip * (-2.0 * np.kron(c, c) + 0.5 * (np.kron(tp, tm) + np.kron(tm, tp)))


@dataclass(frozen=True)
class TwoMoleculeReference:
    """Analytic one-excitation eigensystem of two molecules at zero field.

    States are 16-component vectors on the bare pair space.  The m = +-1
    levels come in degenerate pairs; their entanglement and Jz variance are
    quoted for the equal-weight two-state mixture.
    """

    params: ModelParams
    states: dict          # name -> 16-vector
    energies: dict        # name -> energy (units of B, absolute)
    log_negativity: dict  # "m0_lower", "m0_upper", "m1_lower", "m1_upper"
    jz_variance: dict     # same keys


def two_molecule_reference(params: ModelParams) -> TwoMoleculeReference:
    """Calibration fixture: N = 2, e_z = 0, exact eigensystem and measures."""
    if params.n_molecules != 2:
        raise ValueError("reference solution is defined for N = 2")
    if params.e_z != 0.0:
        raise ValueError("reference solution is defined at e_z = 0")
    v = params.v_dip

    def pair_state(local_a, local_b, sign):
        vec = np.zeros(16)
        vec[4 * local_a + 0] = 1.0 / np.sqrt(2.0)
        vec[4 * 0 + local_b] = sign / np.sqrt(2.0)
        return vec

    # m = 0: (|1,0>|0,0> -+ |0,0>|1,0>)/sqrt(2) at 2 +- 2v/3
    # m = +-1: (|1,+-1>|0,0> +- |0,0>|1,+-1>)/sqrt(2) at 2 +- v/3
    states = {
        "m0_upper": pair_state(1, 1, -1.0),
        "m0_lower": pair_state(1, 1, +1.0),
        "m1_upper_up": pair_state(2, 2, +1.0),
        "m1_upper_down": pair_state(3, 3, +1.0),
        "m1_lower_up": pair_state(2, 2, -1.0),
        "m1_lower_down": pair_state(3, 3, -1.0),
    }
    energies = {
        "m0_upper": 2.0 + 2.0 * v / 3.0,
        "m0_lower": 2.0 - 2.0 * v / 3.0,
        "m1_upper": 2.0 + v / 3.0,
        "m1_lower": 2.0 - v / 3.0,
    }
    # log-negativity: Bell-like m = 0 states give exactly 1; the equal-weight
    # m = +-1 mixtures have a single negative eigenvalue -sqrt(2)/4
    l_mix = np.log2(1.0 + np.sqrt(2.0) / 2.0)
    log_negativity = {"m0_lower": 1.0, "m0_upper": 1.0, "m1_lower": l_mix, "m1_upper": l_mix}
    jz_variance = {"m0_lower": 0.0, "m0_upper": 0.0, "m1_lower": 1.0, "m1_upper": 1.0}
    return TwoMoleculeReference(
        params=params, states=states, energies=energies,
        log_negativity=log_negativity, jz_variance=jz_variance,
    )
