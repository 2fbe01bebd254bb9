"""Command-line front end: named experiments writing CSV/JSON scan data.

Experiments
-----------
twomol     two-molecule calibration table (energies, L, Jz variance)
spectrum   ground + excited manifold energies versus e_z
pairwise   L_d(e_z) and L'_p(e_z) of the lowest excited level
partition  L'_p(e_z) only
thermal    thermal observable over a (T, e_z) grid
crossing   field where the lowest excited levels of the two subspaces cross
validate   full-space oracle report (JSON)

Exit status: 0 success, 1 configuration error, 2 numeric/resource error.
"""

import argparse
import json
import sys
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import entanglement, manifold, model, oracle, thermal
from .errors import NoCrossingError, ResourceLimitError
from .results import ScanResult

EXPERIMENTS = ("twomol", "spectrum", "pairwise", "partition", "thermal", "crossing", "validate")
FORMATS = ("csv", "json")

CONFIG_KEYS = {
    "experiment", "n", "v", "ez",
    "dipole_debye", "b_ghz", "r_nm", "field_v_per_m",
    "ez_min", "ez_max", "ez_steps",
    "t_min", "t_max", "t_steps",
    "d", "p", "observable",
    "out", "format", "workers",
}

# per-experiment defaults; the dipole scale has no canonical value, so the
# default v = 0.1 is a documented choice echoed into every output
DEFAULTS = {
    "n": 50,
    "v": 0.1,
    "ez": 0.0,
    "t_min": 0.2,
    "t_max": 1.2,
    "t_steps": 20,
    "d": [1, 10, 25],
    "p": [1, 26],
    "observable": None,  # thermal default: lprime at the central site
    "format": "csv",
    "workers": 1,
}

# (ez_min, ez_max, ez_steps) per experiment
EZ_GRID_DEFAULTS = {
    "spectrum": (0.0, 25.0, 200),
    "pairwise": (0.0, 12.0, 121),
    "partition": (0.0, 12.0, 121),
    "thermal": (0.0, 15.0, 20),
    "crossing": (1e-3, 30.0, 2),
}


@dataclass
class RunConfig:
    experiment: str
    n: int
    v: float
    ez: float
    ez_grid: np.ndarray
    t_grid: np.ndarray
    d_list: list
    p_list: list
    observable: tuple
    out: str
    fmt: str
    workers: int
    physical: dict = field(default_factory=dict)

    def params(self) -> model.ModelParams:
        return model.ModelParams(self.n, self.v, self.ez)

    def metadata(self) -> dict:
        meta = {
            "experiment": self.experiment,
            "n_molecules": self.n,
            "v_dip": self.v,
            "e_z": self.ez,
            "ez_min": float(self.ez_grid[0]),
            "ez_max": float(self.ez_grid[-1]),
            "ez_steps": len(self.ez_grid),
            "t_min": float(self.t_grid[0]),
            "t_max": float(self.t_grid[-1]),
            "t_steps": len(self.t_grid),
            "d_list": ",".join(str(d) for d in self.d_list),
            "p_list": ",".join(str(p) for p in self.p_list),
            "observable": thermal.observable_name(self.observable),
            "workers": self.workers,
        }
        meta.update({f"physical_{k}": v for k, v in self.physical.items()})
        return meta


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotorchain",
        description="Dipole-coupled polar rotor chain: spectra, entanglement, thermal scans.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", help="JSON config file; flags override file values")
    parser.add_argument("--n", type=int, help="number of molecules")
    parser.add_argument("--v", type=float, help="dimensionless dipole scale")
    parser.add_argument("--ez", type=float, help="field amplitude for single-point experiments")
    parser.add_argument("--dipole-debye", type=float, help="dipole moment in Debye")
    parser.add_argument("--b-ghz", type=float, help="rotational constant in GHz")
    parser.add_argument("--r-nm", type=float, help="intermolecular spacing in nm")
    parser.add_argument("--field-v-per-m", type=float, help="electric field in V/m")
    parser.add_argument("--ez-min", type=float)
    parser.add_argument("--ez-max", type=float)
    parser.add_argument("--ez-steps", type=int)
    parser.add_argument("--t-min", type=float)
    parser.add_argument("--t-max", type=float)
    parser.add_argument("--t-steps", type=int)
    parser.add_argument("--d", help="comma-separated pair distances, e.g. 1,10,25")
    parser.add_argument("--p", help="comma-separated site positions, e.g. 1,26")
    parser.add_argument("--observable", help="thermal observable: lprime:P, ld:D or jzvar")
    parser.add_argument("--out", help="output path (default: rotorchain_<experiment>.<format>)")
    parser.add_argument("--format", choices=FORMATS, dest="fmt")
    parser.add_argument("--workers", type=int, help="parallel workers for grid scans")
    return parser


def _load_config_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    unknown = sorted(set(data) - CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    return data


def _require_int(key: str, value):
    """Reject a config value that is not a JSON integer (bools and floats are not)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key} = {value!r} must be an integer")
    return value


def _positions(key: str, value, upper: int) -> list:
    """Parse a --d/--p list ("1,10,25" or a list) and reject entries outside 1..upper."""
    if isinstance(value, str):
        value = [int(tok) for tok in value.split(",") if tok.strip()]
    positions = list(value)
    for x in positions:
        _require_int(key, x)
        if not 1 <= x <= upper:
            raise ValueError(f"{key} = {x} is outside 1..{upper} for this chain")
    return positions


def resolve(args: argparse.Namespace) -> RunConfig:
    """Merge flags over config-file values over experiment defaults."""
    file_cfg = _load_config_file(args.config) if args.config else {}
    experiment = args.experiment
    if file_cfg.get("experiment", experiment) != experiment:
        raise ValueError(f"config experiment = {file_cfg['experiment']!r} differs from the command's {experiment!r}")
    ez_min, ez_max, ez_steps = EZ_GRID_DEFAULTS.get(experiment, (0.0, 1.0, 2))
    defaults = dict(DEFAULTS, ez_min=ez_min, ez_max=ez_max, ez_steps=ez_steps)

    def pick(key, flag_value):
        if flag_value is not None:
            return flag_value
        return file_cfg.get(key, defaults.get(key))

    n = _require_int("n", pick("n", args.n))
    physical = {}
    phys_values = {key: pick(key, getattr(args, key)) for key in ("dipole_debye", "b_ghz", "r_nm", "field_v_per_m")}
    core = (phys_values["dipole_debye"], phys_values["b_ghz"], phys_values["r_nm"])
    if any(v is not None for v in core):
        if any(v is None for v in core):
            raise ValueError("physical-unit input needs dipole_debye, b_ghz and r_nm together")
        phys = model.PhysicalParams(
            dipole_debye=phys_values["dipole_debye"],
            b_ghz=phys_values["b_ghz"],
            r_nm=phys_values["r_nm"],
            field_v_per_m=phys_values["field_v_per_m"] or 0.0,
        )
        converted = model.to_dimensionless(phys, n_molecules=n)
        v = converted.v_dip
        ez = converted.e_z
        physical = {k: v_ for k, v_ in phys_values.items() if v_ is not None}
        physical["converted_v_dip"] = v
        physical["converted_e_z"] = ez
    else:
        v = float(pick("v", args.v))
        ez = float(pick("ez", args.ez))

    if experiment == "twomol":
        n = 2  # the calibration table is defined for two molecules
    ez_min = float(pick("ez_min", args.ez_min))
    ez_max = float(pick("ez_max", args.ez_max))
    ez_steps = _require_int("ez_steps", pick("ez_steps", args.ez_steps))
    ez_grid = manifold.field_grid(np.linspace(ez_min, ez_max, ez_steps))

    t_min = float(pick("t_min", args.t_min))
    t_max = float(pick("t_max", args.t_max))
    t_steps = _require_int("t_steps", pick("t_steps", args.t_steps))
    if t_steps < 1 or t_max < t_min or t_min <= 0:
        raise ValueError("temperature grid must be positive, ascending and non-empty")
    t_grid = np.linspace(t_min, t_max, t_steps)

    # the N = 50 default positions are clamped to the chain; given ones are checked
    if args.d is None and "d" not in file_cfg:
        d_list = [d for d in DEFAULTS["d"] if d <= n - 1] or [1]
    else:
        d_list = _positions("d", pick("d", args.d), n - 1)
    if args.p is None and "p" not in file_cfg:
        p_list = [p for p in DEFAULTS["p"] if p <= n] or [n // 2 + 1]
    else:
        p_list = _positions("p", pick("p", args.p), n)

    observable_raw = pick("observable", args.observable)
    observable = thermal.parse_observable(observable_raw) if observable_raw else ("lprime", n // 2 + 1)

    fmt = pick("format", args.fmt)
    if fmt not in FORMATS:
        raise ValueError(f"unknown output format {fmt!r}; expected one of {', '.join(FORMATS)}")
    out = pick("out", args.out) or f"rotorchain_{experiment}.{fmt}"
    workers = _require_int("workers", pick("workers", args.workers))
    if workers < 1:
        raise ValueError(f"workers = {workers} must be at least 1")
    return RunConfig(
        experiment=experiment, n=n, v=v, ez=ez, ez_grid=ez_grid, t_grid=t_grid,
        d_list=d_list, p_list=p_list, observable=observable,
        out=out, fmt=fmt, workers=workers, physical=physical,
    )


def _two_molecule_result(config: RunConfig) -> ScanResult:
    params = model.ModelParams(2, config.v, 0.0)
    reference = model.two_molecule_reference(params)
    jz1 = model.site_operator("jz", model.bare_basis()).matrix
    jz2 = np.kron(jz1, np.eye(4)) + np.kron(np.eye(4), jz1)

    def measured(vectors):
        weights = np.full(len(vectors), 1.0 / len(vectors))
        rho = sum(w * np.outer(vec, vec.conj()) for w, vec in zip(weights, vectors))
        dm = entanglement.DensityMatrix(dims=(4, 4), matrix=rho)
        l_value = entanglement.log_negativity(dm, ((0,), (1,)))
        mean = float(np.real(np.trace(rho @ jz2)))
        mean_sq = float(np.real(np.trace(rho @ jz2 @ jz2)))
        return l_value, mean_sq - mean**2

    rows = []
    for name, members in (
        ("m0_lower", ["m0_lower"]),
        ("m0_upper", ["m0_upper"]),
        ("m1_lower", ["m1_lower_up", "m1_lower_down"]),
        ("m1_upper", ["m1_upper_up", "m1_upper_down"]),
    ):
        l_value, variance = measured([reference.states[m] for m in members])
        rows.append((name, reference.energies[name], l_value, variance))
    meta = config.metadata()
    meta["analytic_L_m0"] = reference.log_negativity["m0_lower"]
    meta["analytic_L_m1_mixture"] = reference.log_negativity["m1_lower"]
    return ScanResult(columns=("state", "energy", "log_negativity", "jz_variance"), rows=rows, metadata=meta)


def _pairwise_result(config: RunConfig, d_list: list) -> ScanResult:
    evaluate = partial(entanglement.lowest_excited_rows, d_list, config.p_list)
    chunks = manifold.scan_fields(config.params(), config.ez_grid, evaluate, config.workers)
    return ScanResult(
        columns=("e_z", "observable", "index", "subspace", "value", "per_pair_mean"),
        rows=[row for chunk in chunks for row in chunk],
        metadata=config.metadata(),
    )


def run(config: RunConfig) -> int:
    if config.experiment == "twomol":
        result = _two_molecule_result(config)
        result.write_csv(sys.stdout)
    elif config.experiment == "spectrum":
        result = manifold.spectrum_vs_field(config.params(), config.ez_grid, workers=config.workers)
        result.metadata.update(config.metadata())
    elif config.experiment == "pairwise":
        result = _pairwise_result(config, config.d_list)
    elif config.experiment == "partition":
        result = _pairwise_result(config, [])
    elif config.experiment == "thermal":
        result = thermal.thermal_scan(
            config.params(), config.t_grid, config.ez_grid, config.observable, workers=config.workers
        )
        result.metadata.update(config.metadata())
    elif config.experiment == "crossing":
        e_star = manifold.find_crossing(config.params(), config.ez_grid[0], config.ez_grid[-1])
        result = ScanResult(
            columns=("ez_lo", "ez_hi", "ez_star"),
            rows=[(float(config.ez_grid[0]), float(config.ez_grid[-1]), e_star)],
            metadata=config.metadata(),
        )
        print(f"crossing field e_z* = {format(e_star, '.17g')}")
    elif config.experiment == "validate":
        report = oracle.validate_manifold(config.params())
        payload = {"metadata": config.metadata(), "report": report.to_dict()}
        with open(config.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        return 0
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown experiment {config.experiment!r}")

    result.write(config.out, config.fmt)
    print(f"wrote {config.out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on invalid input and 0 after --help
        return 1 if exc.code else 0
    try:
        config = resolve(args)
    except (ValueError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    try:
        return run(config)
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (ResourceLimitError, NoCrossingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
