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

Each option is one `OPTIONS` row: a flag, the config key with underscores for
dashes, and one type/finiteness check for both; `--help` lists every option.
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

# key -> (type or choices, default, help); the key is the config key and, with
# dashes, the flag.  A None default, or a null for it, leaves the option unset.
# The dipole scale has no canonical value: v = 0.1 is echoed into every output.
OPTIONS = {
    "n": (int, 50, "number of molecules"),
    "v": (float, 0.1, "dimensionless dipole scale"),
    "ez": (float, 0.0, "field amplitude for single-point experiments"),
    "dipole_debye": (float, None, "dipole moment in Debye"),
    "b_ghz": (float, None, "rotational constant in GHz"),
    "r_nm": (float, None, "intermolecular spacing in nm"),
    "field_v_per_m": (float, None, "electric field in V/m"),
    "ez_min": (float, 0.0, "lowest field of the e_z grid (default per experiment)"),
    "ez_max": (float, 1.0, "highest field of the e_z grid (default per experiment)"),
    "ez_steps": (int, 2, "number of e_z grid points (default per experiment)"),
    "t_min": (float, 0.2, "lowest rescaled temperature"),
    "t_max": (float, 1.2, "highest rescaled temperature"),
    "t_steps": (int, 20, "number of temperatures"),
    "d": (list, [1, 10, 25], "comma-separated pair distances, e.g. 1,10,25"),
    "p": (list, [1, 26], "comma-separated site positions, e.g. 1,26"),
    "observable": (str, None, "thermal observable: lprime:P, ld:D or jzvar"),
    "out": (str, None, "output path (default: rotorchain_<experiment>.<format>, .json for validate)"),
    "format": (FORMATS, "csv", "output format"),
    "workers": (int, 1, "parallel workers for grid scans"),
}
KIND_NAMES = {int: "an integer", float: "a finite number", str: "a string", list: "a list of integers"}

# (ez_min, ez_max, ez_steps) per scan experiment, in place of the table's defaults
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
    for key, (kind, _, text) in OPTIONS.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(kind, tuple):
            parser.add_argument(flag, choices=kind, help=text)
        else:
            parser.add_argument(flag, type=kind if kind in (int, float) else str, help=text)
    return parser


def _load_config_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    unknown = sorted(set(data) - set(OPTIONS) - {"experiment"})
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    return data


def _check(key: str, value, kind):
    """Return a flag or config value of the option's kind, else raise naming the key.

    No bool or string is a number, a float must be finite (no nan, no integer
    beyond float range), and a position list is a list of integers or a
    comma-separated string of them.
    """
    if isinstance(kind, tuple):
        if value in kind:
            return value
        raise ValueError(f"unknown {OPTIONS[key][2]} {value!r}; expected one of {', '.join(kind)}")
    if kind is list and isinstance(value, str):
        try:
            value = [int(tok) for tok in value.split(",") if tok.strip()]
        except ValueError:
            raise ValueError(f"{key} = {value!r} must be {KIND_NAMES[kind]}") from None
    if kind is list and isinstance(value, list):
        return [_check(key, x, int) for x in value]
    if not isinstance(value, bool):
        if kind is float and isinstance(value, (int, float)) and abs(value) <= sys.float_info.max:
            return float(value)
        if kind in (int, str) and isinstance(value, kind):
            return value
    raise ValueError(f"{key} = {value!r} must be {KIND_NAMES[kind]}")


def _in_range(key: str, positions: list, upper: int) -> list:
    for x in positions:
        if not 1 <= x <= upper:
            raise ValueError(f"{key} = {x} is outside 1..{upper} for this chain")
    return positions


def resolve(args: argparse.Namespace) -> RunConfig:
    """Merge flags over config-file values over defaults, checking each value by its table row."""
    file_cfg = _load_config_file(args.config) if args.config else {}
    experiment = args.experiment
    if file_cfg.get("experiment", experiment) != experiment:
        raise ValueError(f"config experiment = {file_cfg['experiment']!r} differs from the command's {experiment!r}")
    defaults = {key: default for key, (_, default, _) in OPTIONS.items()}
    defaults.update(zip(("ez_min", "ez_max", "ez_steps"), EZ_GRID_DEFAULTS.get(experiment, ())))

    def pick(key):
        value = getattr(args, key)
        if value is None:
            value = file_cfg.get(key, defaults[key])
        if value is None and defaults[key] is None:
            return None
        return _check(key, value, OPTIONS[key][0])

    n = pick("n")
    physical = {}
    phys_values = {key: pick(key) for key in ("dipole_debye", "b_ghz", "r_nm", "field_v_per_m")}
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
        v = pick("v")
        ez = pick("ez")

    if experiment == "twomol":
        n = 2  # the calibration table is defined for two molecules
    ez_grid = manifold.field_grid(np.linspace(pick("ez_min"), pick("ez_max"), pick("ez_steps")))

    t_min, t_max, t_steps = pick("t_min"), pick("t_max"), pick("t_steps")
    if t_steps < 1 or t_max < t_min or t_min <= 0:
        raise ValueError("temperature grid must be positive, ascending and non-empty")
    t_grid = np.linspace(t_min, t_max, t_steps)

    # the N = 50 default positions are clamped to the chain; given ones are checked
    if args.d is None and "d" not in file_cfg:
        d_list = [d for d in defaults["d"] if d <= n - 1] or [1]
    else:
        d_list = _in_range("d", pick("d"), n - 1)
    if args.p is None and "p" not in file_cfg:
        p_list = [p for p in defaults["p"] if p <= n] or [n // 2 + 1]
    else:
        p_list = _in_range("p", pick("p"), n)

    observable_raw = pick("observable")
    observable = thermal.parse_observable(observable_raw) if observable_raw else ("lprime", n // 2 + 1)
    if observable_raw:  # the default, the central site, exists on every chain
        _in_range(f"observable {observable[0]}", observable[1:], n if observable[0] == "lprime" else n - 1)

    fmt = pick("format")
    # the validate report is JSON whatever the format
    out = pick("out") or f"rotorchain_{experiment}.{'json' if experiment == 'validate' else fmt}"
    workers = pick("workers")
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
