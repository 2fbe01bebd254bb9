"""Benchmark workloads: seeded CLI argument lists and their point counts.

A workload is one or more `rotorchain` invocations run back to back.  The
seed picks one of `VARIANTS` input variants; each variant jitters grid end
points (and `validate`'s v, e_z) inside windows that keep the point counts
fixed and keep the lowest-level crossing inside the `pairwise` and `thermal`
field grids.  Reference outputs are stored for every variant, so any seed
can be checked against them.
"""

import random
from dataclasses import dataclass

VARIANTS = 16

# N = 50 pairwise/thermal chains share v = 0.1, whose crossing sits at
# e_z* = 9.1383; every jitter window below leaves it strictly inside.
PAIRWISE_FIELDS = 7
THERMAL_T_STEPS = 4
# observable -> field count.  `jzvar` costs little besides manifold_matrix,
# whose run time is bimodal (see README.md, "Left out"), so its grid is kept
# short; `ld:1` is left out for the same reason.
THERMAL_FIELDS = {"lprime:26": 5, "jzvar": 2}
SPECTRUM_N = 400
SPECTRUM_FIELDS = 150


@dataclass(frozen=True)
class Invocation:
    """One CLI run: its argv (after the program name) and its output file suffix."""

    argv: tuple
    suffix: str
    points: int


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    variant: int
    invocations: tuple

    @property
    def points(self) -> int:
        return sum(inv.points for inv in self.invocations)


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _pairwise(rng):
    argv = (
        "pairwise", "--n", "50", "--v", "0.1", "--d", "1,10,25", "--p", "1,26",
        "--ez-min", _fmt(rng.uniform(0.0, 0.6)), "--ez-max", _fmt(rng.uniform(11.4, 12.0)),
        "--ez-steps", str(PAIRWISE_FIELDS), "--workers", "1",
    )
    return (Invocation(argv, "csv", PAIRWISE_FIELDS),)


def _thermal(rng):
    grid = (
        "--t-min", _fmt(rng.uniform(0.2, 0.3)), "--t-max", _fmt(rng.uniform(1.1, 1.2)),
        "--t-steps", str(THERMAL_T_STEPS),
        "--ez-min", _fmt(rng.uniform(0.0, 1.5)), "--ez-max", _fmt(rng.uniform(13.5, 15.0)),
    )
    return tuple(
        Invocation(("thermal", "--n", "50", "--v", "0.1", *grid, "--ez-steps", str(fields),
                    "--observable", obs, "--workers", "1"), "csv", THERMAL_T_STEPS * fields)
        for obs, fields in THERMAL_FIELDS.items()
    )


def _spectrum(rng):
    n = str(SPECTRUM_N)
    spectrum = (
        "spectrum", "--n", n, "--v", "0.1",
        "--ez-min", _fmt(rng.uniform(0.0, 1.0)), "--ez-max", _fmt(rng.uniform(24.0, 25.0)),
        "--ez-steps", str(SPECTRUM_FIELDS), "--workers", "1",
    )
    crossing = (
        "crossing", "--n", n, "--v", "0.1",
        "--ez-min", _fmt(rng.uniform(0.001, 1.0)), "--ez-max", _fmt(rng.uniform(25.0, 30.0)),
        "--workers", "1",
    )
    return (Invocation(spectrum, "csv", SPECTRUM_FIELDS), Invocation(crossing, "csv", 0))


def _validate(rng):
    argv = (
        "validate", "--n", "5", "--v", _fmt(rng.uniform(0.08, 0.12)),
        "--ez", _fmt(rng.uniform(0.0, 4.0)), "--workers", "1",
    )
    return (Invocation(argv, "json", 1),)


# Why each workload exists is recorded in BENCHMARK.json; in short: the
# partial-transpose path, the thermal mixture, the tridiagonal/serialization
# path that bypasses entanglement, and the only path through `oracle`.
WORKLOADS = {
    "pairwise-n50": _pairwise,
    "thermal-n50": _thermal,
    "spectrum-n400": _spectrum,
    "validate-n5": _validate,
}


def make(name: str, seed: int) -> Workload:
    """The workload's invocations for a seed; equal seeds give equal argv."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    variant = seed % VARIANTS
    rng = random.Random(f"{name}:{variant}")
    return Workload(name, seed, variant, WORKLOADS[name](rng))
