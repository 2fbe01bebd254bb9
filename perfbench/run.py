"""Benchmark for the rotorchain CLI: whole runs timed from outside, plus a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pairwise-n50 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

`--trace 0` launches one fresh interpreter per CLI invocation and reports the
end-to-end metrics (wall_s, points_per_s, setup_s, peak_rss_mb); the times are
scaled to a reference host speed measured by a fixed calibration kernel run
between invocations (see `calibrate`), and the raw times are printed and
recorded beside them.  `--trace 1`
calls `rotorchain.cli.main` in this process with span wrappers installed and
reports per-layer call counts and self times.  Every output is checked (see
checks.py).  Human-readable lines come first; the last stdout line is one
JSON object {correct, attempted, failed, metrics}.  A record with the
environment, the seed, every argv and every sample goes to perfbench/out/.
"""

import os

# OpenBLAS reads its thread count when numpy loads, so it is fixed before any
# import that could load numpy; children inherit it through the environment.
BLAS_THREADS = 1
os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_PROBES = 7
TRACE_IMPORT_PROBES = 3
INVOCATION_TIMEOUT_S = 100.0  # a hung child is killed well inside the 180 s a run may take

# Host speed.  CPU speed on a shared host drifts by tens of percent over
# minutes, with the load of other machines, and it moves the program's times
# and a fixed kernel's time together.  Each timed interval is therefore
# bracketed by runs of `calibrate`, which runs LAPACK's dense symmetric
# eigensolver (the bulk of most workloads' compute) but no rotorchain code,
# and reported as raw seconds x CAL_REF_S / (mean of the bracketing
# calibrations): seconds at the speed where the kernel takes CAL_REF_S.  A change to rotorchain cannot move the kernel, so it moves the
# scaled times exactly as it moves the raw ones.  The run is pinned to one CPU
# (see `main`), so the kernel and the children meet the same CPU speed.
CAL_REF_S = 0.05
CPUS_USABLE = sorted(os.sched_getaffinity(0))
PINNED_CPU = CPUS_USABLE[0]
CAL_REPEATS = 10
_CAL_MATRIX = None


def calibrate() -> float:
    """Mean time of CAL_REPEATS runs of a fixed kernel, sixteen dense
    eigensolves of about CAL_REF_S seconds in all."""
    global _CAL_MATRIX
    import numpy as np

    if _CAL_MATRIX is None:
        sym = np.random.default_rng(0).standard_normal((256, 256))
        _CAL_MATRIX = sym + sym.T
        np.linalg.eigvalsh(_CAL_MATRIX)  # LAPACK's first call is not timed
    start = time.perf_counter()
    for _ in range(CAL_REPEATS * 16):
        np.linalg.eigvalsh(_CAL_MATRIX)
    return (time.perf_counter() - start) / CAL_REPEATS


def scaled(seconds: float, cal_before: float, cal_after: float) -> float:
    """Raw seconds expressed at the reference host speed."""
    return seconds * CAL_REF_S / (0.5 * (cal_before + cal_after))


# A fresh interpreter up to rotorchain.cli imported and the argv resolved,
# with no layer work done; prints the import time and the package location.
PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import rotorchain, rotorchain.cli as cli\n"
    "t1 = time.perf_counter()\n"
    "cli.resolve(cli.build_parser().parse_args(sys.argv[1:]))\n"
    "print(t1 - t0, rotorchain.__file__)\n"
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
    return env


# Children are started through this small launcher, not from the benchmark
# process itself.  exec records the high-water RSS of the memory image it
# replaces in the new program's ru_maxrss, and a child spawned from the
# benchmark replaces the benchmark's image, which holds numpy, scipy and the
# parsed outputs; a child of the launcher inherits only the launcher's few MB.
# argv: timeout_s stdout_path stderr_path executable args...; prints
# "wall_s cpu_s maxrss_kb minor_faults exit_code" for the child.
LAUNCHER = """
import os, signal, sys, time
timeout, out, err, exe, *argv = sys.argv[1:]
fds = [os.open(p, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644) for p in (out, err)]
actions = [(os.POSIX_SPAWN_DUP2, fds[0], 1), (os.POSIX_SPAWN_DUP2, fds[1], 2)]
start = time.perf_counter()
pid = os.posix_spawn(exe, [exe, *argv], os.environ, file_actions=actions)
signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
signal.setitimer(signal.ITIMER_REAL, float(timeout))
_, status, ru = os.wait4(pid, 0)
wall = time.perf_counter() - start
signal.setitimer(signal.ITIMER_REAL, 0)
print(wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss, ru.ru_minflt, os.waitstatus_to_exitcode(status))
"""


def spawn(args, stdout_path):
    """Run `python3 <args>` to exit; (wall_s, cpu_s, maxrss_kb, minor faults, exit code)."""
    argv = [sys.executable, "-I", "-S", "-c", LAUNCHER, str(INVOCATION_TIMEOUT_S),
            stdout_path, stdout_path + ".err", sys.executable, *args]
    # The launcher kills a hung child itself; its session is killed as a backstop.
    with subprocess.Popen(argv, env=child_env(), stdout=subprocess.PIPE, start_new_session=True) as launcher:
        try:
            report, _ = launcher.communicate(timeout=INVOCATION_TIMEOUT_S + 30)
        except subprocess.TimeoutExpired:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(launcher.pid, signal.SIGKILL)
            launcher.communicate()
            raise
    fields = report.split()
    if launcher.returncode != 0 or len(fields) != 5:
        raise RuntimeError(f"launcher failed with exit code {launcher.returncode} for {args[:2]}")
    return float(fields[0]), float(fields[1]), int(fields[2]), int(fields[3]), int(fields[4])


def probe(argv, workdir):
    """One set-up probe: (seconds to exit, import seconds); checks the source tree used."""
    path = os.path.join(workdir, "probe.out")
    wall, *_, code = spawn(["-c", PROBE, *argv], path)
    with open(path, "r", encoding="utf-8") as fh:
        fields = fh.read().split(maxsplit=1)
    if code != 0 or len(fields) != 2:
        raise RuntimeError(f"set-up probe failed with exit code {code}; see {path}.err")
    _check_origin(fields[1].strip())
    return wall, float(fields[0])


def _check_origin(path):
    if not os.path.abspath(path).startswith(os.path.join(SRC, "rotorchain") + os.sep):
        raise RuntimeError(f"rotorchain imported from {path}, not from {SRC}")


def output_paths(workload, workdir):
    return [os.path.join(workdir, f"inv{k}.{inv.suffix}") for k, inv in enumerate(workload.invocations)]


def cli_args(inv, path):
    return [*inv.argv, "--out", path]


def run_untraced(workload, workdir, reference, cal):
    """One iteration in fresh processes, each followed by a calibration.

    `cal` is the calibration taken just before; returns the sample dict (with
    per-invocation failures) and the last calibration, for the next call."""
    paths = output_paths(workload, workdir)
    walls, scaled_walls, cals, cpus, rss, faults, codes = [], [], [], [], [], [], []
    for inv, path in zip(workload.invocations, paths):
        wall, cpu, maxrss, minflt, code = spawn(["-m", "rotorchain.cli", *cli_args(inv, path)], path + ".stdout")
        cal_after = calibrate()
        walls.append(wall)
        scaled_walls.append(scaled(wall, cal, cal_after))
        cals.append(cal_after)
        cal = cal_after
        cpus.append(cpu)
        rss.append(maxrss)
        faults.append(minflt)
        codes.append(code)
    errors = checks.check_iteration(workload, paths, reference)
    for k, code in enumerate(codes):
        if code != 0:
            errors[k].insert(0, f"exit code {code}")
    sample = {"wall_s": sum(walls), "scaled_wall_s": sum(scaled_walls), "invocation_wall_s": walls,
              "calibration_s": cals, "cpu_s": sum(cpus), "peak_rss_kb": max(rss),
              "minor_faults": faults, "errors": errors}
    return sample, cal


def run_traced(workload, workdir, reference, cli):
    """One iteration through cli.main in this process with the tracer installed."""
    paths = output_paths(workload, workdir)
    tracer = spans.Tracer()
    codes = []
    start = time.perf_counter()
    with tracer:
        for k, (inv, path) in enumerate(zip(workload.invocations, paths)):
            tracer.run_id = k
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(cli.main(cli_args(inv, path)))
    wall = time.perf_counter() - start
    errors = checks.check_iteration(workload, paths, reference)
    for k, code in enumerate(codes):
        if code != 0:
            errors[k].insert(0, f"exit code {code}")
    leftover = spans.leftover_wrappers()
    if leftover:
        errors[-1].append(f"wrappers left installed: {leftover}")
    spanned = sum(s[2] - s[1] for s in tracer.spans if s[3] < 0)
    return {"wall_s": wall, "remainder_s": wall - spanned,
            "layers": spans.span_metrics(tracer.spans), "errors": errors}


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _cache_sizes() -> dict:
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(index, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(index, "size")) as fh:
                caches[f"L{level}_{kind.lower()}"] = fh.read().strip()
        except OSError:
            continue
    return caches


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() or None


def environment() -> dict:
    """What the numbers depend on; reading these changes no machine setting."""
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "rotorchain", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(CPUS_USABLE),
        "pinned_cpu": PINNED_CPU,
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version"),
        "openblas_scipy": scipy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version"),
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def setup_probes(workload, workdir, count):
    """Warm-up probe (discarded), then `count` probes cycling through the argv.

    Returns the raw probe times, the same at the reference host speed (the
    batch is bracketed by calibrations) and the in-child import times."""
    invs = workload.invocations
    probe(invs[0].argv, workdir)
    cal_before = calibrate()
    samples = [probe(invs[k % len(invs)].argv, workdir) for k in range(count)]
    cal_after = calibrate()
    raw = [s[0] for s in samples]
    return raw, [scaled(t, cal_before, cal_after) for t in raw], [s[1] for s in samples]


def measure(workload, seconds, reference):
    """Untraced run: end-to-end metrics from fresh processes.

    Returns the metrics, the raw times and calibrations (printed and
    recorded, not part of the result line), the samples and the errors."""
    workdir = os.path.join(OUT, f"{workload.name}-seed{workload.seed}")
    os.makedirs(workdir, exist_ok=True)
    raw_setup, setup, _ = setup_probes(workload, workdir, SETUP_PROBES)
    setup_s = statistics.median(setup)
    samples = []
    start = time.perf_counter()
    cal = calibrate()
    while not samples or time.perf_counter() - start < seconds:
        sample, cal = run_untraced(workload, workdir, reference, cal)
        samples.append(sample)
    n_inv = len(workload.invocations)
    metrics = {
        "wall_s": ([s["scaled_wall_s"] for s in samples], "s"),
        "points_per_s": ([workload.points / (s["scaled_wall_s"] - n_inv * setup_s) for s in samples], "1/s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": ([s["peak_rss_kb"] / 1024.0 for s in samples], "MB"),
    }
    raw = {
        "raw.wall_s": ([s["wall_s"] for s in samples], "s"),
        "raw.setup_s": (raw_setup, "s"),
        "host.calibration_s": ([c for s in samples for c in s["calibration_s"]], "s"),
    }
    return metrics, raw, samples, [errs for s in samples for errs in s["errors"]]


def measure_traced(workload, seconds, reference):
    """Traced run: per-layer counts and self times, plus trace overhead."""
    workdir = os.path.join(OUT, f"{workload.name}-seed{workload.seed}-traced")
    os.makedirs(workdir, exist_ok=True)
    start = time.perf_counter()
    setup, _, imports = setup_probes(workload, workdir, TRACE_IMPORT_PROBES)
    plain = []
    cal = calibrate()
    while not plain or time.perf_counter() - start < seconds / 3:
        sample, cal = run_untraced(workload, workdir, reference, cal)
        plain.append(sample)
    sys.path.insert(0, SRC)
    import rotorchain.cli as cli

    _check_origin(cli.__file__)

    traced = []
    while not traced or time.perf_counter() - start < seconds:
        traced.append(run_traced(workload, workdir, reference, cli))
    errors = [e for s in plain + traced for e in s["errors"]]
    counts = [{k: v for k, v in s["layers"].items() if k.endswith(spans.COUNT_SUFFIXES)} for s in traced]
    if any(c != counts[0] for c in counts):
        errors[-1] = errors[-1] + ["per-layer counts differ between traced iterations"]
    n_inv = len(workload.invocations)
    plain_compute = statistics.median(s["wall_s"] for s in plain) - n_inv * statistics.median(setup)
    metrics = {}
    for name, value in traced[0]["layers"].items():
        values = [value] if name in counts[0] else [s["layers"][name] for s in traced]
        metrics[name] = (values, _layer_unit(name))
    metrics["cli.import_s"] = (imports, "s")
    metrics["cli.child_cpu_s"] = ([s["cpu_s"] for s in plain], "s")
    metrics["trace.overhead"] = ([s["wall_s"] / plain_compute for s in traced], "ratio")
    metrics["trace.remainder_s"] = ([s["remainder_s"] for s in traced], "s")
    return metrics, {}, plain + traced, errors


def _layer_unit(name):
    if name.endswith((".per_density", ".per_field")):
        return "ratio"
    if name.endswith(("bytes", "bytes_out")):
        return "B"
    return "s" if name.endswith("_s") else "count"


def report(workload, trace, seconds, reference, env):
    measurer = measure_traced if trace else measure
    metrics, raw, samples, errors = measurer(workload, seconds, reference)
    attempted = len(errors)
    failed = sum(1 for errs in errors if errs)
    print(f"workload {workload.name}  seed {workload.seed}  variant {workload.variant}  "
          f"blas_threads {BLAS_THREADS}  trace {trace}")
    for name, (values, unit) in {**metrics, **raw}.items():
        q1, med, q3 = quartiles(values)
        print(f"  {name:<52} {med:.6g} {unit}  (median of n={len(values)}; quartiles {q1:.6g} .. {q3:.6g})")
    print(f"  {'error_rate':<52} {failed / attempted:.6g}  ({failed} of {attempted} invocations failed)")
    for errs in errors:
        for message in errs:
            print(f"  FAILED: {message}")
    record = {
        "workload": workload.name, "seed": workload.seed, "variant": workload.variant,
        "trace": trace, "seconds": seconds, "environment": env,
        "argv": [list(inv.argv) for inv in workload.invocations],
        "metrics": {k: {"values": v, "unit": u} for k, (v, u) in {**metrics, **raw}.items()},
        "calibration_reference_s": CAL_REF_S,
        "samples": samples, "failed": failed, "attempted": attempted,
    }
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{workload.name}-seed{workload.seed}-trace{trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    result = {name: {"value": statistics.median(values), "unit": unit} for name, (values, unit) in metrics.items()}
    return failed == 0, attempted, failed, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rotorchain", "cli.py")):
        print(f"no rotorchain sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    # The calibration tracks the speed of the CPU it runs on, and the two CPUs
    # of a small shared host drift independently, so this process and every
    # child (which inherits the mask) stay on one CPU.
    os.sched_setaffinity(0, {PINNED_CPU})
    reference = checks.load_reference()
    env = environment()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        ok, att, fail, result = report(workloads.make(name, args.seed), args.trace, args.seconds, reference, env)
        correct, attempted, failed = correct and ok, attempted + att, failed + fail
        if len(names) > 1:
            result = {f"{name}.{k}": v for k, v in result.items()}
            print(json.dumps({"correct": ok, "attempted": att, "failed": fail, "metrics": result}))
        metrics.update(result)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
