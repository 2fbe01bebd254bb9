"""Regenerate perfbench/reference.json: reference outputs for every input variant.

    python3 perfbench/make_reference.py

Runs each workload's invocations for every variant in fresh processes,
requires every invariant check to pass, and stores the summaries that
checks.compare() reads.  Run it only on a commit whose numbers are the
agreed reference; the benchmark then flags any output that moves by more
than checks.REFERENCE_ATOL.
"""

import json
import os
import sys

import checks
import run
import workloads


def crossing_n50(workdir) -> float:
    """e_z* of the N = 50, v = 0.1 chain that the pairwise/thermal grids straddle."""
    path = os.path.join(workdir, "crossing_n50.csv")
    argv = ["-m", "rotorchain.cli", "crossing", "--n", "50", "--v", "0.1", "--out", path]
    *_, code = run.spawn(argv, path + ".stdout")
    if code != 0:
        raise RuntimeError(f"crossing at N = 50 failed with exit code {code}")
    _, _, rows = checks.read_csv(path)
    return float(rows[0][2])


def main() -> int:
    workdir = os.path.join(run.OUT, "reference")
    os.makedirs(workdir, exist_ok=True)
    e_star = crossing_n50(workdir)
    stored = {"e_star_n50": e_star, "atol": checks.REFERENCE_ATOL, "workloads": {}}
    for name in workloads.WORKLOADS:
        stored["workloads"][name] = {}
        for variant in range(workloads.VARIANTS):
            workload = workloads.make(name, variant)
            paths = run.output_paths(workload, workdir)
            for inv, path in zip(workload.invocations, paths):
                *_, code = run.spawn(["-m", "rotorchain.cli", *run.cli_args(inv, path)], path + ".stdout")
                if code != 0:
                    raise RuntimeError(f"{name} variant {variant}: {inv.argv[0]} exited {code}")
            summaries, errors = checks.summarize(workload.invocations, paths, {"e_star_n50": e_star})
            if any(errors):
                raise RuntimeError(f"{name} variant {variant} breaks an invariant: {errors}")
            stored["workloads"][name][str(variant)] = summaries
            print(f"{name} variant {variant}: ok", flush=True)
    with open(checks.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(stored, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
