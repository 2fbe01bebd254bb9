"""Output checks for benchmark invocations.

Every invocation's output is checked twice:

* against invariants that hold for any seed (row structure, ascending
  levels, negativity bounds, the branch flip at the crossing, the crossing
  inside the spectrum's sign change, oracle deviations), and
* against reference values stored for the seed's input variant, with
  absolute tolerance `REFERENCE_ATOL` on numbers and exact string labels.

Checks return lists of failure messages; an empty list means the output
passed.  Plain Python only, so the benchmark's own process stays small.
"""

import csv
import json
import math
import os

REFERENCE_ATOL = 1e-9
EIGENVALUE_DEV_OVER_V2_MAX = 0.75
SAME_STATE_DEV_MAX = 1e-10
GRID_ATOL = 1e-12

REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def flags(argv) -> dict:
    """`--key value` pairs of an argv (experiment name excluded)."""
    return {argv[i]: argv[i + 1] for i in range(1, len(argv) - 1, 2)}


def linspace(lo: float, hi: float, steps: int) -> list:
    """The field/temperature grid the CLI builds with numpy.linspace."""
    if steps == 1:
        return [lo]
    step = (hi - lo) / (steps - 1)
    return [lo + k * step for k in range(steps - 1)] + [hi]


def read_csv(path):
    """(metadata, header, rows) of a CLI CSV file; rows are lists of strings."""
    meta, lines = {}, []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("# "):
                key, _, value = line[2:].rstrip("\n").partition(" = ")
                meta[key] = value
            else:
                lines.append(line)
    table = list(csv.reader(lines))
    if not table:
        raise ValueError("no header row")
    return meta, table[0], table[1:]


def _floats(cells):
    values = [float(c) for c in cells]
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"non-finite value among {cells}")
    return values


def _grid_errors(name, got, want):
    if len(got) != len(want):
        return [f"{name}: {len(got)} grid points, expected {len(want)}"]
    bad = [(g, w) for g, w in zip(got, want) if abs(g - w) > GRID_ATOL]
    return [f"{name}: grid value {bad[0][0]!r} != requested {bad[0][1]!r}"] if bad else []


# --------------------------------------------------------------- per experiment
#
# Each parser returns (summary, errors).  The summary holds the numbers and
# labels compared against the stored reference; errors are invariant breaks.

def _pairwise(argv, path, context):
    f = flags(argv)
    n = int(f["--n"])
    d_list = [int(x) for x in f["--d"].split(",")]
    p_list = [int(x) for x in f["--p"].split(",")]
    grid = linspace(float(f["--ez-min"]), float(f["--ez-max"]), int(f["--ez-steps"]))
    _, header, rows = read_csv(path)
    errors = []
    if header != ["e_z", "observable", "index", "subspace", "value", "per_pair_mean"]:
        return None, [f"pairwise: unexpected header {header}"]
    per_field = len(d_list) + len(p_list)
    if len(rows) != per_field * len(grid):
        return None, [f"pairwise: {len(rows)} rows, expected {per_field * len(grid)}"]
    expected_keys = [("ld", d) for d in d_list] + [("lprime", p) for p in p_list]
    fields, branches, series = [], [], {key: [] for key in expected_keys}
    for k in range(len(grid)):
        chunk = rows[k * per_field:(k + 1) * per_field]
        fields.append(float(chunk[0][0]))
        labels = {r[3] for r in chunk}
        if len(labels) != 1 or not labels <= {"plus", "one"}:
            errors.append(f"pairwise: field {fields[-1]} has branch labels {sorted(labels)}")
        branches.append(chunk[0][3])
        for row, (obs, index) in zip(chunk, expected_keys):
            e_z, value = _floats([row[0], row[4]])
            if (row[1], int(row[2])) != (obs, index) or e_z != fields[-1]:
                errors.append(f"pairwise: row {row} out of order")
                continue
            if obs == "lprime":
                if not 0.0 <= value <= 2.0:
                    errors.append(f"pairwise: L'_{index} = {value} outside [0, 2]")
            else:
                if not 0.0 <= value <= 2.0 * (n - index):
                    errors.append(f"pairwise: L_{index} = {value} outside [0, {2 * (n - index)}]")
                mean = float(row[5])
                if abs(mean - value / (n - index)) > 1e-12 * max(1.0, abs(mean)):
                    errors.append(f"pairwise: per-pair mean {mean} != L_{index}/(N-d)")
            series[(obs, index)].append(value)
    errors += _grid_errors("pairwise", fields, grid)
    flips = [k for k in range(len(branches) - 1) if branches[k] != branches[k + 1]]
    if len(flips) != 1 or branches[0] != "plus":
        errors.append(f"pairwise: branches {branches} do not flip once from plus to one")
    else:
        k = flips[0]
        e_star = context.get("e_star_n50")
        if e_star is not None and not fields[k] < e_star < fields[k + 1]:
            errors.append(f"pairwise: branch flip [{fields[k]}, {fields[k + 1]}] misses e_z* = {e_star}")
        for key, values in series.items():
            steps = [abs(values[j + 1] - values[j]) for j in range(len(values) - 1)]
            if max(range(len(steps)), key=steps.__getitem__) != k:
                errors.append(f"pairwise: series {key} does not jump at the crossing interval")
    summary = {
        "labels": [f"{r[1]}:{r[2]}:{r[3]}" for r in rows],
        "values": [float(c) for r in rows for c in (r[0], r[4], r[5]) if c != ""],
    }
    return summary, errors


def _thermal(argv, path, context):
    f = flags(argv)
    observable = f["--observable"]
    t_grid = linspace(float(f["--t-min"]), float(f["--t-max"]), int(f["--t-steps"]))
    e_grid = linspace(float(f["--ez-min"]), float(f["--ez-max"]), int(f["--ez-steps"]))
    _, header, rows = read_csv(path)
    if header != ["t_rescaled", "e_z", "observable", "value"]:
        return None, [f"thermal: unexpected header {header}"]
    if len(rows) != len(t_grid) * len(e_grid):
        return None, [f"thermal: {len(rows)} rows, expected {len(t_grid) * len(e_grid)}"]
    upper = {"lprime": 2.0, "jzvar": 1.0}[observable.partition(":")[0]]
    errors = []
    ts, es, values = [], [], []
    for row in rows:
        t, e_z, value = _floats([row[0], row[1], row[3]])
        if row[2] != observable:
            errors.append(f"thermal: row observable {row[2]!r} != {observable!r}")
        if not 0.0 <= value <= upper:
            errors.append(f"thermal: {observable} = {value} outside [0, {upper}]")
        ts.append(t)
        es.append(e_z)
        values.append(value)
    errors += _grid_errors("thermal T", ts, [t for t in t_grid for _ in e_grid])
    errors += _grid_errors("thermal e_z", es, [e for _ in t_grid for e in e_grid])
    summary = {"labels": [r[2] for r in rows], "values": [x for trip in zip(ts, es, values) for x in trip]}
    return summary, errors


def _spectrum(argv, path, context):
    f = flags(argv)
    n = int(f["--n"])
    grid = linspace(float(f["--ez-min"]), float(f["--ez-max"]), int(f["--ez-steps"]))
    _, header, rows = read_csv(path)
    if header != ["e_z", "subspace", "level", "energy"]:
        return None, [f"spectrum: unexpected header {header}"]
    per_field = 1 + 2 * n
    if len(rows) != per_field * len(grid):
        return None, [f"spectrum: {len(rows)} rows, expected {per_field} per field x {len(grid)}"]
    expected = [("ground", 0)] + [("plus", k) for k in range(n)] + [("one", k) for k in range(n)]
    errors, fields, values, gaps = [], [], [], []
    for j in range(len(grid)):
        chunk = rows[j * per_field:(j + 1) * per_field]
        e_z = float(chunk[0][0])
        fields.append(e_z)
        if any((r[1], int(r[2])) != key or float(r[0]) != e_z for r, key in zip(chunk, expected)):
            errors.append(f"spectrum: rows of field {e_z} out of order")
            continue
        energies = _floats(r[3] for r in chunk)
        plus, one = energies[1:1 + n], energies[1 + n:]
        for label, levels in (("plus", plus), ("one", one)):
            if any(b < a for a, b in zip(levels, levels[1:])):
                errors.append(f"spectrum: {label} levels not ascending at e_z = {e_z}")
        gaps.append(plus[0] - one[0])
        values += [
            energies[0],
            sum((k + 1) * x for k, x in enumerate(plus)),
            sum((k + 1) * x for k, x in enumerate(one)),
        ]
    errors += _grid_errors("spectrum", fields, grid)
    context["spectrum_gaps"] = (fields, gaps)
    return {"labels": [], "values": values}, errors


def _crossing(argv, path, context):
    f = flags(argv)
    lo_req, hi_req = float(f["--ez-min"]), float(f["--ez-max"])
    _, header, rows = read_csv(path)
    if header != ["ez_lo", "ez_hi", "ez_star"] or len(rows) != 1:
        return None, [f"crossing: unexpected table {header} with {len(rows)} rows"]
    lo, hi, star = _floats(rows[0])
    errors = _grid_errors("crossing bracket", [lo, hi], [lo_req, hi_req])
    if not lo < star < hi:
        errors.append(f"crossing: e_z* = {star} outside bracket [{lo}, {hi}]")
    if "spectrum_gaps" in context:
        fields, gaps = context["spectrum_gaps"]
        changes = [j for j in range(len(gaps) - 1) if (gaps[j] > 0) != (gaps[j + 1] > 0)]
        if len(changes) != 1:
            errors.append(f"crossing: spectrum gap changes sign {len(changes)} times, expected once")
        elif not fields[changes[0]] <= star <= fields[changes[0] + 1]:
            j = changes[0]
            errors.append(f"crossing: e_z* = {star} outside spectrum sign change [{fields[j]}, {fields[j + 1]}]")
    return {"labels": [], "values": [lo, hi, star]}, errors


def _validate(argv, path, context):
    f = flags(argv)
    with open(path, "r", encoding="utf-8") as fh:
        report = json.load(fh)["report"]
    keys = sorted(report)
    values = _floats(report[k] for k in keys)
    errors = []
    want = {"n_molecules": int(f["--n"]), "v_dip": float(f["--v"]), "e_z": float(f["--ez"])}
    for key, value in want.items():
        if report.get(key) != value:
            errors.append(f"validate: report {key} = {report.get(key)!r}, expected {value!r}")
    if not 0.0 <= report["eigenvalue_dev_over_v2"] <= EIGENVALUE_DEV_OVER_V2_MAX:
        errors.append(f"validate: eigenvalue deviation {report['eigenvalue_dev_over_v2']} v^2 exceeds 0.75 v^2")
    if not 0.0 <= report["same_state_negativity_dev"] <= SAME_STATE_DEV_MAX:
        errors.append(f"validate: same-state deviation {report['same_state_negativity_dev']} exceeds 1e-10")
    return {"labels": keys, "values": values}, errors


PARSERS = {
    "pairwise": _pairwise,
    "thermal": _thermal,
    "spectrum": _spectrum,
    "crossing": _crossing,
    "validate": _validate,
}


def summarize(invocations, paths, context):
    """(summaries, errors) per invocation of one workload iteration, in order."""
    summaries, errors = [], []
    for inv, path in zip(invocations, paths):
        try:
            summary, errs = PARSERS[inv.argv[0]](inv.argv, path, context)
        except (OSError, ValueError, KeyError, IndexError, json.JSONDecodeError) as exc:
            summary, errs = None, [f"{inv.argv[0]}: unreadable output: {exc!r}"]
        summaries.append(summary)
        errors.append(errs)
    return summaries, errors


def compare(summary, reference) -> list:
    """Differences between an output summary and its stored reference."""
    if reference is None:
        return ["no stored reference for this input"]
    if summary["labels"] != reference["labels"]:
        return ["labels differ from the stored reference"]
    got, want = summary["values"], reference["values"]
    if len(got) != len(want):
        return [f"{len(got)} values, stored reference has {len(want)}"]
    for k, (g, w) in enumerate(zip(got, want)):
        if not abs(g - w) <= REFERENCE_ATOL:
            return [f"value {k} = {g!r} differs from stored reference {w!r} by more than {REFERENCE_ATOL}"]
    return []


def load_reference() -> dict:
    with open(REFERENCE_FILE, "r", encoding="utf-8") as fh:
        return json.load(fh)


def check_iteration(workload, paths, reference) -> list:
    """Failure messages per invocation: invariants plus the stored reference."""
    context = {"e_star_n50": reference.get("e_star_n50")}
    summaries, errors = summarize(workload.invocations, paths, context)
    stored = reference.get("workloads", {}).get(workload.name, {}).get(str(workload.variant))
    for k, summary in enumerate(summaries):
        if summary is not None:
            errors[k] += compare(summary, stored[k] if stored else None)
    return errors
