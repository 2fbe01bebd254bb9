"""Span tracer installed on rotorchain's public functions from the outside.

`Tracer.install()` replaces every binding of each traced name in the loaded
`rotorchain` modules, `from`-import bindings included, and patches traced
class methods on their class.  Each call records a span
[name, start, end, parent index, run id, extra] in memory; `extra` holds a
per-call quantity for the counts below.  `uninstall()` puts every original
back, and `leftover_wrappers()` proves that nothing traced remains.

Self time is a span's duration minus the durations of its direct children.
"""

import functools
import os
import sys
import time
from math import prod

SPAN_MARK = "_perfbench_span"


def _arg(args, kwargs, key, position):
    return kwargs[key] if key in kwargs else args[position]


# recorders run after the call: (tracer, args, kwargs) -> extra
def _dim(tracer, args, kwargs):
    return prod(_arg(args, kwargs, "rho", 0).dims)


def _self_dim(tracer, args, kwargs):
    return prod(args[0].dims)


def _density_id(tracer, args, kwargs):
    density = args[0]
    tracer.keep_alive.append(density)  # ids stay unique while spans are analysed
    return (id(density), density.params.n_molecules)


def _spec_field(tracer, args, kwargs):
    return _arg(args, kwargs, "spec", 0).params.e_z


def _block_field(tracer, args, kwargs):
    return _arg(args, kwargs, "block_h", 0).params.e_z


def _row_count(tracer, args, kwargs):
    return len(args[0].rows)


def _file_size(tracer, args, kwargs):
    return os.path.getsize(_arg(args, kwargs, "path", 1))


# (span name, module, attribute path, recorder); span names are the
# per-layer metric prefixes
TARGETS = (
    ("cli.resolve", "cli", "resolve", None),
    ("cli.run", "cli", "run", None),
    ("model.dressed_solution", "model", "dressed_solution", None),
    ("model.site_operator", "model", "site_operator", None),
    ("manifold.build_block_hamiltonian", "manifold", "build_block_hamiltonian", None),
    ("manifold.solve_blocks", "manifold", "solve_blocks", _block_field),
    ("manifold.spectrum_vs_field", "manifold", "spectrum_vs_field", None),
    ("manifold.find_crossing", "manifold", "find_crossing", None),
    ("entanglement.log_negativity", "entanglement", "log_negativity", _dim),
    ("entanglement.one_vs_rest_L", "entanglement", "one_vs_rest_L", None),
    ("entanglement.pairwise_L_sum", "entanglement", "pairwise_L_sum", None),
    ("entanglement.pair_reduced", "entanglement", "pair_reduced", None),
    ("entanglement.lowest_excited_density", "entanglement", "lowest_excited_density", None),
    ("entanglement.jz_variance", "entanglement", "jz_variance", None),
    ("entanglement.DensityMatrix", "entanglement", "DensityMatrix.__init__", _self_dim),
    ("entanglement.ManifoldDensity.manifold_matrix", "entanglement", "ManifoldDensity.manifold_matrix", _density_id),
    ("thermal.thermal_state", "thermal", "thermal_state", _spec_field),
    ("thermal.thermal_scan", "thermal", "thermal_scan", None),
    ("results.ScanResult", "results", "ScanResult.__init__", _row_count),
    ("results.ScanResult.write", "results", "ScanResult.write", _file_size),
    ("oracle.full_hamiltonian", "oracle", "full_hamiltonian", None),
    ("oracle.dense_eigensolve", "oracle", "dense_eigensolve", None),
    ("oracle.full_one_vs_rest_L", "oracle", "full_one_vs_rest_L", None),
    ("oracle.full_pair_L", "oracle", "full_pair_L", None),
    ("oracle.validate_manifold", "oracle", "validate_manifold", None),
)


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "rotorchain" or name.startswith("rotorchain."))]


class Tracer:
    """Records spans of wrapped calls; `clock` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.stack = []
        self.run_id = 0
        self.keep_alive = []
        self._patched = []  # (owner, attribute, original)

    def wrap(self, name, fn, recorder=None):
        """A wrapper around `fn` that records one span per call."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.run_id, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = tracer.clock()
                stack.pop()
            if recorder is not None:
                span[5] = recorder(tracer, args, kwargs)
            return result

        setattr(wrapper, SPAN_MARK, name)
        return wrapper

    def install(self):
        """Wrap every binding of each target in the loaded rotorchain modules."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        for name, module_name, attr_path, recorder in TARGETS:
            module = sys.modules[f"rotorchain.{module_name}"]
            if "." in attr_path:
                cls_name, attr = attr_path.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                self._patch(cls, attr, original, self.wrap(name, original, recorder))
                continue
            original = getattr(module, attr_path)
            wrapper = self.wrap(name, original, recorder)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def leftover_wrappers() -> list:
    """Names of rotorchain bindings (module or class level) still wrapped."""
    found = []
    for mod in _package_modules():
        for key, value in vars(mod).items():
            if hasattr(value, SPAN_MARK):
                found.append(f"{mod.__name__}.{key}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                found += [f"{mod.__name__}.{key}.{attr}" for attr, member in vars(value).items()
                          if hasattr(member, SPAN_MARK)]
    return found


def self_times(spans) -> list:
    """Per span: duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def _has_ancestor(spans, index, name):
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def _per_distinct(spans, name, key):
    """Calls of `name` per distinct key value within a run (0 without calls)."""
    calls = [s for s in spans if s[0] == name]
    distinct = {(s[4], key(s[5])) for s in calls}
    return len(calls) / len(distinct) if distinct else 0.0


def span_metrics(spans) -> dict:
    """Per-layer counts and self times of one traced iteration."""
    own = self_times(spans)
    metrics = {}
    for name, *_ in TARGETS:
        metrics[f"{name}.calls"] = 0
        metrics[f"{name}.self_s"] = 0.0
    for span, t in zip(spans, own):
        metrics[f"{span[0]}.calls"] += 1
        metrics[f"{span[0]}.self_s"] += t

    def extras(name):
        return [s[5] for s in spans if s[0] == name]

    metrics["entanglement.log_negativity.dim3_sum"] = sum(d**3 for d in extras("entanglement.log_negativity"))
    metrics["entanglement.DensityMatrix.dim3_sum"] = sum(d**3 for d in extras("entanglement.DensityMatrix"))
    mm = "entanglement.ManifoldDensity.manifold_matrix"
    metrics[f"{mm}.bytes"] = sum(16 * (3 * n + 1) ** 2 for _, n in extras(mm))
    metrics[f"{mm}.per_density"] = _per_distinct(spans, mm, lambda extra: extra[0])
    metrics["thermal.thermal_state.per_field"] = _per_distinct(spans, "thermal.thermal_state", lambda e: e)
    metrics["manifold.solve_blocks.per_field"] = _per_distinct(spans, "manifold.solve_blocks", lambda e: e)
    metrics["manifold.find_crossing.gap_evals"] = sum(
        1 for k, s in enumerate(spans)
        if s[0] == "manifold.solve_blocks" and _has_ancestor(spans, k, "manifold.find_crossing")
    )
    metrics["results.ScanResult.rows"] = sum(extras("results.ScanResult"))
    metrics["results.bytes_out"] = sum(extras("results.ScanResult.write"))
    return metrics


# per-layer metric names that are counts: they must repeat exactly at a fixed seed
COUNT_SUFFIXES = (".calls", ".dim3_sum", ".bytes", ".per_density", ".per_field", ".gap_evals", ".rows", ".bytes_out")
