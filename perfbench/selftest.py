"""Self-tests of the benchmark's tracer and output checks.

    python3 perfbench/selftest.py

Runs the CLI a few times (about half a minute in all).
"""

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
import unittest

import checks
import run
import spans
import workloads


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TracerArithmetic(unittest.TestCase):
    def test_nesting_and_self_time(self):
        clock = FakeClock()
        tracer = spans.Tracer(clock=clock)

        def leaf():
            clock.now += 3.0

        def inner():
            clock.now += 1.0
            leaf_w()
            clock.now += 0.5

        def outer():
            clock.now += 2.0
            inner_w()
            leaf_w()
            clock.now += 4.0

        leaf_w = tracer.wrap("leaf", leaf)
        inner_w = tracer.wrap("inner", inner)
        tracer.wrap("outer", outer)()
        tracer.run_id = 1
        leaf_w()

        names = [s[0] for s in tracer.spans]
        parents = [s[3] for s in tracer.spans]
        self.assertEqual(names, ["outer", "inner", "leaf", "leaf", "leaf"])
        self.assertEqual(parents, [-1, 0, 1, 0, -1])
        self.assertEqual([s[4] for s in tracer.spans], [0, 0, 0, 0, 1])
        durations = [s[2] - s[1] for s in tracer.spans]
        self.assertEqual(durations, [13.5, 4.5, 3.0, 3.0, 3.0])
        self.assertEqual(spans.self_times(tracer.spans), [6.0, 1.5, 3.0, 3.0, 3.0])
        self.assertEqual(tracer.stack, [])

    def test_span_closes_when_the_call_raises(self):
        clock = FakeClock()
        tracer = spans.Tracer(clock=clock)

        def fail():
            clock.now += 1.0
            raise ValueError("boom")

        with self.assertRaises(ValueError):
            tracer.wrap("fail", fail)()
        self.assertEqual(tracer.spans[0][2] - tracer.spans[0][1], 1.0)
        self.assertEqual(tracer.stack, [])


class TracerInstall(unittest.TestCase):
    def test_every_binding_wrapped_then_restored(self):
        sys.path.insert(0, run.SRC)
        import rotorchain
        from rotorchain import entanglement, manifold, oracle, results, thermal

        originals = {
            "solve_blocks": manifold.solve_blocks,
            "lowest_excited_density": entanglement.lowest_excited_density,
            "init": entanglement.DensityMatrix.__dict__["__init__"],
            "write": results.ScanResult.__dict__["write"],
        }
        tracer = spans.Tracer()
        with tracer:
            for owner in (manifold, entanglement, thermal, oracle, rotorchain):
                self.assertEqual(getattr(owner.solve_blocks, spans.SPAN_MARK), "manifold.solve_blocks")
            self.assertTrue(hasattr(oracle.lowest_excited_density, spans.SPAN_MARK))
            self.assertTrue(hasattr(entanglement.DensityMatrix.__dict__["__init__"], spans.SPAN_MARK))
            self.assertTrue(spans.leftover_wrappers())
        self.assertEqual(spans.leftover_wrappers(), [])
        for owner in (manifold, entanglement, thermal, oracle, rotorchain):
            self.assertIs(owner.solve_blocks, originals["solve_blocks"])
        self.assertIs(oracle.lowest_excited_density, originals["lowest_excited_density"])
        self.assertIs(entanglement.DensityMatrix.__dict__["__init__"], originals["init"])
        self.assertIs(results.ScanResult.__dict__["write"], originals["write"])


class OutputChecks(unittest.TestCase):
    """Real CLI outputs pass; perturbed copies of them fail."""

    @classmethod
    def setUpClass(cls):
        os.makedirs(run.OUT, exist_ok=True)
        cls.tmp = tempfile.mkdtemp(dir=run.OUT)
        cls.reference = checks.load_reference()
        cls.outputs = {}
        for name in ("spectrum-n400", "pairwise-n50"):
            workload = workloads.make(name, 5)
            workdir = os.path.join(cls.tmp, name)
            os.makedirs(workdir)
            paths = run.output_paths(workload, workdir)
            for inv, path in zip(workload.invocations, paths):
                *_, code = run.spawn(["-m", "rotorchain.cli", *run.cli_args(inv, path)], path + ".stdout")
                assert code == 0, f"{inv.argv} exited {code}"
            cls.outputs[name] = (workload, paths)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp)

    def failures(self, name, edit=None):
        workload, paths = self.outputs[name]
        edited = []
        for k, path in enumerate(paths):
            copy = os.path.join(self.tmp, f"edited{k}-" + os.path.basename(path))
            with open(path, encoding="utf-8") as fh:
                lines = fh.readlines()
            if edit is not None:
                lines = edit(k, lines)
            with open(copy, "w", encoding="utf-8") as fh:
                fh.writelines(lines)
            edited.append(copy)
        return checks.check_iteration(workload, edited, self.reference)

    @staticmethod
    def data_start(lines):
        return next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1

    def test_unperturbed_outputs_pass(self):
        for name in self.outputs:
            self.assertEqual(self.failures(name), [[] for _ in self.outputs[name][1]], name)

    def test_energy_off_by_1e8_fails_reference(self):
        def edit(k, lines):
            if k == 0:
                i = self.data_start(lines) + 5
                cells = lines[i].rstrip("\n").split(",")
                cells[3] = repr(float(cells[3]) + 1e-8)
                lines[i] = ",".join(cells) + "\n"
            return lines

        errors = self.failures("spectrum-n400", edit)
        self.assertTrue(errors[0] and "stored reference" in errors[0][-1], errors)
        self.assertEqual(errors[1], [])

    def test_swapped_levels_fail_invariant(self):
        def edit(k, lines):
            if k == 0:
                i = self.data_start(lines) + 3  # "plus" levels 2 and 3 of the first field
                a, b = lines[i].split(","), lines[i + 1].split(",")
                a[3], b[3] = b[3], a[3]
                lines[i], lines[i + 1] = ",".join(a), ",".join(b)
            return lines

        errors = self.failures("spectrum-n400", edit)
        self.assertTrue(any("not ascending" in e for e in errors[0]), errors)

    def test_crossing_outside_sign_change_fails(self):
        def edit(k, lines):
            if k == 1:
                cells = lines[-1].rstrip("\n").split(",")
                cells[2] = repr(float(cells[2]) + 1.0)
                lines[-1] = ",".join(cells) + "\n"
            return lines

        errors = self.failures("spectrum-n400", edit)
        self.assertTrue(any("sign change" in e for e in errors[1]), errors)

    def test_flipped_branch_label_fails(self):
        def edit(k, lines):
            i = self.data_start(lines)
            lines[i] = lines[i].replace(",plus,", ",one,")
            return lines

        errors = self.failures("pairwise-n50", edit)
        self.assertTrue(any("branch" in e for e in errors[0]), errors)
        self.assertTrue(any("stored reference" in e for e in errors[0]), errors)

    def test_negativity_out_of_bounds_fails(self):
        def edit(k, lines):
            i = self.data_start(lines) + 3  # first L'_1 row
            cells = lines[i].rstrip("\n").split(",")
            cells[4] = "2.5"
            lines[i] = ",".join(cells) + "\n"
            return lines

        errors = self.failures("pairwise-n50", edit)
        self.assertTrue(any("outside [0, 2]" in e for e in errors[0]), errors)


class ValidateChecks(unittest.TestCase):
    """A report rebuilt from the stored reference passes; a bound breach fails."""

    def failures(self, **changes):
        workload = workloads.make("validate-n5", 3)
        stored = checks.load_reference()["workloads"]["validate-n5"][str(workload.variant)][0]
        report = dict(zip(stored["labels"], stored["values"]))
        report["n_molecules"] = int(report["n_molecules"])
        report.update(changes)
        os.makedirs(run.OUT, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
            path = os.path.join(tmp, "report.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"report": report}, fh)
            return checks.check_iteration(workload, [path], checks.load_reference())[0]

    def test_stored_report_passes(self):
        self.assertEqual(self.failures(), [])

    def test_deviation_over_bound_fails(self):
        errors = self.failures(eigenvalue_dev_over_v2=0.8)
        self.assertTrue(any("0.75 v^2" in e for e in errors), errors)
        errors = self.failures(same_state_negativity_dev=2e-10)
        self.assertTrue(any("1e-10" in e for e in errors), errors)


class TracedRunMatchesBenchmarkFile(unittest.TestCase):
    def test_per_layer_names_and_units(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
        workload = workloads.make("spectrum-n400", 2)
        with contextlib.redirect_stdout(io.StringIO()):
            ok, attempted, failed, metrics = run.report(
                workload, 1, 0.1, checks.load_reference(), run.environment())
        self.assertTrue(ok)
        self.assertEqual(failed, 0)
        self.assertEqual({k: v["unit"] for k, v in metrics.items()}, declared)
        self.assertEqual(metrics["manifold.spectrum_vs_field.calls"]["value"], 1)
        self.assertEqual(metrics["manifold.find_crossing.calls"]["value"], 1)
        self.assertGreater(metrics["manifold.find_crossing.gap_evals"]["value"], 2)
        self.assertEqual(metrics["entanglement.log_negativity.calls"]["value"], 0)
        self.assertEqual(spans.leftover_wrappers(), [])

    def test_end_to_end_names_and_units(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            declared = {m["name"]: m["unit"] for m in json.load(fh)["end_to_end"]}
        workload = workloads.make("spectrum-n400", 2)
        with contextlib.redirect_stdout(io.StringIO()):
            ok, attempted, failed, metrics = run.report(
                workload, 0, 0.1, checks.load_reference(), run.environment())
        self.assertTrue(ok)
        self.assertEqual(attempted, len(workload.invocations))
        self.assertEqual({k: v["unit"] for k, v in metrics.items()}, declared)


class ChildMeasurement(unittest.TestCase):
    def test_child_peak_rss_excludes_the_benchmark_process(self):
        # A high-water mark of 150 MB here must not show up as the child's peak.
        ballast = bytearray(150 << 20)
        ballast[:: 1 << 12] = b"x" * len(ballast[:: 1 << 12])
        del ballast
        os.makedirs(run.OUT, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
            wall, cpu, maxrss_kb, _, code = run.spawn(["-c", "pass"], os.path.join(tmp, "out"))
        self.assertEqual(code, 0)
        self.assertGreater(wall, 0.0)
        self.assertLess(maxrss_kb, 64 << 10)


class HostSpeedScaling(unittest.TestCase):
    def test_scaled_time_arithmetic(self):
        ref = run.CAL_REF_S
        self.assertAlmostEqual(run.scaled(3.0, ref, ref), 3.0)
        # A host at half speed doubles both the kernel and the raw time.
        self.assertAlmostEqual(run.scaled(6.0, 2 * ref, 2 * ref), 3.0)
        self.assertAlmostEqual(run.scaled(4.0, ref, 3 * ref), 2.0)

    def test_calibration_is_positive_and_near_reference(self):
        cal = run.calibrate()
        self.assertGreater(cal, 0.0)
        self.assertLess(cal, 20 * run.CAL_REF_S)


if __name__ == "__main__":
    unittest.main()
