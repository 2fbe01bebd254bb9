"""Tests for the CLI front end and scan serialization."""

import json
import sys
from collections import Counter

import numpy as np
import pytest

from rotorchain import cli, entanglement, manifold
from rotorchain.results import ScanResult, format_cell


class TestScanResult:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            ScanResult(columns=("a",), rows=[(np.nan,)])
        with pytest.raises(ValueError):
            ScanResult(columns=("a",), rows=[(np.inf,)])

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            ScanResult(columns=("a", "b"), rows=[(1.0,)])

    def test_format_cell(self):
        assert format_cell(0.1) == "0.10000000000000001"
        assert format_cell(3) == "3"
        assert format_cell("plus") == "plus"

    def test_csv_roundtrip(self, tmp_path):
        result = ScanResult(columns=("x", "y"), rows=[(1.0, "a"), (2.5, "b")], metadata={"k": 1})
        path = tmp_path / "out.csv"
        result.write(path, "csv")
        text = path.read_text()
        assert text.startswith("# k = 1\nx,y\n")
        assert "2.5,b" in text

    def test_json_output(self, tmp_path):
        result = ScanResult(columns=("x",), rows=[(1.0,)], metadata={"k": 1})
        path = tmp_path / "out.json"
        result.write(path, "json")
        payload = json.loads(path.read_text())
        assert payload["columns"] == ["x"]
        assert payload["rows"] == [[1.0]]


def run_cli(argv):
    return cli.main(argv)


class TestParseConfig:
    def test_flags_only(self, tmp_path):
        out = tmp_path / "s.csv"
        code = run_cli([
            "spectrum", "--n", "4", "--v", "0.1",
            "--ez-min", "0", "--ez-max", "1", "--ez-steps", "2",
            "--out", str(out),
        ])
        assert code == 0
        assert out.exists()

    def test_unknown_config_key_named(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 4, "exz": 1.0}))
        code = run_cli(["spectrum", "--config", str(cfg)])
        assert code == 1
        assert "exz" in capsys.readouterr().err

    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"experiment": "spectrum", "n": 4, "v": 0.2, "ez_min": 0.0, "ez_max": 1.0, "ez_steps": 2}
        ))
        out = tmp_path / "s.csv"
        code = run_cli(["spectrum", "--config", str(cfg), "--v", "0.3", "--out", str(out)])
        assert code == 0
        assert "# v_dip = 0.3" in out.read_text()

    def test_physical_units_config(self, tmp_path):
        cfg = tmp_path / "krb.json"
        cfg.write_text(json.dumps({
            "n": 4, "dipole_debye": 1.2, "b_ghz": 10.0, "r_nm": 5.0,
            "field_v_per_m": 0.0, "ez_min": 0.0, "ez_max": 1.0, "ez_steps": 2,
        }))
        out = tmp_path / "s.csv"
        code = run_cli(["spectrum", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert "# physical_dipole_debye = 1.2" in text
        assert "# physical_converted_v_dip = 0.17" in text

    def test_missing_config_file(self, capsys):
        code = run_cli(["spectrum", "--config", "/nonexistent.json"])
        assert code == 1

    @pytest.mark.parametrize("experiment,values", [
        ("spectrum", {"ez_min": None}),
        ("pairwise", {"d": 2}),
        ("spectrum", {"experiment": "thermal"}),
        ("thermal", {"observable": "jzvar:3"}),
        ("spectrum", {"n": 4.7, "ez_steps": 2.9}),
        ("spectrum", {"ez_steps": True}),
        ("pairwise", {"d": [1.5, 2]}),
        ("pairwise", {"p": [True]}),
        ("thermal", {"t_steps": "3"}),
        ("spectrum", {"workers": 1.0}),
    ])
    def test_wrong_value_type_exit_1(self, tmp_path, capsys, experiment, values):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 4, **values}))
        code = run_cli([experiment, "--config", str(cfg), "--out", str(tmp_path / "out.csv")])
        assert code == 1
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["bogus"],
        ["spectrum", "--n", "x"],
        ["spectrum", "--no-such-flag"],
        ["spectrum", "--format", "xml"],
    ])
    def test_argparse_errors_exit_1(self, argv, capsys):
        assert run_cli(argv) == 1
        assert "usage:" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        assert run_cli(["--help"]) == 0
        assert "usage:" in capsys.readouterr().out

    def test_bad_format_rejected_before_scan(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 4, "format": "xml", "ez_steps": 2}))
        out = tmp_path / "o.xml"
        code = run_cli(["spectrum", "--config", str(cfg), "--out", str(out)])
        assert code == 1
        assert "configuration error: unknown output format 'xml'" in capsys.readouterr().err
        assert not out.exists()


class TestRun:
    def test_spectrum_row_count(self, tmp_path):
        out = tmp_path / "s.csv"
        run_cli(["spectrum", "--n", "50", "--v", "0.1",
                 "--ez-min", "0", "--ez-max", "0", "--ez-steps", "1", "--out", str(out)])
        data_lines = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
        assert len(data_lines) - 1 == 1 + 2 * 50  # header plus 1+2N rows

    def test_twomol_table(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code = run_cli(["twomol", "--v", "0.1", "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "m0_lower" in text
        values = out.read_text()
        assert "0.77155" in values

    def test_pairwise_row_count_and_columns(self, tmp_path):
        out = tmp_path / "p.csv"
        run_cli(["pairwise", "--n", "6", "--v", "0.1",
                 "--ez-min", "0", "--ez-max", "1", "--ez-steps", "3",
                 "--d", "1,2", "--p", "1,3", "--out", str(out)])
        lines = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
        assert lines[0] == "e_z,observable,index,subspace,value,per_pair_mean"
        assert len(lines) - 1 == 3 * (2 + 2)

    def test_determinism_byte_identical(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        argv = ["pairwise", "--n", "6", "--v", "0.1",
                "--ez-min", "0", "--ez-max", "2", "--ez-steps", "3", "--d", "1", "--p", "3"]
        run_cli(argv + ["--out", str(out_a)])
        run_cli(argv + ["--out", str(out_b)])
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_thermal_json(self, tmp_path):
        out = tmp_path / "t.json"
        code = run_cli(["thermal", "--n", "3", "--v", "0.1",
                        "--t-min", "0.5", "--t-max", "0.5", "--t-steps", "1",
                        "--ez-min", "0", "--ez-max", "0", "--ez-steps", "1",
                        "--observable", "jzvar", "--format", "json", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["columns"] == ["t_rescaled", "e_z", "observable", "value"]
        assert len(payload["rows"]) == 1

    def test_crossing_experiment(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        code = run_cli(["crossing", "--n", "10", "--v", "0.1",
                        "--ez-min", "0.001", "--ez-max", "30", "--out", str(out)])
        assert code == 0
        assert "e_z*" in capsys.readouterr().out

    def test_crossing_out_of_range_exit_2(self, tmp_path, capsys):
        code = run_cli(["crossing", "--n", "10", "--v", "0.1",
                        "--ez-min", "20", "--ez-max", "30", "--out", str(tmp_path / "c.csv")])
        assert code == 2
        assert "no crossing" in capsys.readouterr().err

    def test_validate_report(self, tmp_path, capsys):
        out = tmp_path / "v.json"
        code = run_cli(["validate", "--n", "3", "--v", "0.05", "--ez", "0.5", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert "report" in payload
        assert payload["report"]["max_eigenvalue_dev"] < 0.75 * 0.05**2

    def test_resource_guard_exit_2(self, tmp_path, capsys):
        code = run_cli(["validate", "--n", "7", "--v", "0.05", "--out", str(tmp_path / "v.json")])
        assert code == 2

    def test_memory_error_exit_2(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 549. MiB")

        monkeypatch.setattr(manifold, "scan_fields", exhausted)
        out = tmp_path / "p.csv"
        code = run_cli(["pairwise", "--n", "4", "--ez-steps", "1", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: out of memory" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_bad_model_exit_1(self, tmp_path, capsys):
        code = run_cli(["spectrum", "--n", "1", "--out", str(tmp_path / "s.csv")])
        assert code == 1

    def test_metadata_echoes_parameters(self, tmp_path):
        out = tmp_path / "s.csv"
        run_cli(["spectrum", "--n", "4", "--v", "0.1",
                 "--ez-min", "0", "--ez-max", "1", "--ez-steps", "2", "--out", str(out)])
        text = out.read_text()
        for key in ("n_molecules", "v_dip", "ez_min", "ez_max", "ez_steps", "workers"):
            assert f"# {key} = " in text


    def test_default_positions_clamped_to_short_chain(self, tmp_path):
        out = tmp_path / "p.csv"
        code = run_cli(["pairwise", "--n", "6", "--v", "0.1",
                        "--ez-min", "0", "--ez-max", "0", "--ez-steps", "1", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert "# d_list = 1\n" in text
        assert "# p_list = 1\n" in text

    @pytest.mark.parametrize("flags,bad", [
        (["--d", "30,2", "--p", "4"], "d = 30"),
        (["--d", "2", "--p", "40"], "p = 40"),
        (["--d", "0"], "d = 0"),
        (["--workers", "0"], "workers = 0"),
        (["--workers", "-3"], "workers = -3"),
        (["--observable", "jzvar:3"], "'jzvar:3'"),
    ])
    def test_explicit_positions_out_of_range_exit_1(self, tmp_path, capsys, flags, bad):
        out = tmp_path / "p.csv"
        code = run_cli(["pairwise", "--n", "10", "--v", "0.1",
                        "--ez-min", "0", "--ez-max", "0", "--ez-steps", "1", *flags, "--out", str(out)])
        assert code == 1
        assert bad in capsys.readouterr().err
        assert not out.exists()


SCAN_ARGV = {
    "spectrum": ["spectrum", "--n", "5"],
    "pairwise": ["pairwise", "--n", "5", "--d", "1,2", "--p", "1,3"],
    "partition": ["partition", "--n", "5", "--p", "2"],
    "thermal": ["thermal", "--n", "4", "--t-min", "0.3", "--t-max", "0.9", "--t-steps", "3",
                "--observable", "lprime:2"],
}


@pytest.fixture
def solve_calls(monkeypatch):
    """Count `solve_blocks` calls per field, across every module that imported it."""
    calls = Counter()
    original = manifold.solve_blocks

    def counting(block_h):
        calls[block_h.params.e_z] += 1
        return original(block_h)

    for name, module in list(sys.modules.items()):
        if name.startswith("rotorchain") and getattr(module, "solve_blocks", None) is original:
            monkeypatch.setattr(module, "solve_blocks", counting)
    return calls


class TestScanPath:
    @pytest.mark.parametrize("experiment", sorted(SCAN_ARGV))
    def test_blocks_solved_once_per_field(self, tmp_path, solve_calls, experiment):
        code = run_cli(SCAN_ARGV[experiment] + [
            "--v", "0.1", "--ez-min", "0", "--ez-max", "12", "--ez-steps", "4",
            "--out", str(tmp_path / "out.csv"),
        ])
        assert code == 0
        assert solve_calls == Counter({e_z: 1 for e_z in np.linspace(0.0, 12.0, 4)})

    def test_validate_solves_blocks_once(self, tmp_path, solve_calls):
        code = run_cli(["validate", "--n", "3", "--v", "0.05", "--ez", "0.5",
                        "--out", str(tmp_path / "v.json")])
        assert code == 0
        assert solve_calls == Counter({0.5: 1})

    def test_pairwise_builds_manifold_matrix_once_per_field(self, tmp_path, monkeypatch):
        calls = Counter()
        original = entanglement.ManifoldDensity.manifold_matrix

        def counting(rho):
            calls[rho.params.e_z] += 1
            return original(rho)

        monkeypatch.setattr(entanglement.ManifoldDensity, "manifold_matrix", counting)
        code = run_cli(SCAN_ARGV["pairwise"] + [
            "--v", "0.1", "--ez-min", "0", "--ez-max", "12", "--ez-steps", "4",
            "--out", str(tmp_path / "out.csv"),
        ])
        assert code == 0
        assert calls == Counter({e_z: 1 for e_z in np.linspace(0.0, 12.0, 4)})

    @pytest.mark.parametrize("argv", [
        ["pairwise", "--n", "8"],
        ["thermal", "--n", "6", "--observable", "lprime:3", "--t-steps", "3"],
    ])
    def test_scan_builds_no_density_matrix(self, tmp_path, monkeypatch, argv):
        calls = Counter()
        original = entanglement.DensityMatrix.__post_init__

        def counting(rho):
            calls[rho.dims] += 1
            original(rho)

        monkeypatch.setattr(entanglement.DensityMatrix, "__post_init__", counting)
        code = run_cli(argv + ["--ez-min", "0", "--ez-max", "12", "--ez-steps", "4",
                               "--out", str(tmp_path / "out.csv")])
        assert code == 0
        assert calls == Counter()

    @pytest.mark.parametrize("experiment", ["pairwise", "partition"])
    def test_parallel_workers_match_serial(self, tmp_path, experiment):
        rows = {}
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}.csv"
            code = run_cli(SCAN_ARGV[experiment] + [
                "--v", "0.1", "--ez-min", "0", "--ez-max", "12", "--ez-steps", "4",
                "--workers", workers, "--out", str(out),
            ])
            assert code == 0
            rows[workers] = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(rows["1"]) == 1 + 4 * (4 if experiment == "pairwise" else 1)
        assert rows["2"] == rows["1"]
