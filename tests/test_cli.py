"""Command-line interface: subcommands, formats, exit codes, determinism."""

import csv
import json
import os
from pathlib import Path
import subprocess
import sys

import numpy as np
import pytest

import gpssvs
from gpssvs import cli


# The CLI subprocess imports the same package as the tests, installed or not.
SRC = str(Path(gpssvs.__file__).resolve().parents[1])
ENV = {**os.environ,
       "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}


def run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "gpssvs", *args],
                          capture_output=True, text=True, cwd=cwd, env=ENV)


class TestState:
    def test_csv_to_stdout(self):
        out = run_cli("state", "--f", "poschl-teller", "--r", "1.0", "--m", "1")
        assert out.returncode == 0
        lines = out.stdout.strip().splitlines()
        assert lines[0] == "photon_number,re,im,prob"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[0]) % 2 for r in rows] == [0] * len(rows)
        assert np.isclose(sum(float(r[3]) for r in rows), 1.0, atol=1e-12)

    def test_json_matches_csv_numbers(self, tmp_path):
        args = ("state", "--f", "poschl-teller", "--r", "1.3", "--m", "2",
                "--parity", "odd")
        csv_path, json_path = tmp_path / "s.csv", tmp_path / "s.json"
        assert run_cli(*args, "--out", str(csv_path)).returncode == 0
        assert run_cli(*args, "--format", "json", "--out", str(json_path)).returncode == 0
        with csv_path.open() as fh:
            rows_c = list(csv.DictReader(fh))
        rows_j = json.loads(json_path.read_text())
        assert len(rows_c) == len(rows_j)
        for rc, rj in zip(rows_c, rows_j):
            assert int(rc["photon_number"]) == rj["photon_number"]
            for key in ("re", "im", "prob"):
                assert float(rc[key]) == rj[key]

    def test_reruns_byte_identical(self, tmp_path):
        args = ("state", "--f", "poschl-teller", "--r", "1.1", "--theta", "2.0",
                "--m", "1", "--parity", "odd")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(*args, "--out", str(a))
        run_cli(*args, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_custom_table_file(self, tmp_path):
        table = tmp_path / "f.txt"
        table.write_text("# f values\n" + "\n".join(["1.0"] * 60) + "\n")
        out = run_cli("state", "--f", "custom", "--custom-file", str(table),
                      "--r", "0.5")
        assert out.returncode == 0
        # f = 1 table reproduces the harmonic state.
        harmonic = run_cli("state", "--f", "harmonic", "--r", "0.5")
        assert out.stdout == harmonic.stdout

    def test_custom_without_file_is_usage_error(self):
        out = run_cli("state", "--f", "custom", "--r", "0.5")
        assert out.returncode == 2


class TestExitCodes:
    def test_unknown_flag(self):
        assert run_cli("state", "--bogus").returncode == 2

    def test_missing_subcommand(self):
        assert run_cli().returncode == 2

    def test_annihilated_state_is_domain_error(self):
        out = run_cli("state", "--r", "0", "--m", "1")
        assert out.returncode == 3
        assert "error" in out.stderr.lower()

    def test_custom_table_too_short_is_domain_error(self, tmp_path):
        table = tmp_path / "f.txt"
        table.write_text("1.0\n1.0\n1.0\n")
        out = run_cli("state", "--f", "custom", "--custom-file", str(table),
                      "--r", "2.0")
        assert out.returncode == 3

    def test_bad_pt_parameters(self):
        out = run_cli("state", "--f", "poschl-teller", "--pt-lambda", "0.1",
                      "--r", "1.0")
        assert out.returncode == 2

    @pytest.mark.parametrize("args", [("state", "--r", "nan"),
                                      ("state", "--r", "0.5", "--theta", "inf"),
                                      ("quadratures", "--sweep", "r=0:nan:3"),
                                      ("number-squeezing", "--sweep", "theta=-inf:1:2"),
                                      ("state", "--r", "0.5", "--tol", "nan"),
                                      ("wigner", "--r", "0.5", "--grid", "nan:1:3",
                                       "--out", "unused.csv"),
                                      ("wigner", "--r", "0.5", "--grid", "-1:1:3,a:1:3",
                                       "--out", "unused.csv"),
                                      ("state", "--f", "poschl-teller", "--pt-kappa",
                                       "inf", "--r", "1")])
    def test_non_finite_number_is_usage_error(self, args, capsys):
        # Rejected by the parser: no series runs and no error rows are written.
        with pytest.raises(SystemExit) as exc:
            cli.main(list(args))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "finite" in captured.err

    @pytest.mark.parametrize("args", [("state", "--r", "0.5"),
                                      ("wigner", "--r", "0.5", "--grid", "-1:1:3")])
    def test_missing_output_directory_is_usage_error(self, tmp_path, args):
        target = tmp_path / "missing" / "x.csv"
        out = run_cli(*args, "--out", str(target))
        assert out.returncode == 2
        assert out.stderr.startswith("error: ") and len(out.stderr.splitlines()) == 1
        assert "Traceback" not in out.stderr
        assert not target.parent.exists()

    def test_memory_refusal_is_domain_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(gpssvs.wigner, "_physical_memory", lambda: 1 << 20)
        path = tmp_path / "w.csv"
        assert cli.main(["wigner", "--r", "0.5", "--grid", "-1:1:400",
                         "--out", str(path)]) == 3
        assert "MiB" in capsys.readouterr().err
        assert not path.exists()


class TestSweeps:
    def test_quadratures_sweep_csv(self, tmp_path):
        path = tmp_path / "q.csv"
        out = run_cli("quadratures", "--f", "poschl-teller", "--sweep", "r=0.2:1:3",
                      "--sweep", "theta=0:6.28:2", "--out", str(path))
        assert out.returncode == 0
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3 * 2 * 3  # r x theta x quantities
        assert {row["quantity"] for row in rows} == {"var_x", "var_p", "robertson_rhs"}
        assert all(row["status"] == "ok" for row in rows)

    def test_number_squeezing_defaults(self):
        out = run_cli("number-squeezing", "--f", "poschl-teller", "--r", "1.0",
                      "--sweep", "m=0:3:4", "--parity", "odd")
        assert out.returncode == 0
        lines = out.stdout.strip().splitlines()
        assert lines[0] == "r,theta,m,parity,quantity,value,status"
        assert len(lines) == 1 + 4 * 2
        # PT odd states are number-squeezed across the board.
        for line in lines[1:]:
            fields = line.split(",")
            if fields[4] == "n_squeeze":
                assert float(fields[5]) < 0

    def test_error_points_still_exit_zero(self):
        out = run_cli("quadratures", "--sweep", "r=0:1:2", "--m", "1")
        assert out.returncode == 0
        assert "error:AnnihilatedStateError" in out.stdout

    def test_malformed_sweep(self):
        assert run_cli("quadratures", "--sweep", "r=0:1").returncode == 2
        assert run_cli("quadratures", "--sweep", "q=0:1:5").returncode == 2
        assert run_cli("quadratures", "--sweep", "m=0:0.5:2").returncode == 2

    def test_unknown_quantity(self):
        assert run_cli("quadratures", "--quantities", "bogus").returncode == 2

    def test_json_format(self):
        out = run_cli("number-squeezing", "--f", "poschl-teller", "--r", "1.0",
                      "--format", "json")
        assert out.returncode == 0
        rows = json.loads(out.stdout)
        assert rows[0]["quantity"] == "n_squeeze"
        assert rows[0]["status"] == "ok"


class TestWigner:
    def test_csv_with_sidecar(self, tmp_path):
        path = tmp_path / "w.csv"
        out = run_cli("wigner", "--f", "poschl-teller", "--r", "1", "--m", "1",
                      "--grid", "-2:2:15", "--out", str(path))
        assert out.returncode == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x,p,w"
        assert len(lines) == 1 + 15 * 15
        sidecar = json.loads((tmp_path / "w.csv.json").read_text())
        assert sidecar["metrics"]["negative_volume"] > 0
        assert sidecar["nonlinearity"]["kind"] == "poschl_teller"

    def test_negative_grid_extent_parses(self, tmp_path):
        path = tmp_path / "w.csv"
        out = run_cli("wigner", "--r", "0.3", "--grid", "-1.5:1.5:5",
                      "--out", str(path))
        assert out.returncode == 0

    def test_matrix_format(self, tmp_path):
        path = tmp_path / "w.txt"
        out = run_cli("wigner", "--f", "poschl-teller", "--r", "0.5",
                      "--grid", "-2:2:7,-1:1:5", "--format", "matrix",
                      "--out", str(path))
        assert out.returncode == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "# x -2 2 7"
        assert lines[1] == "# p -1 1 5"
        assert len(lines) == 2 + 7
        assert len(lines[2].split()) == 5

    def test_reruns_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("wigner", "--f", "poschl-teller", "--r", "1", "--parity", "odd",
                "--grid", "-2:2:11")
        run_cli(*args, "--out", str(a))
        run_cli(*args, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.csv.json").read_bytes() == (tmp_path / "b.csv.json").read_bytes()

    def test_requires_out(self):
        assert run_cli("wigner", "--r", "0.5").returncode == 2

    def test_malformed_grid(self):
        assert run_cli("wigner", "--r", "0.5", "--grid", "0:1",
                       "--out", "/tmp/x.csv").returncode == 2


class TestSharedWriters:
    """Files from the CLI equal the library writers' files byte for byte."""

    PT = gpssvs.Nonlinearity.poschl_teller(1.5, 1.5)
    FLAGS = ("--f", "poschl-teller", "--r", "1.3", "--theta", "0.7", "--m", "1",
             "--parity", "odd")
    SPEC = gpssvs.SqueezeSpec(1.3, 0.7, 1, "odd")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_state(self, tmp_path, capsys, fmt):
        path, lib = tmp_path / "cli", tmp_path / "lib"
        assert cli.main(["state", *self.FLAGS, "--format", fmt, "--out", str(path)]) == 0
        assert cli.main(["state", *self.FLAGS, "--format", fmt]) == 0
        gpssvs.write_state(gpssvs.pssvs(self.PT, self.SPEC), lib, fmt)
        assert path.read_bytes() == lib.read_bytes()
        assert capsys.readouterr().out.encode() == lib.read_bytes()
        if fmt == "csv":
            gpssvs.write_state_csv(gpssvs.pssvs(self.PT, self.SPEC), lib)
            assert path.read_bytes() == lib.read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_sweep(self, tmp_path, fmt):
        path, lib = tmp_path / "cli", tmp_path / "lib"
        assert cli.main(["quadratures", *self.FLAGS, "--sweep", "r=0:1.5:4",
                         "--format", fmt, "--out", str(path)]) == 0
        rows = gpssvs.sweep(self.PT, np.linspace(0, 1.5, 4), [0.7], [1], "odd",
                            ("var_x", "var_p", "robertson_rhs"))
        assert any(row.status != "ok" for row in rows)  # error rows too
        gpssvs.write_sweep(rows, lib, fmt)
        assert path.read_bytes() == lib.read_bytes()
        if fmt == "csv":
            gpssvs.write_sweep_csv(rows, lib)
            assert path.read_bytes() == lib.read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "matrix", "json"])
    def test_wigner(self, tmp_path, fmt):
        path, lib = tmp_path / "cli", tmp_path / "lib"
        assert cli.main(["wigner", *self.FLAGS, "--grid", "-2:2:7,-1:1:5",
                         "--format", fmt, "--out", str(path)]) == 0
        grid = gpssvs.wigner_grid(gpssvs.pssvs(self.PT, self.SPEC), (-2, 2), (-1, 1), (7, 5))
        {"csv": gpssvs.write_wigner_csv, "matrix": gpssvs.write_wigner_matrix,
         "json": lambda g, p: gpssvs.write_wigner(g, p, "json")}[fmt](grid, lib)
        assert path.read_bytes() == lib.read_bytes()
        if fmt == "csv":
            assert ((tmp_path / "cli.json").read_bytes()
                    == (tmp_path / "lib.json").read_bytes())

    def test_unknown_format_rejected_before_writing(self, tmp_path):
        state = gpssvs.pssvs(self.PT, self.SPEC)
        grid = gpssvs.wigner_grid(state, (-1, 1), (-1, 1), 3)
        for write, obj in ((gpssvs.write_state, state), (gpssvs.write_sweep, []),
                           (gpssvs.write_wigner, grid)):
            with pytest.raises(ValueError):
                write(obj, tmp_path / "x", "png")
        assert not list(tmp_path.iterdir())

    def test_internal_error_exits_3_without_rows(self, monkeypatch, capsys):
        def broken(state, n_max=None):
            raise gpssvs.InternalConsistencyError("routes disagree")

        monkeypatch.setattr(gpssvs.observables, "quadrature_report", broken)
        assert cli.main(["quadratures", *self.FLAGS]) == 3
        assert capsys.readouterr().out == ""


class TestVerify:
    def test_default_suite_passes(self, tmp_path):
        path = tmp_path / "report.json"
        out = run_cli("verify", "--out", str(path))
        assert out.returncode == 0
        report = json.loads(path.read_text())
        assert report["all_passed"] is True
        assert all(c["passed"] for c in report["checks"])
        names = {c["name"] for c in report["checks"]}
        assert "squeeze-two-path" in names and "wigner-two-path" in names

    def test_small_oracle_dim_flags_truncation_failures(self):
        out = run_cli("verify", "--oracle-dim", "10")
        assert out.returncode == 4
        report = json.loads(out.stdout)
        assert report["all_passed"] is False
        notes = [c["note"] for c in report["checks"] if not c["passed"]]
        assert any("truncation domain" in note for note in notes)

    def test_loose_tolerance_still_green(self):
        out = run_cli("verify", "--tol", "1e-2")
        assert out.returncode == 0
        assert json.loads(out.stdout)["all_passed"] is True

    def test_report_is_deterministic(self):
        a = run_cli("verify")
        b = run_cli("verify")
        assert a.stdout == b.stdout
