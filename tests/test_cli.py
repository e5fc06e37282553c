import argparse
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from dicke_critic import __version__, baths, cli, lindblad, meanfield, response
from dicke_critic.baths import CavityParams, parse_bath
from dicke_critic.cli import main
from dicke_critic.config import SETTINGS, coerce, merge_config, parse_float_list
from dicke_critic.critical import SweepPlan, Transition, fully_polarized_gc, solve_gc, sweep
from dicke_critic.errors import ConfigParseError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_record(out):
    rec = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition(" = ")
        rec[key] = value
    return rec


class TestGc:
    def test_equilibrium_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "gc", "--bath", "dephasing(gamma=0,sz=-0.5)",
            "--omega-z", "1", "--omega0", "1", "--kappa", "0",
        )
        rec = parse_record(out)
        assert code == 0
        assert float(rec["g_c"]) == 0.5
        assert float(rec["chi0"]) == -2.0
        assert float(rec["g_c_over_g0"]) == 1.0

    def test_unpolarized_exits_2(self, capsys):
        code, out, _ = run_cli(
            capsys, "gc", "--bath", "generalized(gamma=0.2,t=1)",
            "--omega-z", "1", "--omega0", "1", "--kappa", "0",
        )
        assert code == 2
        assert "no transition: unpolarized" in out

    @pytest.mark.parametrize("argv, reason", [
        (["--raw-units", "--kappa", "0.5", "--omega-z", "-1", "--bath",
          "dephasing(gamma=0.3, sz=-0.5)"], "inverted"),
        (["--raw-units", "--kappa", "0.5", "--omega-z", "0", "--bath",
          "dephasing(gamma=0.3, sz=-0.5)"], "unpolarized"),
        (["--bath", "dephasing(gamma=0.3, sz=0)", "--omega0", "1e-300"], "unpolarized"),
    ], ids=["inverted", "omega_z_zero", "underflowing_cavity"])
    def test_no_transition_needs_no_reference(self, capsys, argv, reason):
        # g0 needs omega_z > 0 and a normal omega0^2 + kappa^2, but a point without a
        # transition prints g_c_over_g0 = inf without it
        code, out, err = run_cli(capsys, "gc", *argv)
        assert (code, err) == (2, "")
        rec = parse_record(out)
        assert (rec["g_c"], rec["g_c_over_g0"]) == (f"no transition: {reason}", "inf")

    def test_thermal_zero_temperature(self, capsys):
        code, out, _ = run_cli(
            capsys, "gc", "--bath", "thermal(gamma=0.1,T=0)",
            "--omega-z", "1", "--omega0", "1", "--kappa", "1",
        )
        assert code == 0
        expected = 0.5 * math.sqrt((1.0 + 0.01) * 2.0)
        assert float(parse_record(out)["g_c"]) == pytest.approx(expected, rel=1e-15)

    def test_verify_runs_oracle(self, capsys):
        # weak damping too: the steady state stays unique down to gamma = 1e-12
        weak = [f"{family}(gamma={gamma}, {arg})" for gamma in ("3e-10", "1e-12")
                for family, arg in (("thermal", "T=0.5"), ("generalized", "t=0.3"))]
        for text in ("generalized(gamma=0.2,t=0.4)", *weak):
            code, out, err = run_cli(capsys, "gc", "--bath", text, "--kappa", "0.5", "--verify")
            assert (code, err) == (0, ""), text
            assert float(parse_record(out)["oracle_rel_dev"]) < 1e-6

    def test_small_scale_points_run(self, capsys):
        # omega_z = 1e-6 and 1e-12 in raw units: the zero-mode rule is relative, so the steady
        # state stays unique, and gc prints the g_c / g0 of the unit-scale point; a dephasing
        # rate of 2e7 (raw chi0 = -5e-15) and optical frequencies (raw chi0 = -6.9e-16) lie
        # inside ZERO_TOL only in raw units, and at unit scale have a transition
        for argv, ratio in (
            (["--bath", "dephasing(gamma=2e7, sz=-0.5)"], 2.0000000000000026e7),
            (["--omega-z", "2.4e15", "--omega0", "2.4e15", "--kappa", "1e15", "--bath",
              "thermal(gamma=1e14, T=1e15)"], 1.0966011476878366),
        ):
            code, out, err = run_cli(capsys, "gc", *argv)
            assert (code, err) == (0, ""), argv
            assert float(parse_record(out)["g_c_over_g0"]) == pytest.approx(ratio, rel=1e-14)
        _, unit, _ = run_cli(capsys, "gc", "--verify", "--bath", "thermal(gamma=1e-7, T=0.5)")
        code, out, err = run_cli(capsys, "gc", "--verify", "--raw-units", "--omega-z", "1e-6",
                                 "--omega0", "1e-6", "--bath", "thermal(gamma=1e-13, T=5e-7)")
        assert (code, err) == (0, "")
        assert parse_record(out)["g_c_over_g0"] == parse_record(unit)["g_c_over_g0"]
        code, out, err = run_cli(capsys, "corr", "--omega-z", "1e-12", "--bath",
                                 "generalized(gamma=2e-13, t=0.4)")
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("argv, expected", [
        (("--bath", "generalized(gamma=0.2, t=0.4)"), 0),
        (("--bath", "generalized(gamma=0.2, t=1)"), 2),
        (("--bath", "generalized(gamma=0.2, t=0.4)", "--kappa", "0.5", "--verify"), 0),
        (("--bath", "generalized(gamma=0.2, t=0.4)", "--kappa", "0.5", "--verify",
          "--mode", "Literature"), 3),
    ], ids=["ok", "no_transition", "verify", "verify_disagrees"])
    def test_output_file_holds_the_stdout_record(self, capsys, tmp_path, argv, expected):
        out_file = tmp_path / "gc.txt"
        code, out, err = run_cli(capsys, "gc", *argv)
        assert (code, err) == (expected, "")
        assert run_cli(capsys, "gc", *argv, "--output", str(out_file)) == (expected, "", "")
        assert out_file.read_bytes() == out.encode()

    @pytest.mark.parametrize("extra, expected", [
        ([], 0),
        (["--mode", "literature"], 3),
        (["--omega-z", "2", "--raw-units"], 0),
    ], ids=["defaults", "literature", "raw_units"])
    def test_verify_lines_match_per_value_reference(self, capsys, extra, expected):
        # each key = value line rebuilt from the library calls, fmt() on each value
        text = "generalized(gamma=0.2, t=0.4)"
        bath, cavity = parse_bath(text), CavityParams(1.0, 0.0)
        omega_z = 2.0 if "--omega-z" in extra else 1.0
        mode = baths.GcMode.LITERATURE if "--mode" in extra else baths.GcMode.SELF_CONSISTENT
        unit = 1.0 if "--raw-units" in extra else omega_z
        chi0 = baths.closed_form_chi0(bath, omega_z, mode)
        g_c = solve_gc(chi0, cavity).g_c
        # the threshold of the point at unit scale, every frequency over omega_z (a power of
        # two), times omega_z: not bitwise the threshold at omega_z = 2
        unit_bath = baths.Generalized(gamma=bath.gamma / omega_z, t=bath.t)
        g_star = omega_z * meanfield.stability_threshold(
            CavityParams(1.0 / omega_z, 0.0), baths.spin_model(unit_bath, 1.0),
            0.4 * g_c / omega_z, 2.5 * g_c / omega_z)
        lines = [f"units = {'raw' if '--raw-units' in extra else 'omega_z'}",
                 f"chi0 = {cli.fmt(chi0 * unit)}", f"g_c = {cli.fmt(g_c / unit)}",
                 f"g_c_over_g0 = {cli.fmt(g_c / fully_polarized_gc(omega_z, cavity))}",
                 f"g_star = {cli.fmt(g_star / unit)}",
                 f"oracle_rel_dev = {cli.fmt(abs(g_star - g_c) / g_c)}"]
        assert run_cli(capsys, "gc", "--verify", "--bath", text, *extra) == (
            expected, "".join(f"{line}\n" for line in lines), "")

    def test_bad_bath_exits_1(self, capsys):
        # parse_bath's own diagnostic, naming the flag, and no usage block
        for bath, diagnostic in (
            ("squeezed(r=1)", "unknown bath 'squeezed'"),
            ("thermal(gamma=abc, T=0.5)", "could not parse 'abc' as a number"),
        ):
            code, out, err = run_cli(capsys, "gc", "--bath", bath)
            assert (code, out) == (1, "")
            assert err.startswith("dicke-critic: error: bad value for --bath: ")
            assert diagnostic in err
            assert "usage" not in err

    def test_raw_units(self, capsys):
        args = ["gc", "--bath", "dephasing(gamma=0,sz=-0.5)", "--omega-z", "2", "--omega0", "2"]
        _, out_norm, _ = run_cli(capsys, *args)
        _, out_raw, _ = run_cli(capsys, *args, "--raw-units")
        assert float(parse_record(out_norm)["g_c"]) == pytest.approx(0.5, rel=1e-14)
        assert float(parse_record(out_raw)["g_c"]) == pytest.approx(1.0, rel=1e-14)


    def test_singular_points_exit_1(self, capsys):
        for args, quantity in (
            (["--bath", "dephasing(gamma=0, sz=-0.5)", "--omega-z", "0"], "chi0 is undefined"),
            (["--bath", "thermal(gamma=0.1, T=0.5)", "--omega0", "1e200"], "g_c overflows"),
            (["--bath", "generalized(gamma=0.5, t=0.3)", "--omega0", "1e-300"],
             "g_c is undefined: omega0^2 + kappa^2 underflows"),
            # float * and / overflow to inf without an exception
            (["--bath", "dephasing(gamma=0.3, sz=-0.5)", "--omega-z", "1e10", "--omega0", "1e150",
              "--raw-units"], "g0 overflows the float range"),
            (["--bath", "dephasing(gamma=3e6, sz=-0.5)", "--omega0", "1e-300", "--kappa", "1",
              "--raw-units"], "g_c overflows the float range"),
        ):
            code, out, err = run_cli(capsys, "gc", *args)
            assert (code, out) == (1, "")
            assert err.startswith("dicke-critic: error: at bath = ") and quantity in err
        for point, cause in ((["dephasing(gamma=0.3, sz=-0.5)", "--omega-z", "1e10", "--omega0",
                               "1e150"], "g0"),
                             (["dephasing(gamma=3e6, sz=-0.5)", "--omega0", "1e-300"], "g_c")):
            code, out, err = run_cli(capsys, "sweep", "--bath", *point, "--raw-units",
                                     "--sweep-param", "kappa", "--sweep-values", "1,2")
            assert (code, out) == (1, "")
            assert err.endswith(f": row 0, kappa = 1.0: {cause} overflows the float range\n")
        code, out, err = run_cli(capsys, "sweep", "--bath", "dephasing(gamma=0, sz=-0.5)",
                                 "--sweep-param", "omega_z", "--sweep-values", "1,0")
        assert (code, out) == (1, "")
        assert "row 1, omega_z = 0.0: chi0 is undefined" in err
        code, out, err = run_cli(capsys, "sweep", "--bath", "generalized(gamma=0.5, t=0.3)",
                                 "--sweep-param", "omega0", "--sweep-values=1e-300,1e-200,1")
        assert (code, out) == (1, "")
        assert "row 0, omega0 = 1e-300: g_c is undefined: omega0^2 + kappa^2 underflows" in err


# sweeps along kappa, whose chi0 (and g_c/g0, up to rounding) repeat on every row:
# chi0 = -0.0 on every row at t = 1, and a grid that repeats -0.0 and 0.0
KAPPA_GRID = ",".join(repr(k / 4) for k in range(12))
REPEATED_SWEEPS = (
    ("thermal(gamma=0.1, T=0.5)", "kappa", KAPPA_GRID),
    ("generalized(gamma=0.5, t=1)", "kappa", KAPPA_GRID),
    ("thermal(gamma=0.1, T=0.5)", "kappa", "-0.0,0,-0.0,0,-0.0,0"),
)


class TestSweep:
    def test_rows_without_a_transition_at_nonpositive_omega_z(self, capsys):
        # each row prints what gc prints at its point: no g0 where there is no g_c
        argv = ["--raw-units", "--kappa", "0.5", "--bath", "dephasing(gamma=0.3, sz=-0.5)"]
        code, out, err = run_cli(capsys, "sweep", *argv, "--sweep-param", "omega_z",
                                 "--sweep-values=-1,0,1")
        assert (code, err) == (0, "")
        rows = [line.split(",") for line in out.splitlines()[2:]]
        assert [row[-1] for row in rows] == [
            "no-transition:inverted", "no-transition:unpolarized", "ok"]
        for row, omega_z in zip(rows, ("-1", "0", "1")):
            rec = parse_record(run_cli(capsys, "gc", *argv, "--omega-z", omega_z)[1])
            assert row[1] == rec["chi0"]
            if row[-1] == "ok":
                assert row[2:4] == [rec["g_c"], rec["g_c_over_g0"]]
            else:
                assert row[2:4] == ["inf", "inf"] and rec["g_c_over_g0"] == "inf"

    def test_csv_structure_and_order(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--bath", "thermal(gamma=0.2,T=0.1)",
            "--sweep-param", "T", "--sweep-start", "0.05", "--sweep-stop", "1.0",
            "--sweep-points", "8", "--output", str(out_file),
        )
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == f"# dicke-critic v{__version__}"
        assert lines[1] == "T,chi0,g_c,g_c_over_g0,status"
        assert len(lines) == 10
        temps = [float(line.split(",")[0]) for line in lines[2:]]
        assert temps == sorted(temps)
        gcs = [float(line.split(",")[2]) for line in lines[2:]]
        assert all(a < b for a, b in zip(gcs, gcs[1:]))

    def test_divergence_flagged_near_t1(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.csv"
        run_cli(
            capsys, "sweep", "--bath", "generalized(gamma=0.5,t=0)",
            "--sweep-param", "t", "--sweep-values", "0.0,0.5,1.0",
            "--output", str(out_file),
        )
        rows = out_file.read_text().splitlines()[2:]
        assert rows[0].endswith("ok")
        assert rows[2].split(",")[2] == "inf"
        assert rows[2].endswith("no-transition:unpolarized")

    def test_json_format(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.json"
        run_cli(
            capsys, "sweep", "--bath", "generalized(gamma=0.5,t=0)",
            "--sweep-param", "t", "--sweep-values", "0.0,1.0",
            "--format", "json", "--output", str(out_file),
        )
        rows = json.loads(out_file.read_text())
        assert rows[0]["status"] == "ok"
        assert rows[1]["g_c"] is None
        assert rows[1]["status"] == "no-transition:unpolarized"

    def test_byte_identical_reruns(self, capsys, tmp_path):
        args = [
            "sweep", "--bath", "generalized(gamma=0.5,t=0)",
            "--sweep-param", "t", "--sweep-start", "0", "--sweep-stop", "0.99",
            "--sweep-points", "25",
        ]
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, *args, "--output", str(f1))
        run_cli(capsys, *args, "--output", str(f2))
        assert f1.read_bytes() == f2.read_bytes()

    def test_empty_sweep_value_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--bath", "thermal(gamma=0.2,T=0.1)",
            "--sweep-param", "T", "--sweep-values", "0.2,,0.5",
        )
        assert code == 1
        assert "--sweep-values" in err

    def test_missing_grid_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--bath", "thermal(gamma=0.2,T=0.1)")
        assert code == 1

    def test_bad_axis_error_names_no_row(self, capsys):
        # the axis is resolved before any row is built, so the line names the point alone
        assert run_cli(capsys, "sweep", "--bath", "thermal(gamma=0.1, T=0.5)", "--sweep-param", "x",
                       "--sweep-values", "0.1,0.2") == (
            1, "", "dicke-critic: error: at bath = thermal(gamma=0.1, T=0.5), omega_z = 1, "
                   "omega0 = 1, kappa = 0: cannot sweep 'x': not a parameter of Thermal\n")


    def test_json_writer_matches_json_dumps(self, capsys):
        # null rows, inverted rows and chi0 = -0.0 (t = 1), in omega_z units; along kappa,
        # columns of repeated values, chi0 = -0.0 on every row, and x = -0.0 apart from 0.0
        for bath, axis, values in (
            ("generalized(gamma=0.5, t=0)", "t", "0,0.5,1"),
            ("dephasing(gamma=0.2, sz=-0.5)", "sz", "-0.5,0,0.5"),
            *REPEATED_SWEEPS,
        ):
            code, out, _ = run_cli(capsys, "sweep", "--bath", bath, "--sweep-param", axis,
                                   f"--sweep-values={values}", "--omega-z", "1.3",
                                   "--kappa", "0.2", "--format", "json")
            assert code == 0
            table = sweep(SweepPlan(parse_bath(bath), 1.3, CavityParams(1.0, 0.2), axis,
                                    parse_float_list(values)))
            rows = [
                {axis: x, "chi0": chi0 * 1.3,
                 "g_c": g_c / 1.3 if status == "ok" else None,
                 "g_c_over_g0": ratio if status == "ok" else None, "status": status}
                for x, chi0, g_c, ratio, status in zip(
                    table.params.tolist(), table.chi0.tolist(), table.g_c.tolist(),
                    table.gc_over_g0.tolist(), table.status.tolist())
            ]
            assert out == json.dumps(rows, indent=2) + "\n"
        assert '"chi0": -0.0,' in run_cli(capsys, "sweep", "--bath", "generalized(gamma=0.5, t=0)",
                                           "--sweep-param", "t", "--sweep-values", "1",
                                           "--format", "json")[1]
        csv = run_cli(capsys, "sweep", "--bath", "generalized(gamma=0.5, t=0)",
                      "--sweep-param", "t", "--sweep-values", "1")[1]
        assert csv.splitlines()[2] == "1,0,inf,inf,no-transition:unpolarized"

    @pytest.mark.parametrize("raw", [False, True], ids=["omega_z_units", "raw_units"])
    def test_csv_writer_matches_per_row_format(self, capsys, raw):
        # chi0 = -0.0 (t = 1) and x = -0.0, inverted rows, values from 1e-300 to 1e300,
        # and columns of repeated values along kappa
        unit = 1.0 if raw else 1.3
        for bath, axis, values in (
            ("generalized(gamma=0.5, t=0)", "t", "-0.0,0.5,1"),
            ("dephasing(gamma=0.2, sz=-0.5)", "sz", "-0.5,-0.0,0.5"),
            ("thermal(gamma=0.1, T=0.5)", "gamma", "1e-300,0.3,1e300"),
            ("generalized(gamma=0.5, t=0.3)", "omega0", "1e-100,1,1e100"),
            *REPEATED_SWEEPS,
            # 4004 float cells, past cli.SPELL_MIN_CELLS: spelled by spelling.spell
            ("dephasing(gamma=0.2, sz=-0.5)", "sz", ",".join(repr(k / 1000) for k in range(-500, 501))),
        ):
            argv = ["sweep", "--bath", bath, "--sweep-param", axis, f"--sweep-values={values}",
                    "--omega-z", "1.3", "--kappa", "0.2", *(["--raw-units"] if raw else [])]
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            table = sweep(SweepPlan(parse_bath(bath), 1.3, CavityParams(1.0, 0.2), axis,
                                    parse_float_list(values)))
            lines = [cli.HEADER, f"{axis},chi0,g_c,g_c_over_g0,status"]
            for x, chi0, g_c, ratio, status in zip(
                    table.params.tolist(), table.chi0.tolist(), table.g_c.tolist(),
                    table.gc_over_g0.tolist(), table.status.tolist()):
                tail = f"{g_c / unit + 0.0:.17g},{ratio + 0.0:.17g}" if status == "ok" else "inf,inf"
                lines.append(f"{x + 0.0:.17g},{chi0 * unit + 0.0:.17g},{tail},{status}")
            assert out == "".join(line + "\n" for line in lines)
            assert "-0," not in out and ",-0," not in out

    def test_repeated_values_import_no_numpy_ma(self):
        # np.unique would import numpy.ma (over 1 MB of resident memory) on its first call;
        # both tables are spelled by spelling.spell
        script = textwrap.dedent(f"""
            import contextlib, io, sys
            from dicke_critic import cli
            argv = ["sweep", "--bath", "thermal(gamma=0.1, T=0.5)", "--sweep-param", "kappa",
                    "--sweep-start", "0", "--sweep-stop", "2",
                    "--sweep-points", "{cli.SPELL_MIN_CELLS // 4}"]
            with contextlib.redirect_stdout(io.StringIO()):
                codes = [cli.main(argv), cli.main([*argv, "--format", "json"])]
            print(codes, "numpy.ma" in sys.modules)
        """)
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True)
        assert proc.stdout == "[0, 0] False\n", proc.stderr

    def test_invalid_row_is_named(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--bath", "thermal(gamma=0.1, T=0.5)",
                                 "--sweep-param", "gamma", "--sweep-values", "0.1,0")
        assert (code, out) == (1, "")
        assert err == (
            "dicke-critic: error: at bath = thermal(gamma=0.1, T=0.5), omega_z = 1, omega0 = 1, "
            "kappa = 0: row 1, gamma = 0.0: thermal rate 0.0 must be > 0\n"
        )


def text(blocks):
    """The text of a table's blocks, as write writes it."""
    return b"".join(blocks).decode()


def test_csv_table_same_bytes_either_side_of_the_threshold(monkeypatch):
    # one float cell below SPELL_MIN_CELLS the per-row template writes the table, at it
    # spelling.spell; the bytes are the same
    spell, spelled = cli.spelling.spell, []
    monkeypatch.setattr(cli.spelling, "spell", lambda *a, **k: spelled.append(1) or spell(*a, **k))
    values = np.array([-0.0, 0.1, np.inf, -2.5e-7, 1e300, 123456789.0, np.nan, -1e-20])
    for cells in (cli.SPELL_MIN_CELLS - 1, cli.SPELL_MIN_CELLS):
        x = np.resize(values, cells)
        labels = [f"row{i}" for i in range(cells)]
        lines = [f"{cli.fmt(v)},{label}\n" for v, label in zip(x.tolist(), labels)]
        table = text(cli.csv_table("x,label", [x, labels]))
        assert table == f"{cli.HEADER}\nx,label\n" + "".join(lines)
    assert len(spelled) == 1


def test_csv_table_writes_rows_from_columns():
    # -0.0 flushed, inf kept, a text column as it is; columns of unequal length
    # or of complex values are errors, not truncated or misprinted rows
    table = text(cli.csv_table("a,b,c", [np.array([-0.0, np.inf]), ["x", "y"],
                                         np.array([0.1, 1e300])]))
    assert table == f"{cli.HEADER}\na,b,c\n0,x,0.10000000000000001\ninf,y,1.0000000000000001e+300\n"
    assert text(cli.csv_table("a", [np.array([])])) == f"{cli.HEADER}\na\n"
    big = cli.SPELL_MIN_CELLS  # the same errors from a table that spelling.spell writes
    for n in (2, big):
        with pytest.raises(ValueError):
            cli.csv_table("a,b", [np.zeros(n), np.zeros(n + 1)])
        with pytest.raises(TypeError):
            cli.csv_table("a", [np.full(n, 1j)])


class TestWriter:
    """Tables go to stdout or to --output a block at a time, through cli.write."""

    BLOCK = 600  # spelling.ROW_BLOCK here: a CSV sweep of 500 rows or more is spelled in blocks

    @pytest.fixture
    def writes(self, monkeypatch):
        """The blocks of each cli.write call, in turn."""
        monkeypatch.setattr(cli.spelling, "ROW_BLOCK", self.BLOCK)
        write, calls = cli.write, []

        def record(output, blocks):
            calls.append(list(blocks))
            write(output, calls[-1])

        monkeypatch.setattr(cli, "write", record)
        return calls

    @staticmethod
    def reference(fmt, axis, table, unit):
        """The table formed as one string, row by row."""
        rows = list(zip(table.params.tolist(), (table.chi0 * unit).tolist(),
                        (table.g_c / unit).tolist(), table.gc_over_g0.tolist(),
                        table.status.tolist()))
        if fmt == "json":
            return json.dumps([{axis: x, "chi0": chi0, "g_c": g_c if status == "ok" else None,
                                "g_c_over_g0": ratio if status == "ok" else None,
                                "status": status}
                               for x, chi0, g_c, ratio, status in rows], indent=2) + "\n"
        spell = lambda v: format(v + 0.0, ".17g")
        lines = [cli.HEADER, f"{axis},chi0,g_c,g_c_over_g0,status"]
        for x, chi0, g_c, ratio, status in rows:
            tail = [spell(g_c), spell(ratio)] if status == "ok" else ["inf", "inf"]
            lines.append(",".join([spell(x), spell(chi0), *tail, status]))
        return "".join(line + "\n" for line in lines)

    @pytest.mark.parametrize("rows", [1, BLOCK - 1, BLOCK, BLOCK + 1])
    @pytest.mark.parametrize("axis", ["T", "omega_z"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_blocks_read_as_the_one_string_table(self, capsys, tmp_path, writes, fmt, axis, rows):
        # a thermal sweep from T = 0, with rows past x = omega_z / T > 700, or along omega_z
        # past x > 700, on stdout and in --output
        i = np.arange(rows)
        grid = (2.0 * (i / self.BLOCK) ** 3 if axis == "T" else 0.1 + 400 * i / self.BLOCK).tolist()
        argv = ["sweep", "--bath", "thermal(gamma=0.1, T=0.5)", "--omega-z", "1.3", "--kappa",
                "0.2", "--sweep-param", axis, "--sweep-values=" + ",".join(map(repr, grid)),
                "--format", fmt]
        table = sweep(SweepPlan(parse_bath("thermal(gamma=0.1, T=0.5)"), 1.3,
                                CavityParams(1.0, 0.2), axis, grid))
        want = self.reference(fmt, axis, table, 1.3)
        assert run_cli(capsys, *argv) == (0, want, "")
        path = tmp_path / f"out.{fmt}"
        assert run_cli(capsys, *argv, "--output", str(path)) == (0, "", "")
        assert path.read_bytes() == want.encode()
        assert writes[0] == writes[1]
        spelled = fmt == "json" or 4 * rows >= cli.SPELL_MIN_CELLS  # else the per-row template
        # the head, then a block of at most BLOCK rows at a time; the template's one block
        assert len(writes[0]) == (1 + -(-rows // self.BLOCK) if spelled else 1)
        if fmt == "json":
            assert writes[0][0] == b"[\n" and writes[0][-1].endswith(b"\n  }\n]\n")
            assert writes[0][-1].count(b"{") == rows - self.BLOCK * (len(writes[0]) - 2)

    def test_small_table_is_one_write(self, capsys, writes, monkeypatch):
        # below SPELL_MIN_CELLS the whole table, head included, goes to stdout at once
        stdout = []
        monkeypatch.setattr(sys, "stdout", type("Out", (), {"write": stdout.append})())
        assert cli.main(["spectrum", "--bath", "thermal(gamma=0.1, T=0.5)"]) == 0
        assert len(writes) == 1 and len(writes[0]) == 1 and len(stdout) == 1
        assert stdout[0].startswith(cli.HEADER) and stdout[0].count("\n") == 203

    def test_failed_run_writes_no_file(self, capsys, tmp_path):
        path = tmp_path / "out.csv"
        code, _, err = run_cli(capsys, "sweep", "--bath", "thermal(gamma=0.1, T=0.5)",
                               "--sweep-param", "gamma", "--sweep-values", "0.1,0",
                               "--output", str(path))
        assert code == 1 and "row 1, gamma = 0.0" in err
        assert not path.exists()
        for n in (2, cli.SPELL_MIN_CELLS):  # a table the template or the kernel would write
            with pytest.raises(ValueError):
                cli.write(str(path), cli.csv_table("a,b", [np.zeros(n), np.zeros(n + 1)]))
            assert not path.exists()


# every bath along one bath axis, omega_z and kappa, at omega_z = 1.3, omega0 = 0.8,
# kappa = 0.3: sz runs through 0 (unpolarized and inverted rows) on an explicit grid,
# T starts at 0, and the t grid is expanded from --sweep-start/--sweep-stop and ends at 1
GOLDEN_SWEEPS = {
    "dephasing/sz": ("dephasing(gamma=0.3, sz=-0.4)",
                     ["--sweep-values=" + ",".join(repr(k / 50) for k in range(-25, 26))]),
    "dephasing/omega_z": ("dephasing(gamma=0.3, sz=-0.4)",
                          ["--sweep-start", "0.25", "--sweep-stop", "3", "--sweep-points", "50"]),
    "dephasing/kappa": ("dephasing(gamma=0.3, sz=-0.4)",
                        ["--sweep-start", "0", "--sweep-stop", "2", "--sweep-points", "49"]),
    "thermal/T": ("thermal(gamma=0.2, T=0.4)",
                  ["--sweep-start", "0", "--sweep-stop", "2.5", "--sweep-points", "50"]),
    "thermal/omega_z": ("thermal(gamma=0.2, T=0.4)",
                        ["--sweep-start", "0.25", "--sweep-stop", "3", "--sweep-points", "50"]),
    "thermal/kappa": ("thermal(gamma=0.2, T=0.4)",
                      ["--sweep-start", "0", "--sweep-stop", "2", "--sweep-points", "49"]),
    "generalized/t": ("generalized(gamma=0.4, t=0.3)",
                      ["--sweep-start", "0.3", "--sweep-stop", "1", "--sweep-points", "50"]),
    "generalized/omega_z": ("generalized(gamma=0.4, t=0.3)",
                            ["--sweep-start", "0.25", "--sweep-stop", "3", "--sweep-points", "50"]),
    "generalized/kappa": ("generalized(gamma=0.4, t=0.3)",
                          ["--sweep-start", "0", "--sweep-stop", "2", "--sweep-points", "49"]),
}
# sha256 of the stdout of each sweep, format and unit, as the per-row code wrote it
# (byte identity across versions, where criterion 12 compares two runs of one version)
GOLDEN_DIGESTS = {
    "dephasing/sz/csv/omega_z":
        "46c765b0dee59ef67c813c4abb59c07fa1a1f46bc7a0d42ce3a2d894eb5d4be3",
    "dephasing/sz/csv/raw":
        "77664fb16152ddd2c6a149b739d3ddfcbc6071a21af3ce885c2c8862cb6969f2",
    "dephasing/sz/json/omega_z":
        "187aa1d4ac6e8fd3e64f3ffa21cc03ec9c734ecefdfc0763eaf070ee4e33b36d",
    "dephasing/sz/json/raw":
        "d4faa70a8d6b609371e64a94b6ec401270aa5e40c07cbb5f0dbbfcb169e7375b",
    "dephasing/omega_z/csv/omega_z":
        "39bac3606079098e19d593cca93b4dce553fa6ebe96211f7119c9e8207aaa3e7",
    "dephasing/omega_z/csv/raw":
        "2750e2b1840b8aedde72dca048bdf006999f03ebbf749cb10d5498ee9b46376a",
    "dephasing/omega_z/json/omega_z":
        "738559e4fc08da7e20da4d897a85eb114efff1cf8015dac14e2af47c22a58e6a",
    "dephasing/omega_z/json/raw":
        "31def7753353b4a499e24c98d9d81d4f486735dfcb20e9be1a69d691e0a8b219",
    "dephasing/kappa/csv/omega_z":
        "38609e7b6c838d28b7d99c3294849f06285c2b54c212d6eecc1115ebd6f68c75",
    "dephasing/kappa/csv/raw":
        "a0681523c2f5fe47094567417f81e20b3f91f5acd249e6f6d959c683e79ab61c",
    "dephasing/kappa/json/omega_z":
        "1e7f4704c6807d806901e7111654077c5bb53a92a74430dac19045ae6cb51c55",
    "dephasing/kappa/json/raw":
        "8beb5492707ba6f5ff12556621072d121097c7e898be94eaafd57405ff3fbbc8",
    "thermal/T/csv/omega_z":
        "8585222ada352b781098127ac8676d8e65b1503b7119bd6947be1760f8fad833",
    "thermal/T/csv/raw":
        "973fd8ef9fcc644c72e93dde003bcb5001a1baa2d8b5ced82f7ea2b20f7cd473",
    "thermal/T/json/omega_z":
        "4dc2be3cbec32ab1790f53ca67cff8cc7fb0c6d2fc6dab83e9bc98d9d208b318",
    "thermal/T/json/raw":
        "f7e10f2829981ea8937fa81d5998ea6b778171f1cec270a60dcb49c4d03b53ce",
    "thermal/omega_z/csv/omega_z":
        "34c49e09072948488d3395aec3477f8af601d3528a7c18a72ada30d62f530c44",
    "thermal/omega_z/csv/raw":
        "d97dda30270a79a8fdcd18ad46ef8d6f11e78797ce3ee74d9112b6baf432610e",
    "thermal/omega_z/json/omega_z":
        "5bc4e75517d7afe7e78f3467e4ae25f82808aac5963b0125dd15ad262c1579a8",
    "thermal/omega_z/json/raw":
        "3a4ac08711907db8ad24cfb9d71e6c63b8c967f680091b929de02bd7e7809308",
    "thermal/kappa/csv/omega_z":
        "26ba7bbcb70e7d27b6d9818a51da1c8edc361c37dfab1b17896e45464106e35c",
    "thermal/kappa/csv/raw":
        "9b0b2f0e40a78c3f7cf29362545349be96e4400e8c0510a96b1d4a7bed7a4675",
    "thermal/kappa/json/omega_z":
        "defb3327e7fb081e6ec61e07107712e2f51bb086bf826ad76bad0924959c25f6",
    "thermal/kappa/json/raw":
        "958a8e13243e1eea530131aa3da5cba15a6a10927b597e18f4ec053fa0337a2d",
    "generalized/t/csv/omega_z":
        "650e2c0e3448710b56f316986e621bc6f275c66b51f31d4af63bee036a1a1c4e",
    "generalized/t/csv/raw":
        "00281e761f943b331c06f41b3c2fc4e63c65d22361a7034bcb1d06a9b8a65f42",
    "generalized/t/json/omega_z":
        "6c9d0cf541addf7c6ff5d6187466ec28fe9488a4c77ba37cf50dc07cdb8660c9",
    "generalized/t/json/raw":
        "b0701e45a6f1be4cc1ef9c8e8930bd8d5be9dc937ddc1766b6c34395c4416ccb",
    "generalized/omega_z/csv/omega_z":
        "18dfd4fa558e1874f50ae0ce6a314fd7b0733ca914c04be336a062ab8de5dc93",
    "generalized/omega_z/csv/raw":
        "3989afaf20e56861e47bb31e7de4b35856de80201054cf25d852ef2d559124bb",
    "generalized/omega_z/json/omega_z":
        "952c59398d7cdfd3623003ef6fda7be9b8429565a85c2af274f806466ee63e70",
    "generalized/omega_z/json/raw":
        "bb32055b213b393da8055d8f5ace7c7f7eb29705e793dc64ac0eaddaff8b98ee",
    "generalized/kappa/csv/omega_z":
        "140406730a5ae06a1ff4266e42890882de20ec44cb4448cd82c762acfc8146c5",
    "generalized/kappa/csv/raw":
        "fd0ed03b26fe31bf2b42c9cf0f5c8d73e93183d1fb0a56a35e2d94ee0e414fef",
    "generalized/kappa/json/omega_z":
        "d819b76dc94adaf37badadc9d9967417ef2192d94ca13c37c0bf4952a365d4ac",
    "generalized/kappa/json/raw":
        "cd46b590b39af2db271ed0d2ee995e3cc29dcdb00c10ac88b42fd3680306c790",
}


def _golden_outputs(capsys, case):
    bath, grid = GOLDEN_SWEEPS[case]
    outputs = {}
    for fmt in ("csv", "json"):
        for units in ("omega_z", "raw"):
            argv = ["sweep", "--bath", bath, "--sweep-param", case.split("/")[1], *grid,
                    "--omega-z", "1.3", "--omega0", "0.8", "--kappa", "0.3", "--format", fmt,
                    *(["--raw-units"] if units == "raw" else [])]
            code, out, err = run_cli(capsys, *argv)
            assert (code, err) == (0, "")
            outputs[f"{case}/{fmt}/{units}"] = out
    return outputs


@pytest.mark.parametrize("case", list(GOLDEN_SWEEPS))
def test_sweep_output_matches_recorded_digests(capsys, case):
    outputs = _golden_outputs(capsys, case)
    digests = {key: hashlib.sha256(out.encode()).hexdigest() for key, out in outputs.items()}
    assert digests == {key: GOLDEN_DIGESTS[key] for key in digests}
    rows = outputs[f"{case}/csv/raw"].splitlines()[2:]
    assert 49 <= len(rows) <= 51
    if case == "generalized/t":
        assert rows[-1] == "1,0,inf,inf,no-transition:unpolarized"
    if case == "dephasing/sz":
        assert {row.rsplit(",", 1)[1] for row in rows} == {
            "ok", "no-transition:unpolarized", "no-transition:inverted"}


# sha256 of each script's CSV, as its per-row code wrote it, with one BLAS thread
SCRIPT_DIGESTS = {
    "decay_channel_sweep/defaults":
        "5149d5ba2d39c536422dd631b55afae049346f2dbd47532b3aa9691fae9414da",
    "decay_channel_sweep/kappa0.3-points17":
        "83aaa14a3fa3083752c0df64f0b703c81ec4a2fe4cb56e55ea2d0a5788380e95",
    "finite_size_onset/points3":
        "bf5b6e2fb4a454ded895b097d308a622942925a2baffc3a137a5bd3710ee09ed",
}
SCRIPT_ARGS = {
    "decay_channel_sweep/defaults": [],
    "decay_channel_sweep/kappa0.3-points17": ["--kappa", "0.3", "--points", "17"],
    "finite_size_onset/points3": ["--points", "3"],
}


@pytest.mark.parametrize("case", list(SCRIPT_DIGESTS))
def test_script_output_matches_recorded_digests(tmp_path, case):
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    output = tmp_path / "out.csv"
    script = root / "scripts" / f"{case.split('/')[0]}.py"
    subprocess.run([sys.executable, str(script), *SCRIPT_ARGS[case], "--output", str(output)],
                   env=env, capture_output=True, check=True)
    assert hashlib.sha256(output.read_bytes()).hexdigest() == SCRIPT_DIGESTS[case]


def test_decay_channel_sweep_rejects_an_empty_ratio(tmp_path):
    # the script reads --gamma-ratios with config.parse_float_list: a usage error, not a traceback
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(root / "scripts" / "decay_channel_sweep.py"),
                           "--gamma-ratios", "0.25,,0.5", "--output", str(tmp_path / "out.csv")],
                          env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.endswith("error: argument --gamma-ratios: "
                                "invalid parse_float_list value: '0.25,,0.5'\n")
    assert not (tmp_path / "out.csv").exists()



def run_script(name, *args):
    """A script of scripts/ in a fresh interpreter with one BLAS thread, its text captured."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(root / "scripts" / f"{name}.py"), *args],
                          env=env, capture_output=True, text=True)


def test_decay_channel_sweep_rows_match_per_value_reference(tmp_path):
    # the per-row loop that critical.sweep replaced: closed_form_gc at each t, over g0.
    # gamma = 3 and 5 omega_z lie above (3 sqrt(3)/2) omega_z: the exact curve is non-monotone
    ratios, kappa, points = ("0.1", "3.0", "5.0"), 0.7, 333
    output = tmp_path / "out.csv"
    proc = run_script("decay_channel_sweep", "--gamma-ratios", ",".join(ratios),
                      "--kappa", str(kappa), "--points", str(points), "--output", str(output))
    assert proc.returncode == 0, proc.stderr
    cavity = CavityParams(1.0, kappa)
    g0 = fully_polarized_gc(1.0, cavity)
    ts = np.linspace(0.0, 0.99, points)
    names, cols = ["t"], [ts.tolist()]
    for r in map(float, ratios):
        names += [f"gc_exact_gamma{r}", f"gc_quoted_gamma{r}"]
        for mode in (baths.GcMode.SELF_CONSISTENT, baths.GcMode.LITERATURE):
            results = [baths.closed_form_gc(baths.Generalized(gamma=r, t=t), 1.0, cavity, mode)
                       for t in ts.tolist()]
            cols.append([res.g_c / g0 if isinstance(res, Transition) else math.inf
                         for res in results])
    exact = np.array(cols[5])  # gamma = 5 omega_z, self-consistent
    assert np.any(np.diff(exact) < 0) and np.any(np.diff(exact) > 0)
    lines = [cli.HEADER, ",".join(names), *(",".join(map(cli.fmt, row)) for row in zip(*cols))]
    assert output.read_text() == "".join(f"{line}\n" for line in lines)


@pytest.mark.parametrize("script, args, cause", [
    ("decay_channel_sweep", ["--gamma-ratios", "nan"], "rate nan must be > 0"),
    ("decay_channel_sweep", ["--gamma-ratios", "0"], "rate 0.0 must be > 0"),
    ("decay_channel_sweep", ["--gamma-ratios", "0.5,inf"], "rate inf must be > 0"),
    ("decay_channel_sweep", ["--kappa", "-1"], "kappa = -1.0 must be nonnegative"),
    ("decay_channel_sweep", ["--points", "0"], "sweep grids must be non-empty"),
    ("decay_channel_sweep", ["--points", "-1"], "sweep grids must be non-empty"),
    ("decay_channel_sweep", ["--points", "1000001"], "--points = 1000001 must be <= 1000000"),
    ("decay_channel_sweep", ["--output", "{missing}"],
     "cannot write {missing}: No such file or directory"),
    ("finite_size_onset", ["--points", "2", "--max-atoms", "1", "--output", "{missing}"],
     "cannot write {missing}: No such file or directory"),
    ("finite_size_onset", ["--points", "2", "--max-atoms", "1", "--gamma", "0"],
     "rate 0.0 must be > 0"),
    ("finite_size_onset", ["--points", "2", "--max-atoms", "1", "--kappa", "-1"],
     "kappa = -1.0 must be nonnegative"),
    ("finite_size_onset", ["--points", "2", "--max-atoms", "1", "--n-fock", "1"],
     "n_fock = 1 must be >= 2"),
    ("finite_size_onset", ["--points", "-2", "--max-atoms", "1"], "--points = -2 must be >= 1"),
    ("finite_size_onset", ["--points", "2", "--max-atoms", "0"], "--max-atoms = 0 must be >= 1"),
], ids=["gamma-nan", "gamma-0", "gamma-inf", "kappa-negative", "points-0", "points-negative",
        "points-too-many", "decay-missing-dir", "onset-missing-dir", "onset-gamma-0",
        "onset-kappa-negative",
        "onset-n-fock-1", "onset-points-negative", "onset-max-atoms-0"])
def test_script_error_is_one_line(tmp_path, script, args, cause):
    # exit 1 and one "<script>: error: ..." line on stderr: no traceback, no file
    output, missing = tmp_path / "out.csv", tmp_path / "missing" / "out.csv"
    args = [arg.format(missing=missing) for arg in args]
    proc = run_script(script, *args, *([] if "--output" in args else ["--output", str(output)]))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"{script}.py: error: {cause.format(missing=missing)}\n"
    assert not output.exists() and not missing.parent.exists()


# sha256 of scripts/oracle_table.py's stdout, as its per-point route chain printed it,
# with one BLAS thread
ORACLE_TABLE_DIGESTS = {
    "defaults": "8a6e282f4c337dd2685f81726aabf0f5bd53ef9bf6065afa5fa2ac0367a61af3",
    "detuned": "29ce10b57bcead48d0bb2b70d8389449a84f912211c046d6181dba8265a2cc47",
}
ORACLE_TABLE_ARGS = {"defaults": [], "detuned": ["--omega-z", "1.3", "--omega0", "0.8"]}


def run_oracle_table(*argv):
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(root / "scripts" / "oracle_table.py"), *argv],
                          env=env, capture_output=True)


@pytest.mark.parametrize("omega_z, expected, cause", [
    ("-1", 2, "closed_form: no transition: inverted"),
    ("0", 1, "chi0 is undefined (division by zero)"),
], ids=["inverted", "singular"])
def test_oracle_table_names_the_first_failing_suite_point(omega_z, expected, cause):
    proc = run_oracle_table("--omega-z", omega_z)
    assert (proc.returncode, proc.stdout) == (expected, b"")
    assert proc.stderr.decode() == ("oracle_table.py: error: suite point "
                                    f"dephasing(gamma=0.0, sz=-0.5), kappa = 0: {cause}\n")


@pytest.mark.parametrize("case", list(ORACLE_TABLE_DIGESTS))
def test_oracle_table_stdout_matches_recorded_digests(case):
    proc = run_oracle_table(*ORACLE_TABLE_ARGS[case])
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert hashlib.sha256(proc.stdout).hexdigest() == ORACLE_TABLE_DIGESTS[case]


class TestCorr:
    def test_undamped_cosine_columns(self, capsys, tmp_path):
        out_file = tmp_path / "corr.csv"
        code, _, _ = run_cli(
            capsys, "corr", "--bath", "dephasing(gamma=0,sz=-0.5)",
            "--omega-z", "1", "--output", str(out_file),
        )
        assert code == 0
        rows = [line.split(",") for line in out_file.read_text().splitlines()[2:]]
        assert len(rows) > 100
        ts = np.array([float(r[0]) for r in rows])
        re_sx = np.array([float(r[1]) for r in rows])
        im_sx = np.array([float(r[2]) for r in rows])
        assert np.max(np.abs(re_sx - 0.25 * np.cos(ts))) < 1e-12
        assert np.max(np.abs(im_sx - 0.25 * np.sin(ts))) < 1e-12

    def test_damped_correlator_columns(self, capsys, tmp_path):
        out_file = tmp_path / "corr.csv"
        run_cli(
            capsys, "corr", "--bath", "dephasing(gamma=0.4,sz=-0.5)",
            "--output", str(out_file),
        )
        rows = [line.split(",") for line in out_file.read_text().splitlines()[2:]]
        ts = np.array([float(r[0]) for r in rows])
        re_sx = np.array([float(r[1]) for r in rows])
        assert np.max(np.abs(re_sx - 0.25 * np.exp(-0.4 * ts) * np.cos(ts))) < 1e-12

    @pytest.mark.parametrize("gamma, t", [(1.0, 0.5), (2.0, 0.25), (0.5, 1.0)])
    def test_exceptional_point_rows(self, capsys, gamma, t):
        # 2 t gamma = omega_z: S_x = e^{-gamma(1+t^2) tau} (1/4 + tau (1/4 - i sz/2))
        code, out, _ = run_cli(capsys, "corr", "--bath", f"generalized(gamma={gamma},t={t})")
        assert code == 0
        rows = np.array([line.split(",") for line in out.splitlines()[2:]], dtype=float)
        ts, sz = rows[:, 0], -0.5 * (1 - t**2) / (1 + t**2)
        expected = np.exp(-gamma * (1 + t**2) * ts) * (0.25 + ts * (0.25 - 0.5j * sz))
        assert np.max(np.abs(rows[:, 1] + 1j * rows[:, 2] - expected)) < 1e-10

    @pytest.mark.parametrize("bath, extra", [
        ("generalized(gamma=1, t=0.5)", []),
        ("dephasing(gamma=0, sz=-0.5)", []),
        ("thermal(gamma=0.05, T=0.7)", ["--omega-z", "2"]),
        ("thermal(gamma=0.05, T=0.7)", ["--omega-z", "2", "--raw-units"]),
    ], ids=["exceptional_point", "undamped", "omega_z_units", "raw_units"])
    def test_rows_match_per_value_reference(self, capsys, bath, extra):
        # the per-row loop the column writer replaced: fmt() on each value
        omega_z = float(extra[1]) if extra else 1.0
        model = baths.spin_model(parse_bath(bath), omega_z)
        series = lindblad.two_time_sx(model, lindblad.steady_state(model).rho)
        unit = 1.0 if "--raw-units" in extra else omega_z
        lines = [cli.HEADER, "t,re_sx,im_sx"]
        for t, v in zip(series.times, series.values):
            lines.append(f"{cli.fmt(t * unit)},{cli.fmt(v.real)},{cli.fmt(v.imag)}")
        assert run_cli(capsys, "corr", "--bath", bath, *extra) == (
            0, "".join(f"{line}\n" for line in lines), "")

    @pytest.mark.filterwarnings("error")
    def test_nonpositive_tmax_exits_1(self, capsys):
        # undamped and damped alike: one typed line naming the sign, not a numpy traceback or
        # the envelope bound
        for bath in ("dephasing(gamma=0, sz=-0.5)", "thermal(gamma=0.1, T=0.5)"):
            for tmax in ("-1", "0"):
                code, out, err = run_cli(capsys, "corr", "--bath", bath, "--tmax", tmax)
                assert (code, out) == (1, ""), (bath, tmax)
                assert err.endswith(f": tmax = {float(tmax)} must be positive\n")
                assert err.count("\n") == 1

    def test_thermal_occupation_underflow_exits_1(self, capsys):
        # omega_z / T underflows to 0: the occupation is a typed error naming the point,
        # in corr (the channels), in gc and sweep (chi0; sweep names the row) and in
        # spectrum (the closed form's rates)
        cavity = ", omega0 = 1, kappa = 0"
        for command, extra, point in (
            ("corr", [], ""),
            ("gc", [], cavity),
            ("sweep", ["--sweep-param", "T", "--sweep-values", "1e300"],
             f"{cavity}: row 0, T = 1e+300"),
            ("spectrum", [], cavity),
        ):
            code, out, err = run_cli(capsys, command, "--bath", "thermal(gamma=0.1, T=1e300)",
                                     "--omega-z", "1e-300", *extra)
            assert (code, out) == (1, ""), command
            assert err == ("dicke-critic: error: at bath = thermal(gamma=0.1, T=1e+300), "
                           f"omega_z = 1e-300{point}: thermal occupation is undefined "
                           "(division by zero)\n")

    @pytest.mark.filterwarnings("error")
    def test_thermal_occupation_overflow_exits_1(self, capsys):
        # omega_z / T is subnormal, so 1 / expm1 overflows: gc, corr and spectrum name it alike;
        # a rate of 1e308 takes the generator that corr steps past the float range
        thermal = ("thermal(gamma=0.1, T=1)", "1e-310", "thermal(gamma=0.1, T=1.0), omega_z = "
                   "9.9999999999999694e-311", "thermal occupation")
        generator = ("generalized(gamma=1e308, t=0.5)", "1",
                     "generalized(gamma=1e+308, t=0.5), omega_z = 1", "the generator")
        for command, (bath, omega_z, named, cause), point in (
            ("gc", thermal, ", omega0 = 1, kappa = 0"), ("corr", thermal, ""),
            ("spectrum", thermal, ", omega0 = 1, kappa = 0"), ("corr", generator, ""),
        ):
            code, out, err = run_cli(capsys, command, "--bath", bath, "--omega-z", omega_z,
                                     "--raw-units")
            assert (code, out) == (1, ""), command
            assert err == (f"dicke-critic: error: at bath = {named}{point}: {cause} overflows "
                           "the float range\n")


class TestSpectrum:
    def test_bare_cavity_minima_at_poles(self, capsys, tmp_path):
        out_file = tmp_path / "spec.csv"
        code, _, _ = run_cli(
            capsys, "spectrum", "--bath", "dephasing(gamma=0.3,sz=-0.5)",
            "--g", "0", "--omega0", "1", "--kappa", "0.05",
            "--omega-min", "-2", "--omega-max", "2", "--omega-points", "401",
            "--output", str(out_file),
        )
        assert code == 0
        rows = [line.split(",") for line in out_file.read_text().splitlines()[2:]]
        omegas = np.array([float(r[0]) for r in rows])
        dets = np.array([complex(float(r[1]), float(r[2])) for r in rows])
        mags = np.abs(dets)
        local_min = omegas[np.argmin(mags[omegas > 0] )]
        pos = omegas[omegas > 0]
        assert pos[np.argmin(mags[omegas > 0])] == pytest.approx(1.0, abs=0.02)
        neg = omegas[omegas < 0]
        assert neg[np.argmin(mags[omegas < 0])] == pytest.approx(-1.0, abs=0.02)


    @pytest.mark.filterwarnings("error")
    def test_undamped_resonance_exits_1(self, capsys):
        # the default 201-point grid holds omega = +-omega_z exactly; at the smallest
        # rate chi there is about 1e323, past the float range
        for gamma, cause in (
            ("0", "undamped mode (eigenvalue 0+1j) evaluated at its resonance omega = -1.0"),
            ("5e-324", "chi leaves the float range at omega = -1.0"),
        ):
            code, out, err = run_cli(
                capsys, "spectrum", "--bath", f"dephasing(gamma={gamma},sz=-0.5)", "--g", "0.3",
            )
            assert code == 1
            assert out == ""
            assert err.endswith(f": {cause}\n") and err.count("\n") == 1

    def test_error_names_the_point(self, capsys, tmp_path):
        out_file = tmp_path / "spec.csv"
        code, out, err = run_cli(
            capsys, "spectrum", "--bath", "dephasing(gamma=0,sz=-0.5)", "--g", "0.3",
            "--omega-z", "1.5", "--omega0", "1.25", "--kappa", "0.5",
            "--output", str(out_file),
        )
        assert code == 1
        assert out == ""
        assert not out_file.exists()
        assert err.startswith(
            "dicke-critic: error: at bath = dephasing(gamma=0.0, sz=-0.5), "
            "omega_z = 1.5, omega0 = 1.25, kappa = 0.5: undamped mode"
        )

    def test_exceptional_point_spectrum(self, capsys):
        # 2 t gamma = omega_z, where the generator is defective
        from dicke_critic import baths

        code, out, _ = run_cli(
            capsys, "spectrum", "--bath", "generalized(gamma=1,t=0.5)",
            "--g", "0.4", "--kappa", "0.1", "--omega-points", "41",
        )
        assert code == 0
        rows = np.array([line.split(",") for line in out.splitlines()[2:]], dtype=float)
        chi = baths.closed_form_chi(baths.Generalized(1.0, 0.5), 1.0)(rows[:, 0])
        assert np.max(np.abs(rows[:, 3] + 1j * rows[:, 4] - chi)) < 1e-12

    def test_zero_frequency_row_is_exact(self, capsys):
        omega0, kappa, g = 1.1, 0.3, 0.4
        for bath, omega_z in (
            ("thermal(gamma=0.1,T=0.5)", 1.0),
            # a complex division there put chi(0) an ulp from chi0
            ("generalized(gamma=0.331024638654852, t=0.04425354658686846)", 2.853585038879616),
        ):
            code, out, _ = run_cli(
                capsys, "spectrum", "--bath", bath, "--g", str(g), "--omega0", str(omega0),
                "--kappa", str(kappa), "--omega-min", "-1", "--omega-max", "1",
                "--omega-points", "3", "--omega-z", repr(omega_z), "--raw-units",
            )
            assert code == 0
            rows = [line.split(",") for line in out.splitlines()[2:]]
            assert [float(r[0]) for r in rows] == [-1.0, 0.0, 1.0]
            chi0 = baths.closed_form_chi0(baths.parse_bath(bath), omega_z)
            assert float(rows[1][2]) == 0.0
            assert rows[1][3:] == [cli.fmt(chi0), "0"]  # chi(0) is chi0, and real
            # the zero-frequency condition, in cavity_det's order of operations
            want = omega0**2 + kappa**2 + 2.0 * omega0 * (g**2 * chi0)
            assert rows[1][1] == cli.fmt(want), bath

    @pytest.mark.parametrize("raw", [False, True], ids=["omega_z", "raw"])
    def test_zero_frequency_chi_is_gc_chi0(self, capsys, raw):
        # gc's chi0, a one-row sweep's chi0 and spectrum's omega = 0 re_chi are one text,
        # at 24 seeded points of the three families and at one where a complex division
        # put chi(0) an ulp from chi0
        rng = np.random.default_rng(38)
        points = [("generalized(gamma=0.331024638654852, t=0.04425354658686846)",
                   2.853585038879616)]
        for i in range(24):
            gamma, omega_z = 10.0 ** rng.uniform(-2, 1), 10.0 ** rng.uniform(-1, 1)
            points.append(((f"dephasing(gamma={gamma!r}, sz={rng.uniform(-0.5, 0.5)!r})",
                            f"thermal(gamma={gamma!r}, T={10.0 ** rng.uniform(-1, 1)!r})",
                            f"generalized(gamma={gamma!r}, t={rng.uniform(0, 1)!r})")[i % 3],
                           omega_z))
        for bath, omega_z in points:
            point = ["--bath", bath, "--omega-z", repr(omega_z), *(["--raw-units"] if raw else [])]
            texts = (
                parse_record(run_cli(capsys, "gc", *point)[1])["chi0"],
                run_cli(capsys, "sweep", *point, "--sweep-param", "omega0",
                        "--sweep-values", "1")[1].splitlines()[2].split(",")[1],
                run_cli(capsys, "spectrum", *point, "--omega-min=-1", "--omega-max", "1",
                        "--omega-points", "3")[1].splitlines()[3].split(",")[3],
            )
            assert len(set(texts)) == 1, (bath, omega_z, texts)

    @pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning would reach stderr
    def test_grid_past_the_float_range_exits_1(self, capsys):
        # the default grid at omega0 = 8e307, where 2.5 omega0 is inf, and a grid spanning
        # 2e308: one typed line naming the grid ends
        for extra, ends in ((["--omega0", "8e307"], "-inf to inf"),
                            (["--omega-min=-1e308", "--omega-max", "1e308"], "-1e+308 to 1e+308")):
            code, out, err = run_cli(capsys, "spectrum", "--bath", "thermal(gamma=0.1, T=0.5)",
                                     *extra)
            assert (code, out) == (1, "")
            assert err.endswith(f": the frequency grid from {ends} spans past the float range\n")
            assert err.count("\n") == 1

    @pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning would reach stderr
    def test_det_past_the_float_range_exits_1(self, capsys):
        # g^2 and omega0^2 overflow as Python floats (OverflowError), g^2 chi as numpy
        # (inf without an exception): one typed line each, and no row
        for extra, cause in (
            (["--g", "1e200"], "det overflows the float range"),
            (["--omega0", "1e160", "--raw-units", "--omega-min", "0", "--omega-max", "1"],
             "det overflows the float range"),
            (["--g", "1e154"], "det leaves the float range at omega = -1.6"),
        ):
            code, out, err = run_cli(capsys, "spectrum", "--bath", "thermal(gamma=0.1, T=0.5)",
                                     *extra)
            assert (code, out) == (1, ""), extra
            assert err.endswith(f": {cause}\n") and err.count("\n") == 1, err

    def test_repeated_runs_are_byte_identical(self, capsys, tmp_path):
        args = ["spectrum", "--bath", "thermal(gamma=0.003,T=0.5)", "--g", "0.3",
                "--kappa", "0.2"]
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            assert run_cli(capsys, *args, "--output", str(path))[0] == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("points", [41, 40], ids=["odd", "even"])
    @pytest.mark.parametrize("raw", [False, True], ids=["omega_z", "raw"])
    @pytest.mark.parametrize("bath", ["dephasing(gamma=0.3, sz=-0.4)",
                                      "thermal(gamma=0.05, T=0.7)",
                                      "generalized(gamma=0.2, t=0.4)"])
    def test_rows_match_per_value_reference(self, capsys, tmp_path, bath, raw, points):
        # the per-row loop the column writer replaced: fmt() on each value.
        # An odd grid holds omega = 0 exactly and reaches cavity_det's zero
        # branch; at this point a broadcast (omega + i kappa)^2 differs from
        # that branch in the last bit for all three baths
        omega_z, omega0, kappa, g = 1.3, 0.9, 0.15, 0.45
        cavity = CavityParams(omega0=omega0, kappa=kappa)
        omega_max = 2.5 * max(omega0, omega_z)
        omegas = np.linspace(-omega_max, omega_max, points)
        assert (0.0 in omegas.tolist()) == (points % 2 == 1)
        chis = baths.closed_form_chi(parse_bath(bath), omega_z)(omegas)
        unit = 1.0 if raw else omega_z
        lines = [cli.HEADER, "omega,re_det,im_det,re_chi,im_chi"]
        for w, chi in zip(omegas, chis):
            det = response.cavity_det(float(w), cavity, g, complex(chi))
            lines.append(f"{cli.fmt(w / unit)},{cli.fmt(det.real)},{cli.fmt(det.imag)},"
                         f"{cli.fmt(chi.real * unit)},{cli.fmt(chi.imag * unit)}")
        out_file = tmp_path / "spec.csv"
        argv = ["spectrum", "--bath", bath, "--omega-z", str(omega_z), "--omega0", str(omega0),
                "--kappa", str(kappa), "--g", str(g), "--omega-points", str(points),
                "--output", str(out_file), *(["--raw-units"] if raw else [])]
        assert run_cli(capsys, *argv)[0] == 0
        assert out_file.read_bytes() == "".join(f"{line}\n" for line in lines).encode()

    @pytest.mark.parametrize("points", [41, 40], ids=["odd", "even"])
    @pytest.mark.parametrize("bath", [
        "dephasing(gamma=0.0039, sz=-0.4)", "thermal(gamma=0.0039, T=0.7)",
        "generalized(gamma=0.0039, t=0.4)", "dephasing(gamma=0.39, sz=-0.4)",
        "thermal(gamma=0.39, T=0.7)", "generalized(gamma=0.39, t=0.4)",
        "generalized(gamma=1.3, t=0.5)",
    ], ids=["dephasing-weak", "thermal-weak", "generalized-weak", "dephasing", "thermal",
            "generalized", "exceptional_point"])
    def test_chi_columns_match_the_resolvent(self, capsys, bath, points):
        # gamma = 3e-3 and 0.3 omega_z, and 2 t gamma = omega_z, at omega_z = 1.3: the
        # closed form the command writes meets the engine route within 1e-12 of max |chi|
        omega_z = 1.3
        code, out, err = run_cli(capsys, "spectrum", "--bath", bath, "--omega-z", str(omega_z),
                                 "--kappa", "0.2", "--g", "0.4", "--omega-points", str(points),
                                 "--raw-units")
        assert (code, err) == (0, "")
        rows = np.array([line.split(",") for line in out.splitlines()[2:]], dtype=float)
        want = response.resolvent_chi(baths.spin_model(parse_bath(bath), omega_z))(rows[:, 0])
        got = rows[:, 3] + 1j * rows[:, 4]
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))

    @pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning would reach stderr
    @pytest.mark.parametrize("bath", ["generalized(gamma=1e300, t=0.5)",
                                      "dephasing(gamma=1e-200, sz=-0.5)"],
                             ids=["overflow", "underflow"])
    def test_extreme_rates_are_quiet(self, capsys, bath):
        # the denominator overflows to chi = 0; gamma^2 underflows, harmlessly, next to
        # |chi| ~ 1e200 near omega = +-omega_z: exit 0, and nothing on stderr
        code, out, err = run_cli(capsys, "spectrum", "--bath", bath, "--g", "0.3")
        assert (code, err) == (0, "")
        rows = np.array([line.split(",") for line in out.splitlines()[2:]], dtype=float)
        chi = baths.closed_form_chi(parse_bath(bath), 1.0)(rows[:, 0])
        assert np.all(np.isfinite(rows))
        assert np.array_equal(rows[:, 3] + 1j * rows[:, 4], chi)
        assert np.any(chi != 0) == bath.startswith("dephasing")


class TestOracleCommand:
    def test_oracle_suite_passes(self, capsys, tmp_path):
        out_file = tmp_path / "oracle.csv"
        code, _, _ = run_cli(capsys, "oracle", "--output", str(out_file))
        assert code == 0
        rows = out_file.read_text().splitlines()
        assert rows[1] == "bath,omega_z,omega0,kappa,g_c_closed,g_star,rel_dev"
        assert len(rows) == 11
        devs = [float(line.rsplit(",", 1)[1]) for line in rows[2:]]
        assert max(devs) < 1e-5

    @pytest.mark.parametrize("extra", [[], ["--omega-z", "1.3", "--omega0", "0.8"]],
                             ids=["defaults", "detuned"])
    def test_rows_match_per_value_reference(self, capsys, extra):
        # the per-row loop the column writer replaced: the quoted bath, then fmt() on each value
        omega_z, omega0 = (float(extra[1]), float(extra[3])) if extra else (1.0, 1.0)
        lines = [cli.HEADER, "bath,omega_z,omega0,kappa,g_c_closed,g_star,rel_dev"]
        for text, kappa in cli.ORACLE_SUITE:
            bath, cavity = parse_bath(text), CavityParams(omega0, kappa)
            g_c = baths.closed_form_gc(bath, omega_z, cavity).g_c
            g_star = meanfield.stability_threshold(
                cavity, baths.spin_model(bath, omega_z), 0.4 * g_c, 2.5 * g_c)
            values = (omega_z, omega0, kappa, g_c, g_star, abs(g_star - g_c) / g_c)
            lines.append(f'"{text}",' + ",".join(map(cli.fmt, values)))
        code, out, _ = run_cli(capsys, "oracle", *extra)
        assert code in (0, 3)
        assert out == "".join(f"{line}\n" for line in lines)

    @pytest.mark.parametrize("omega_z, expected, cause", [
        ("-1", 2, "closed_form: no transition: inverted"),
        ("0", 1, "chi0 is undefined (division by zero)"),
    ], ids=["inverted", "singular"])
    def test_first_failing_suite_point_is_named(self, capsys, omega_z, expected, cause):
        # the first suite point stops the run: one stderr line, nothing on stdout
        code, out, err = run_cli(capsys, "oracle", "--omega-z", omega_z)
        assert (code, out) == (expected, "")
        assert err == (f"dicke-critic: error: at omega_z = {omega_z}, omega0 = 1: "
                       f"suite point dephasing(gamma=0.0, sz=-0.5), kappa = 0: {cause}\n")

    def test_tight_tolerance_exits_3(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "oracle", "--tol", "1e-16", "--output", str(tmp_path / "oracle.csv")
        )
        assert code == 3


class TestConfigFile:
    def test_config_file_drives_gc(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# one point\n"
            "bath = dephasing(gamma=0, sz=-0.5)\n"
            "omega_z = 1.0\n"
            "omega0 = 1.0\n"
            "kappa = 0.0\n"
        )
        code, out, _ = run_cli(capsys, "gc", "--config", str(cfg))
        assert code == 0
        assert float(parse_record(out)["g_c"]) == 0.5

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bath = dephasing(gamma=0, sz=-0.5)\nkappa = 0.0\n")
        code, out, _ = run_cli(capsys, "gc", "--config", str(cfg), "--kappa", "1.0")
        assert float(parse_record(out)["g_c"]) == pytest.approx(
            0.5 * math.sqrt(2.0), rel=1e-14
        )

    def test_unknown_key_rejected_with_position(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bath = dephasing(gamma=0, sz=-0.5)\nfrobnicate = 3\n")
        code, _, err = run_cli(capsys, "gc", "--config", str(cfg))
        assert code == 1
        assert "frobnicate" in err
        assert "line 2" in err

    def test_bad_bath_value_has_line_number(self, capsys, tmp_path):
        # the column of the offending token in the file, not in the value
        cfg = tmp_path / "run.cfg"
        for bath, column in (("thermal(gamma=0.1, q=2)", 27), ("thermal(gamma=abc, T=0.5)", 22)):
            cfg.write_text(f"omega0 = 1.0\nbath = {bath}\n")
            code, _, err = run_cli(capsys, "gc", "--config", str(cfg))
            assert code == 1
            assert f"(line 2, column {column})" in err

    def test_empty_sweep_value_has_position(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bath = thermal(gamma=0.2, T=0.1)\nsweep_param = T\n"
                       "sweep_values = 0.2,,0.5\n")
        code, out, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 1
        assert out == ""
        assert "empty entry" in err
        assert "line 3, column 16" in err

    def test_unknown_flag_exits_1(self, capsys):
        code, _, _ = run_cli(capsys, "gc", "--frobnicate")
        assert code == 1

    def test_lines_a_command_does_not_read_are_checked_not_read(self, capsys, tmp_path):
        # one file serves gc, sweep and spectrum; oracle and corr check its other lines
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bath = thermal(gamma=0.1, T=0.5)\nkappa = 0.3\nmode = literature\n"
                       "sweep_param = T\nsweep_values = 0.1, 0.2\ng = 0.2\nomega_points = 5\n")
        for command in ("gc", "sweep", "spectrum"):
            assert run_cli(capsys, command, "--config", str(cfg))[::2] == (0, "")
        assert run_cli(capsys, "oracle", "--config", str(cfg)) == run_cli(capsys, "oracle")
        bath = ("--bath", "thermal(gamma=0.1, T=0.5)")
        assert run_cli(capsys, "corr", "--config", str(cfg)) == run_cli(capsys, "corr", *bath)
        cfg.write_text("kappa = -1\n")
        assert run_cli(capsys, "corr", *bath, "--config", str(cfg)) == (
            1, "", "dicke-critic: error: kappa = -1.0 must be nonnegative\n")

    @pytest.mark.parametrize("case, cause", [
        ("missing", "No such file or directory"),
        ("directory", "Is a directory"),
        ("not_utf8", "not UTF-8: invalid start byte at byte 10"),
    ])
    def test_unreadable_file_is_one_error_line(self, capsys, tmp_path, case, cause):
        path = tmp_path / "run.cfg"
        if case == "directory":
            path.mkdir()
        elif case == "not_utf8":
            path.write_bytes(b"omega0 = 1\xff\n")
        assert run_cli(capsys, "gc", "--bath", "thermal(gamma=0.1, T=0.5)", "--config", str(path)) == (
            1, "", f"dicke-critic: error: cannot read config file {path}: {cause}\n")


@pytest.mark.parametrize("argv", [
    ["corr", "--bath", "dephasing(gamma=0.3, sz=-0.5)"],
    ["spectrum", "--bath", "dephasing(gamma=0.3, sz=-0.5)"],
    ["sweep", "--bath", "thermal(gamma=0.1, T=0.5)", "--sweep-param", "omega_z",
     "--sweep-values", "1,2"],
], ids=["corr", "spectrum", "sweep"])
def test_omega_z_zero_is_no_unit(capsys, argv):
    # frequencies in units of omega_z = 0 would read 0, inf or nan: one typed line
    code, out, err = run_cli(capsys, *argv, "--omega-z", "0")
    assert (code, out) == (1, "")
    assert err.startswith("dicke-critic: error: at bath = ") and err.count("\n") == 1
    assert err.endswith(": omega_z = 0 cannot be the frequency unit; give --raw-units\n")
    if argv[0] != "sweep":  # in raw units the table is written
        assert run_cli(capsys, *argv, "--omega-z", "0", "--raw-units")[::2] == (0, "")


@pytest.mark.parametrize("case, cause", [("missing_directory", "No such file or directory"),
                                         ("directory", "Is a directory")])
def test_unwritable_output_is_one_error_line(capsys, tmp_path, case, cause):
    path = tmp_path / "absent" / "gc.txt" if case == "missing_directory" else tmp_path
    assert run_cli(capsys, "gc", "--bath", "thermal(gamma=0.1, T=0.5)", "--output", str(path)) == (
        1, "", f"dicke-critic: error: at bath = thermal(gamma=0.1, T=0.5), omega_z = 1, omega0 = 1, "
               f"kappa = 0: cannot write {path}: {cause}\n")


class TestNumericFlags:
    BATH = ("--bath", "thermal(gamma=0.1, T=0.5)")
    CASES = [
        (("gc", *BATH), "omega_z", "nan", "must be finite"),
        (("gc", *BATH), "omega0", "nan", "must be finite"),
        (("gc", *BATH), "kappa", "inf", "must be finite"),
        (("spectrum", *BATH), "omega_z", "-inf", "must be finite"),
        (("gc", "--verify", *BATH), "tol", "nan", "must be finite"),
        (("gc", "--verify", *BATH), "tol", "-1", "must be >= 0"),
        (("oracle",), "tol", "inf", "must be finite"),
        (("spectrum", *BATH), "omega_points", "0", "must be >= 1"),
        (("spectrum", *BATH), "omega_points", "-3", "must be >= 1"),
        (("spectrum", *BATH), "omega_points", "1000001", "must be <= 1000000"),
        (("spectrum", *BATH), "omega_min", "nan", "must be finite"),
        (("spectrum", *BATH), "omega_max", "-inf", "must be finite"),
        (("spectrum", *BATH), "g", "inf", "must be finite"),
        (("corr", *BATH), "tmax", "nan", "must be finite"),
        (("corr", *BATH), "dt", "inf", "must be finite"),
        (("sweep", *BATH, "--sweep-param", "gamma"), "sweep_start", "nan", "must be finite"),
        (("sweep", *BATH, "--sweep-param", "gamma", "--sweep-start", "0.1", "--sweep-points", "3"),
         "sweep_stop", "nan", "must be finite"),
        (("sweep", *BATH, "--sweep-param", "gamma"), "sweep_values", "0.1,inf",
         "every entry must be finite"),
        (("sweep", *BATH, "--sweep-param", "gamma", "--sweep-start", "0.1", "--sweep-stop", "1"),
         "sweep_points", "1000001", "must be <= 1000000"),
        (("sweep", *BATH, "--sweep-param", "gamma"), "sweep_values", ",".join(["0.1"] * 1000001),
         "(1000001 entries) must have at most 1000000"),
    ]

    def test_every_float_setting_is_checked_finite(self):
        finite = {key for _, key, _, rule in self.CASES if rule == "must be finite"}
        assert finite == {key for key, (parse, _) in SETTINGS.items() if parse is float}

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command, key, raw, rule", CASES,
                             ids=[f"{c[0]}-{k}={r if len(r) < 20 else 'long'}"
                                  for c, k, r, _ in CASES])
    def test_bad_value_is_typed_error(self, capsys, tmp_path, source, command, key, raw, rule):
        if source == "flag":
            argv = [*command, f"--{key.replace('_', '-')}={raw}"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{key} = {raw}\n")
            argv = [*command, "--config", str(cfg)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith(f"dicke-critic: error: {key} = ")
        assert rule in err


class TestSweepGrid:
    @staticmethod
    def expanded(lo, hi, n):
        cfg = merge_config({"sweep_start": repr(lo), "sweep_stop": repr(hi),
                            "sweep_points": str(n)}, None)
        return cfg.sweep_values

    def test_expansion_is_python_arithmetic_bitwise(self):
        rng = np.random.default_rng(20261019)
        ranges = [(0.0, 1.0), (0.3, 1.0), (-2.5, -0.5), (0.7, -1.3), (-1e-300, 1e300),
                  (-0.0, 5.0), (1.0, 1.0)]
        ranges += [tuple(rng.uniform(-10.0, 10.0, 2).tolist()) for _ in range(40)]
        for lo, hi in ranges:
            for n in (2, 3, 7, int(rng.integers(2, 5000))):
                step = (hi - lo) / (n - 1)
                want = tuple(lo + i * step for i in range(n))
                got = self.expanded(lo, hi, n)
                assert all(type(v) is float for v in got)
                assert np.array(got).tobytes() == np.array(want).tobytes(), (lo, hi, n)
        assert self.expanded(0.25, 3.0, 1) == (0.25,)

    @pytest.mark.parametrize("values, grid", [
        ("flag", "flags"), ("line", "lines"), ("line", "flags"), ("flag", "start_line"),
    ])
    def test_one_grid_form_at_a_time(self, capsys, tmp_path, values, grid):
        # an explicit grid and a start/stop/points grid, whichever source gave each
        cfg = tmp_path / "run.cfg"
        lines = {"lines": "sweep_start = 5\nsweep_stop = 6\nsweep_points = 7\n",
                 "start_line": "sweep_start = 5\n"}.get(grid, "")
        cfg.write_text(lines + ("sweep_values = 0.1, 0.2\n" if values == "line" else ""))
        argv = ["sweep", "--bath", "thermal(gamma=0.1, T=0.5)", "--sweep-param", "T",
                "--config", str(cfg), *(["--sweep-values", "0.1,0.2"] if values == "flag" else []),
                *(["--sweep-start", "5", "--sweep-stop", "6", "--sweep-points", "7"]
                  if grid == "flags" else [])]
        assert run_cli(capsys, *argv) == (1, "", "dicke-critic: error: sweep_values and "
                                          "sweep_start/sweep_stop/sweep_points are two grids: "
                                          "give one\n")

    def test_float_list_whitespace_and_empty_entries(self):
        assert parse_float_list(" 0.2 ,\t0.5\n, -1e-3,1") == (0.2, 0.5, -0.001, 1.0)
        assert all(type(v) is float for v in parse_float_list("1, 2"))
        assert math.copysign(1.0, parse_float_list(" -0.0 ")[0]) == -1.0
        for raw in ("0.2,,0.5", "0.2, ,0.5", "", " ", "0.2,", ",0.2"):
            with pytest.raises(ValueError, match="empty entry"):
                parse_float_list(raw)
        with pytest.raises(ValueError):
            parse_float_list("0.2, abc")

    def test_float_list_empty_entry_named_before_a_bad_one(self):
        # an empty entry is named as such wherever it sits, also after an entry float rejects
        for raw in ("1,x,,2", "1,,x"):
            with pytest.raises(ValueError, match=re.escape(f"empty entry in {raw!r}")):
                parse_float_list(raw)
        with pytest.raises(ValueError, match="could not convert string to float: 'x'"):
            parse_float_list("1,x,2")


def test_help_defaults_are_the_settings_defaults():
    # every "(default X)" that a subcommand's --help prints is its key's
    # SETTINGS default, read back through the key's parser
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    keys = set()
    for parser in sub.choices.values():
        printed = " ".join(parser.format_help().split())
        stated = [(action.dest, text) for action in parser._actions
                  for text in re.findall(r"\(default ([^)]*)\)", action.help or "")]
        assert printed.count("(default ") == len(stated)
        for key, text in stated:
            assert f"(default {text})" in printed
            assert coerce(key, text) == SETTINGS[key][1]
            keys.add(key)
    assert keys == {"omega_z", "omega0", "kappa", "mode", "tol", "g"}


def _declared_settings():
    """(command, key) for every run setting that a subcommand declares as a flag."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return [(name, action.dest) for name, parser in sub.choices.items()
            for action in parser._actions if action.dest not in ("help", "config")]


def _run_config(argv):
    return cli._run_config(cli.build_parser().parse_args(argv))


# text each run setting accepts, the same by flag and by config line
GOOD_TEXT = {
    "bath": "thermal(gamma=0.2, T=0.4)", "omega_z": "1.25", "omega0": "0.75",
    "kappa": "0.5", "mode": "Literature", "raw_units": "true", "verify": "true",
    "output": "out.csv", "format": "JSON", "tol": "0.001", "g": "0.3",
    "sweep_param": "T", "sweep_start": "0.1", "sweep_stop": "0.9", "sweep_points": "3",
    "sweep_values": "0.1, 0.2", "tmax": "5", "dt": "0.25", "omega_min": "-2",
    "omega_max": "3", "omega_points": "17",
}
BOOL_KEYS = ("raw_units", "verify")
# text each setting rejects, and the rule it gives; bool flags take no text, and
# any text is an output path or a sweep axis
BAD_TEXT = {
    **{key: ("abc", "could not convert string to float: 'abc'")
       for key in ("omega_z", "omega0", "kappa", "tol", "g", "sweep_start", "sweep_stop",
                   "tmax", "dt", "omega_min", "omega_max")},
    **{key: ("abc", "invalid literal for int() with base 10: 'abc'")
       for key in ("sweep_points", "omega_points")},
    "bath": ("thermal(gamma=abc, T=0.5)", "could not parse 'abc' as a number"),
    "mode": ("abc", "mode must be one of ['self-consistent', 'literature'], got 'abc'"),
    "format": ("XML", "format must be csv or json, got 'XML'"),
    "sweep_values": ("0.1,abc", "could not convert string to float: 'abc'"),
}
DECLARED = _declared_settings()
DECLARED_BAD = [(command, key) for command, key in DECLARED if key in BAD_TEXT]


class TestSettingSources:
    """A flag and the config line of the same key read the same text the same way."""

    # a grid bound or size reaches the RunConfig only together with the other two
    WITH = {
        "sweep_start": ("--sweep-stop", "1", "--sweep-points", "3"),
        "sweep_stop": ("--sweep-start", "0", "--sweep-points", "3"),
        "sweep_points": ("--sweep-start", "0", "--sweep-stop", "1"),
    }

    @staticmethod
    def sources(tmp_path, command, key, raw, extra=()):
        """argv giving key the text raw by its flag, and by a config line."""
        flag = f"--{key.replace('_', '-')}"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {raw}\n")
        flag_args = [flag] if key in BOOL_KEYS else [f"{flag}={raw}"]
        return [command, *extra, *flag_args], [command, *extra, "--config", str(cfg)]

    def test_every_setting_is_covered(self):
        assert {key for _, key in DECLARED} == set(GOOD_TEXT)
        assert set(BAD_TEXT) == set(GOOD_TEXT) - {*BOOL_KEYS, "output", "sweep_param"}

    @pytest.mark.parametrize("command, key", DECLARED, ids=[f"{c}-{k}" for c, k in DECLARED])
    def test_flag_and_config_line_give_equal_configs(self, tmp_path, command, key):
        extra = self.WITH.get(key, ())
        by_flag, by_line = self.sources(tmp_path, command, key, GOOD_TEXT[key], extra)
        cfg = _run_config(by_flag)
        assert cfg == _run_config(by_line)
        try:  # the setting reached the RunConfig: without it, it differs or is incomplete
            assert cfg != _run_config([command, *extra])
        except ConfigParseError as exc:
            assert str(exc) == "sweep_points needs sweep_start and sweep_stop"

    @pytest.mark.parametrize("command, key", DECLARED_BAD,
                             ids=[f"{c}-{k}" for c, k in DECLARED_BAD])
    def test_bad_text_gives_one_rule(self, capsys, tmp_path, command, key):
        raw, rule = BAD_TEXT[key]
        by_flag, by_line = self.sources(tmp_path, command, key, raw)
        flag = f"--{key.replace('_', '-')}"
        assert run_cli(capsys, *by_flag) == (
            1, "", f"dicke-critic: error: bad value for {flag}: {rule}\n")
        # a bath diagnostic points at the token in the value, any other at the value
        column = len(f"{key} = ") + 1 + (raw.index("abc") if key == "bath" else 0)
        assert run_cli(capsys, *by_line) == (
            1, "", f"dicke-critic: error: bad value for {key!r}: {rule} (line 1, column {column})\n")


# a base run of each command at a point where every setting it reads shows in its
# stdout or exit code: omega_z != 1 (raw_units) and a generalized bath (mode). Four
# settings show as a typed error naming their value: sweep_param T (not a parameter of
# the bath), sweep_values (a second grid), tmax 5 and dt 0.25 (too short, too coarse)
GUARD_BATH = ("--bath", "generalized(gamma=0.3, t=0.7)", "--omega-z", "2")
GUARD_BASE = {
    "gc": ("gc", *GUARD_BATH),
    "sweep": ("sweep", *GUARD_BATH, "--sweep-param", "gamma", "--sweep-start", "0.2",
              "--sweep-stop", "0.5", "--sweep-points", "2"),
    "corr": ("corr", *GUARD_BATH),
    "spectrum": ("spectrum", *GUARD_BATH),
    "oracle": ("oracle", "--omega-z", "2"),
}
# the settings that subcommands no longer declare, since no subcommand read them there
UNREAD = [("oracle", "bath"), ("oracle", "kappa"), ("oracle", "mode"), ("oracle", "raw_units"),
          ("corr", "omega0"), ("corr", "kappa"), ("corr", "mode"), ("spectrum", "mode")]


class TestCommandTable:
    """Each subcommand declares the flags of the settings it reads, and only those."""

    def test_declared_flags_are_the_command_table(self):
        assert DECLARED == [(command, key) for command, (_, keys) in cli.COMMANDS.items()
                            for key in (*keys, "output")]
        assert not set(UNREAD) & set(DECLARED)

    @pytest.mark.parametrize("command, key", DECLARED, ids=[f"{c}-{k}" for c, k in DECLARED])
    def test_every_declared_flag_changes_the_run(self, capsys, tmp_path, monkeypatch,
                                                 command, key):
        monkeypatch.chdir(tmp_path)  # --output=out.csv is written here, and stdout is empty
        base = list(GUARD_BASE[command])
        if key == "tol":  # against a tolerance of 0, which a nonzero deviation fails
            (tmp_path / "run.cfg").write_text("verify = true\ntol = 0\n")
            base += ["--config", "run.cfg"]
        flag = f"--{key.replace('_', '-')}"
        without = run_cli(capsys, *base)
        assert without[0] == (3 if key == "tol" else 0)
        given = [*base, flag] if key in BOOL_KEYS else [*base, f"{flag}={GOOD_TEXT[key]}"]
        assert run_cli(capsys, *given)[:2] != without[:2]

    @pytest.mark.parametrize("command, key", UNREAD, ids=[f"{c}-{k}" for c, k in UNREAD])
    def test_unread_setting_is_a_usage_error(self, capsys, command, key):
        flag = f"--{key.replace('_', '-')}"
        given = [flag] if key in BOOL_KEYS else [flag, GOOD_TEXT[key]]
        code, out, err = run_cli(capsys, *GUARD_BASE[command], *given)
        assert (code, out) == (1, "")
        assert err.endswith(f"dicke-critic: error: unrecognized arguments: {' '.join(given)}\n")


class TestParserCache:
    """One parser serves every main() call of a process; no call sees another's options."""

    BATH = ("--bath", "thermal(gamma=0.1, T=0.5)")

    def sequences(self, cfg_path):
        sweep = ("sweep", "--bath", "generalized(gamma=0.5, t=0)", "--sweep-param", "t",
                 "--sweep-values", "0,0.5")
        gc = ("gc", *self.BATH)
        spectrum = ("spectrum", *self.BATH)
        return {
            "sweep": [(*sweep, "--raw-units", "--format", "json", "--omega-z", "2"), sweep],
            "gc": [(*gc, "--verify", "--tol", "1e-3"), gc],
            "spectrum": [(*spectrum, "--omega-min", "-1", "--omega-max", "1",
                          "--omega-points", "5"), spectrum],
            "config": [(*gc, "--config", str(cfg_path)), gc],
            "usage_error": [("gc", "--bogus"), gc],
            "version": [("--version",), gc],
        }

    @pytest.mark.parametrize("name", ["sweep", "gc", "spectrum", "config", "usage_error",
                                      "version"])
    def test_sequence_matches_fresh_parsers(self, capsys, tmp_path, name):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("kappa = 0.7\nomega0 = 1.5\nmode = literature\n")
        steps = self.sequences(cfg_path)[name]
        fresh = []
        for argv in steps:
            cli.build_parser.cache_clear()
            fresh.append(run_cli(capsys, *argv))
        cli.build_parser.cache_clear()
        assert [run_cli(capsys, *argv) for argv in steps] == fresh
        assert cli.build_parser.cache_info().misses == 1
        assert fresh[0] != fresh[1]
        if name == "usage_error":
            assert fresh[0][0] == 1
        if name == "version":
            assert fresh[0] == (0, f"dicke-critic v{__version__}\n", "")

    def test_parser_built_once_per_process(self, capsys):
        cli.build_parser.cache_clear()
        for _ in range(5):
            assert run_cli(capsys, "gc", *self.BATH)[0] == 0
        assert cli.build_parser.cache_info().misses == 1


def test_closed_form_routes_load_no_scipy(tmp_path):
    """gc, sweep, spectrum, oracle, corr, the quadrature chi0 and the exact-N oracle run on numpy alone.

    The exact-N steady states at N = 1..3 and a run of
    scripts/finite_size_onset.py load no scipy module either, nor do the
    mean-field threshold and superradiant branch. The control imports
    scipy.linalg itself, so the detector is seen to work. A fresh
    interpreter, since this process already holds scipy.
    """
    script = textwrap.dedent("""
        import contextlib, io, json, runpy, sys

        import dicke_critic
        from dicke_critic import baths, cli, lindblad, meanfield, response

        def scipy_modules():
            return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

        bath = ["--bath", "generalized(gamma=0.5, t=0.2)"]
        sweep = ["sweep", *bath, "--sweep-param", "t", "--sweep-values", "0,0.5"]
        codes = []
        for argv in (["gc", "--verify", *bath], sweep, [*sweep, "--format", "json"],
                     ["spectrum", *bath, "--omega-points", "5"], ["oracle"], ["corr", *bath]):
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(cli.main(argv))
        model = baths.spin_model(baths.parse_bath(bath[1]), 1.0)
        series = lindblad.two_time_sx(model, lindblad.steady_state(model).rho)
        chi0 = response.chi_from_correlator(series, 0.0)
        cavity = baths.CavityParams(1.0, 0.4)
        g_star = meanfield.stability_threshold(cavity, model, 0.1, 2.0)
        branch = abs(meanfield.superradiant_state(cavity, model, 1.5 * g_star).alpha)
        closed_form = scipy_modules()
        from dicke_critic import exactn
        photons = [exactn.full_steady_observables(exactn.FullSystemSpec(
            n, 12, 0.3, baths.CavityParams(1.0, 0.4), model)).photon_number for n in (1, 2, 3)]
        exact_n = scipy_modules()
        path, output = sys.argv[1:]
        sys.argv = [path, "--points", "2", "--output", output]
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(path, run_name="__main__")
        script = scipy_modules()
        import scipy.linalg
        print(json.dumps({"codes": codes, "chi0": chi0.real, "photons": photons, "branch": branch,
                          "closed_form": closed_form, "exact_n": exact_n, "script": script,
                          "control": scipy_modules()}))
    """)
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    output = tmp_path / "fso.csv"
    proc = subprocess.run([sys.executable, "-c", script, str(root / "scripts" / "finite_size_onset.py"),
                           str(output)], env=env,
                          capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout)
    assert result["codes"] == [0] * 6
    assert result["chi0"] < 0 and result["branch"] > 0
    assert all(p > 0 for p in result["photons"])
    assert len(output.read_text(encoding="utf-8").splitlines()) == 4  # header, columns, 2 rows
    assert result["closed_form"] == result["exact_n"] == result["script"] == []
    assert "scipy.linalg" in result["control"]
