import argparse
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

from dicke_critic import __version__, baths, cli, response
from dicke_critic.baths import CavityParams, parse_bath
from dicke_critic.cli import main
from dicke_critic.config import SETTINGS, coerce, parse_float_list
from dicke_critic.critical import SweepPlan, sweep
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

    def test_thermal_zero_temperature(self, capsys):
        code, out, _ = run_cli(
            capsys, "gc", "--bath", "thermal(gamma=0.1,T=0)",
            "--omega-z", "1", "--omega0", "1", "--kappa", "1",
        )
        assert code == 0
        expected = 0.5 * math.sqrt((1.0 + 0.01) * 2.0)
        assert float(parse_record(out)["g_c"]) == pytest.approx(expected, rel=1e-15)

    def test_verify_runs_oracle(self, capsys):
        code, out, _ = run_cli(
            capsys, "gc", "--bath", "generalized(gamma=0.2,t=0.4)",
            "--kappa", "0.5", "--verify",
        )
        rec = parse_record(out)
        assert code == 0
        assert float(rec["oracle_rel_dev"]) < 1e-6

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
        ):
            code, out, err = run_cli(capsys, "gc", *args)
            assert (code, out) == (1, "")
            assert err.startswith("dicke-critic: error: at bath = ") and quantity in err
        code, out, err = run_cli(capsys, "sweep", "--bath", "dephasing(gamma=0, sz=-0.5)",
                                 "--sweep-param", "omega_z", "--sweep-values", "1,0")
        assert (code, out) == (1, "")
        assert "row 1, omega_z = 0.0: chi0 is undefined" in err
        code, out, err = run_cli(capsys, "sweep", "--bath", "generalized(gamma=0.5, t=0.3)",
                                 "--sweep-param", "omega0", "--sweep-values=1e-300,1e-200,1")
        assert (code, out) == (1, "")
        assert "row 0, omega0 = 1e-300: g_c is undefined: omega0^2 + kappa^2 underflows" in err


class TestSweep:
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


    def test_json_writer_matches_json_dumps(self, capsys):
        # null rows, inverted rows and chi0 = -0.0 (t = 1), in omega_z units
        for bath, axis, values in (
            ("generalized(gamma=0.5, t=0)", "t", "0,0.5,1"),
            ("dephasing(gamma=0.2, sz=-0.5)", "sz", "-0.5,0,0.5"),
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
                for (x,), chi0, g_c, ratio, status in zip(
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
        # chi0 = -0.0 (t = 1) and x = -0.0, inverted rows, and values from 1e-300 to 1e300
        unit = 1.0 if raw else 1.3
        for bath, axis, values in (
            ("generalized(gamma=0.5, t=0)", "t", "-0.0,0.5,1"),
            ("dephasing(gamma=0.2, sz=-0.5)", "sz", "-0.5,-0.0,0.5"),
            ("thermal(gamma=0.1, T=0.5)", "gamma", "1e-300,0.3,1e300"),
            ("generalized(gamma=0.5, t=0.3)", "omega0", "1e-100,1,1e100"),
        ):
            argv = ["sweep", "--bath", bath, "--sweep-param", axis, f"--sweep-values={values}",
                    "--omega-z", "1.3", "--kappa", "0.2", *(["--raw-units"] if raw else [])]
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            table = sweep(SweepPlan(parse_bath(bath), 1.3, CavityParams(1.0, 0.2), axis,
                                    parse_float_list(values)))
            lines = [cli.HEADER, f"{axis},chi0,g_c,g_c_over_g0,status"]
            for (x,), chi0, g_c, ratio, status in zip(
                    table.params.tolist(), table.chi0.tolist(), table.g_c.tolist(),
                    table.gc_over_g0.tolist(), table.status.tolist()):
                tail = f"{g_c / unit + 0.0:.17g},{ratio + 0.0:.17g}" if status == "ok" else "inf,inf"
                lines.append(f"{x + 0.0:.17g},{chi0 * unit + 0.0:.17g},{tail},{status}")
            assert out == "".join(line + "\n" for line in lines)
            assert "-0," not in out and ",-0," not in out

    def test_invalid_row_is_named(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--bath", "thermal(gamma=0.1, T=0.5)",
                                 "--sweep-param", "gamma", "--sweep-values", "0.1,0")
        assert (code, out) == (1, "")
        assert err == (
            "dicke-critic: error: at bath = thermal(gamma=0.1, T=0.5), omega_z = 1, omega0 = 1, "
            "kappa = 0: row 1, gamma = 0.0: thermal rate 0.0 must be > 0\n"
        )


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

    def test_thermal_occupation_underflow_exits_1(self, capsys):
        # omega_z / T underflows to 0: the occupation is a typed error naming the point
        code, out, err = run_cli(capsys, "corr", "--bath", "thermal(gamma=0.1, T=1e300)",
                                 "--omega-z", "1e-300")
        assert (code, out) == (1, "")
        assert err == ("dicke-critic: error: at bath = thermal(gamma=0.1, T=1e+300), "
                       "omega_z = 1e-300, omega0 = 1, kappa = 0: "
                       "thermal occupation is undefined (division by zero)\n")


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


    def test_undamped_resonance_exits_1(self, capsys):
        # the default 201-point grid holds omega = +-omega_z exactly
        code, out, err = run_cli(
            capsys, "spectrum", "--bath", "dephasing(gamma=0,sz=-0.5)", "--g", "0.3",
        )
        assert code == 1
        assert out == ""
        assert "undamped mode" in err
        assert "resonance omega = -1.0" in err

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
        from dicke_critic import baths

        bath, omega0, kappa, g = "thermal(gamma=0.1,T=0.5)", 1.1, 0.3, 0.4
        code, out, _ = run_cli(
            capsys, "spectrum", "--bath", bath, "--g", str(g), "--omega0", str(omega0),
            "--kappa", str(kappa), "--omega-min", "-1", "--omega-max", "1",
            "--omega-points", "3",
        )
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[2:]]
        assert [float(r[0]) for r in rows] == [-1.0, 0.0, 1.0]
        chi0 = baths.closed_form_chi0(baths.parse_bath(bath), 1.0)
        assert float(rows[1][2]) == 0.0
        want = omega0**2 + kappa**2 + 2 * omega0 * g**2 * chi0
        assert float(rows[1][1]) == pytest.approx(want, rel=1e-12)

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
        chis = response.resolvent_chi(baths.spin_model(parse_bath(bath), omega_z))(omegas)
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
    ]

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command, key, raw, rule", CASES,
                             ids=[f"{c[0]}-{k}={r}" for c, k, r, _ in CASES])
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


def test_closed_form_routes_load_no_scipy():
    """gc, sweep, spectrum, oracle, corr and the quadrature chi0 run on numpy alone.

    The control, one N = 1 exact-N steady state, loads scipy.sparse, so the
    detector is seen to work; its solve runs on numpy's LAPACK, so neither
    scipy.sparse.linalg nor scipy.linalg is loaded. A fresh interpreter,
    since this process already holds scipy.
    """
    script = textwrap.dedent("""
        import contextlib, io, json, sys

        import dicke_critic
        from dicke_critic import baths, cli, lindblad, response

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
        before = scipy_modules()
        from dicke_critic import exactn
        spec = exactn.FullSystemSpec(1, 3, 0.1, baths.CavityParams(1.0, 0.5), model)
        exactn.full_steady_observables(spec)
        print(json.dumps({"codes": codes, "chi0": chi0.real, "before": before,
                          "after": scipy_modules()}))
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    result = json.loads(proc.stdout)
    assert result["codes"] == [0] * 6
    assert result["chi0"] < 0
    assert result["before"] == []
    assert "scipy.sparse" in result["after"]
    assert "scipy.sparse.linalg" not in result["after"]
    assert "scipy.linalg" not in result["after"]
