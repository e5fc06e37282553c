"""phase_boundary: in-process CLI ``sweep`` runs over every bath and axis.

One pass is 30 sweeps: the three bath kinds, each swept along its two bath
parameters and along omega_z, omega0 and kappa, each in CSV and in JSON.
Half the sweeps use --raw-units. The sz sweep crosses sz = 0 on an explicit
grid (inverted and unpolarized rows), and the t sweep ends at t = 1
(unpolarized). The seed draws the base point and the sweep ranges; the row
count of each sweep is fixed, so the cost of a pass does not depend on it.
"""

from __future__ import annotations

import json
import random

import numpy as np

import reference as ref
from common import Op, cli_call, parse_csv
from reference import Bath, require

ROWS = {"csv": 4200, "json": 3000}
AXES = {
    "dephasing": ("gamma", "sz"),
    "thermal": ("gamma", "T"),
    "generalized": ("gamma", "t"),
}
GLOBAL_AXES = ("omega_z", "omega0", "kappa")
TOL = 1e-12
CALIBRATION = ("format", "small_numpy", "vector", "large_vector")  # calibrate.PARTS that track this workload


def _grid(rng: random.Random, kind: str, axis: str, n: int) -> tuple[list[str], np.ndarray]:
    """CLI grid arguments and the grid values they are meant to produce."""
    if axis == "sz":
        # explicit grid k*h through sz = 0 exactly, some rows inverted; the
        # "=" form keeps argparse from reading the leading "-" as a flag
        n_pos = round(rng.uniform(0.1, 0.4) * n)
        n_neg = n - 1 - n_pos
        h = 0.5 / max(n_neg, n_pos)
        values = [k * h for k in range(-n_neg, n_pos + 1)]
        return ["--sweep-values=" + ",".join(repr(v) for v in values)], np.array(values)
    if axis == "t":
        # explicit grid ending exactly at t = 1 (unpolarized)
        lo = rng.uniform(0.0, 0.5)
        values = [lo + (1.0 - lo) * i / (n - 1) for i in range(n - 1)] + [1.0]
        return ["--sweep-values=" + ",".join(repr(v) for v in values)], np.array(values)
    lo, hi = {
        "gamma": (0.0 if kind == "dephasing" else rng.uniform(0.01, 0.1), rng.uniform(1.0, 5.0)),
        "T": (0.0, rng.uniform(1.0, 5.0)),
        "omega_z": (rng.uniform(0.2, 0.6), rng.uniform(1.5, 3.0)),
        "omega0": (rng.uniform(0.2, 0.6), rng.uniform(1.5, 3.0)),
        "kappa": (0.0, rng.uniform(1.0, 3.0)),
    }[axis]
    args = ["--sweep-start", repr(lo), "--sweep-stop", repr(hi), "--sweep-points", str(n)]
    return args, lo + (hi - lo) * np.arange(n) / (n - 1)


def _base(rng: random.Random, kind: str) -> tuple[Bath, dict[str, float]]:
    p = {
        "dephasing": rng.uniform(-0.5, -0.05),
        "thermal": rng.uniform(0.05, 2.0),
        "generalized": rng.uniform(0.0, 0.95),
    }[kind]
    point = {
        "omega_z": rng.uniform(0.5, 2.0),
        "omega0": rng.uniform(0.5, 2.0),
        "kappa": rng.uniform(0.0, 1.0),
    }
    return Bath(kind, rng.uniform(0.02, 1.0), p), point


def _sweep_op(label: str, bath: Bath, point: dict, axis: str, fmt: str, raw: bool,
              grid_args: list[str], expected_x: np.ndarray) -> Op:
    argv = ["sweep", "--bath", bath.text(), "--sweep-param", axis, "--format", fmt,
            *grid_args]
    for name, value in point.items():
        argv += [f"--{name.replace('_', '-')}", repr(value)]
    if raw:
        argv.append("--raw-units")

    def check(text: str) -> None:
        if fmt == "csv":
            rows = parse_csv(text, f"{axis},chi0,g_c,g_c_over_g0,status")
            require(all(len(r) == 5 for r in rows), "CSV row with a wrong field count")
            x = np.array([float(r[0]) for r in rows])
            chi0 = np.array([float(r[1]) for r in rows])
            gc = np.array([float(r[2]) for r in rows])
            ratio = np.array([float(r[3]) for r in rows])
            status = np.array([r[4] for r in rows])
        else:
            require(text.endswith("\n"), "JSON output lacks its final newline")
            rows = json.loads(text)
            require(all(list(r) == [axis, "chi0", "g_c", "g_c_over_g0", "status"] for r in rows),
                    "JSON row with wrong keys")
            x = np.array([r[axis] for r in rows], dtype=float)
            chi0 = np.array([r["chi0"] for r in rows], dtype=float)
            gc = np.array([np.inf if r["g_c"] is None else r["g_c"] for r in rows])
            ratio = np.array([np.inf if r["g_c_over_g0"] is None else r["g_c_over_g0"]
                              for r in rows])
            status = np.array([r["status"] for r in rows])
        require(x.size == expected_x.size, f"{x.size} rows for a {expected_x.size}-point grid")
        scale = float(np.max(np.abs(expected_x)))
        require(float(np.max(np.abs(x - expected_x))) <= TOL * scale, "grid values differ")
        # the swept value as printed is the value the row was computed at
        gamma = x if axis == "gamma" else bath.gamma
        p = x if axis in AXES[bath.kind][1:] else bath.p
        omega_z = x if axis == "omega_z" else point["omega_z"]
        omega0 = x if axis == "omega0" else point["omega0"]
        kappa = x if axis == "kappa" else point["kappa"]
        omega_z, omega0, kappa = (np.broadcast_to(v, x.shape) for v in (omega_z, omega0, kappa))
        want_chi0 = ref.chi0(bath.kind, gamma, p, omega_z) * np.ones_like(x)
        unit = 1.0 if raw else point["omega_z"]  # the base omega_z, also on omega_z sweeps
        require(ref.max_rel_dev(chi0, want_chi0 * unit) <= TOL, "chi0 differs from closed form")
        want_status = ref.status(want_chi0)
        require(bool(np.all(status == want_status)), "status does not follow the sign of chi0")
        ok = want_status == "ok"
        want_gc = ref.critical_coupling(want_chi0[ok], omega0[ok], kappa[ok])
        require(ref.max_rel_dev(gc[ok], want_gc / unit) <= TOL, "g_c differs from closed form")
        want_ratio = want_gc / ref.polarized_coupling(omega_z[ok], omega0[ok], kappa[ok])
        require(ref.max_rel_dev(ratio[ok], want_ratio) <= TOL, "g_c/g0 differs")
        require(bool(np.all(ratio[ok] >= 1.0 - TOL)), "g_c/g0 < 1 on a transition row")
        require(bool(np.all(np.isinf(gc[~ok]) & np.isinf(ratio[~ok]))),
                "no-transition row with a finite g_c")

    return Op(label, lambda: cli_call(argv), check)


def build(seed: int) -> tuple[list[Op], Op]:
    rng = random.Random(f"phase_boundary:{seed}")
    ops = []
    for kind, bath_axes in AXES.items():
        for i, axis in enumerate(bath_axes + GLOBAL_AXES):
            for j, fmt in enumerate(("csv", "json")):
                bath, point = _base(rng, kind)
                grid_args, expected_x = _grid(rng, kind, axis, ROWS[fmt])
                raw = (i + j) % 2 == 1
                ops.append(_sweep_op(f"{kind}/{axis}/{fmt}", bath, point, axis, fmt, raw,
                                     grid_args, expected_x))
    warm_rng = random.Random("phase_boundary:warm-up")
    bath, point = _base(warm_rng, "thermal")
    grid_args, expected_x = _grid(warm_rng, "thermal", "T", 200)
    warmup = _sweep_op("warm-up", bath, point, "T", "csv", False, grid_args, expected_x)
    return ops, warmup
