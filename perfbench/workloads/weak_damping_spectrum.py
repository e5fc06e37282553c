"""weak_damping_spectrum: in-process CLI ``spectrum`` runs at weak damping.

The decay rate r of the transverse coherence, the slowest mode of S_x(t),
is drawn log-uniformly in each of four strata spanning 3e-3 to 3e-2
omega_z, once per bath kind: 12 spectra per pass. The bath's gamma is set
from r (gamma = r for dephasing, r tanh(omega_z / 2T) for thermal,
r / (1 + t^2) for generalized). The correlator window then holds about
1100 omega_z / r samples, 37k to 367k. The number of frequencies P falls
as the window N grows, from about 140 down to 11, keeping N (P + 3) fixed:
building the correlator costs about as much as 3 frequencies of quadrature.
Every spectrum then costs about the same, so the latency percentiles do not
hinge on which stratum a rank falls in.
"""

from __future__ import annotations

import math
import random

import numpy as np

import reference as ref
from common import Op, cli_call, parse_csv
from reference import Bath, require

STRATA = 4
RATE_RANGE = (3e-3, 3e-2)  # r / omega_z
WORK = 5.2e6  # window samples x (frequencies + SERIES_COST) per spectrum
SERIES_COST = 3
MIN_POINTS = 11
CHI_TOL = 1e-9  # relative to the largest |chi|; the quadrature meets ~4e-11
CALIBRATION = ("format", "small_numpy", "vector", "large_vector")  # calibrate.PARTS that track this workload


def _spectrum_op(label: str, bath: Bath, omega_z: float, omega0: float, kappa: float,
                 g: float, raw: bool) -> Op:
    window = 1100.0 * omega_z / ref.slowest_rate(bath.kind, bath.gamma, bath.p, omega_z)
    points = max(MIN_POINTS, 2 * round((WORK / window - SERIES_COST) / 2) + 1)
    argv = ["spectrum", "--bath", bath.text(), "--omega-z", repr(omega_z),
            "--omega0", repr(omega0), "--kappa", repr(kappa), "--g", repr(g),
            "--omega-points", str(points)]
    if raw:
        argv.append("--raw-units")

    def check(text: str) -> None:
        rows = parse_csv(text, "omega,re_det,im_det,re_chi,im_chi")
        require(len(rows) == points and all(len(r) == 5 for r in rows),
                f"{len(rows)} rows for {points} frequencies")
        cols = np.array(rows, dtype=float).T
        unit = 1.0 if raw else omega_z
        omega = cols[0] * unit
        omega_max = 2.5 * max(omega0, omega_z)
        require(float(np.max(np.abs(omega - np.linspace(-omega_max, omega_max, points))))
                <= 1e-12 * omega_max, "frequency grid differs")
        det = cols[1] + 1j * cols[2]
        chi = (cols[3] + 1j * cols[4]) / unit
        want = ref.chi(bath.kind, bath.gamma, bath.p, omega_z, omega)
        chi_scale = float(np.max(np.abs(want)))
        dev = float(np.max(np.abs(chi - want))) / chi_scale
        require(dev <= CHI_TOL, f"chi(omega) off by {dev:.3g} of max |chi|")
        require(float(np.max(np.abs(chi - np.conj(chi[::-1])))) <= CHI_TOL * chi_scale,
                "chi(-omega) != conj chi(omega)")
        want_det = omega0**2 + 2.0 * omega0 * g**2 * want - (omega + 1j * kappa) ** 2
        det_scale = omega0**2 + 2.0 * omega0 * g**2 * chi_scale + omega_max**2 + kappa**2
        require(float(np.max(np.abs(det - want_det))) <= CHI_TOL * det_scale,
                "cavity determinant differs from omega0^2 + 2 omega0 g^2 chi - (omega + i kappa)^2")

    return Op(label, lambda: cli_call(argv), check)


def _bath(rng: random.Random, kind: str, rate: float, omega_z: float) -> Bath:
    if kind == "dephasing":
        return Bath(kind, rate, rng.uniform(-0.5, -0.1))
    if kind == "thermal":
        temperature = rng.uniform(0.2, 1.0) * omega_z
        return Bath(kind, rate * math.tanh(omega_z / (2.0 * temperature)), temperature)
    t = rng.uniform(0.0, 0.6)
    return Bath(kind, rate / (1.0 + t * t), t)


def build(seed: int) -> tuple[list[Op], Op]:
    rng = random.Random(f"weak_damping_spectrum:{seed}")
    lo, hi = (math.log(v) for v in RATE_RANGE)
    ops = []
    for k in range(STRATA):
        for i, kind in enumerate(("dephasing", "thermal", "generalized")):
            omega_z = rng.uniform(0.8, 1.25)
            # the first spectrum has the widest window, so peak memory does
            # not depend on the seed
            u = 0.0 if k == i == 0 else rng.random()
            cell = lo + (hi - lo) * (k + u) / STRATA
            bath = _bath(rng, kind, math.exp(cell) * omega_z, omega_z)
            ops.append(_spectrum_op(f"{bath.text()}", bath, omega_z, rng.uniform(0.7, 1.4),
                                    rng.uniform(0.05, 0.5), rng.uniform(0.1, 0.6),
                                    raw=(i + k) % 2 == 1))
    warmup = _spectrum_op("warm-up", Bath("dephasing", 0.03, -0.4), 1.0, 1.0, 0.2, 0.3, False)
    return ops, warmup
