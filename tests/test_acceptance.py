"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 7 pins the shape of the mixed-channel critical-coupling curve
g_c(t) under the exact susceptibility. With u = 1 - t^2 the curve is
monotone in t for gamma <= (3 sqrt(3)/2) omega_z ~= 2.598 omega_z and
non-monotone above it (an interior maximum, then a minimum below g_c(0),
then divergence as (1 - t^2)^(-1/2)). The test checks one point on each
side, against a written-out analytic ratio and the mean-field oracle. See
docs/VALIDATION_NOTES.md for the derivation.
"""

import math
import time

import numpy as np
from scipy.optimize import brentq

from dicke_critic import baths
from dicke_critic.baths import CavityParams, Dephasing, GcMode, Generalized, Thermal
from dicke_critic.cli import main
from dicke_critic.critical import (NoTransition, NoTransitionReason, agreement, fully_polarized_gc,
                                   solve_gc)
from dicke_critic.exactn import FullSystemSpec, cutoff_stability, full_regression_sx, full_steady_observables
from dicke_critic.lindblad import steady_state, two_time_sx
from dicke_critic.response import chi_from_correlator


def report(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:02d} [{status}] {description}"
    if detail:
        line += f" ({detail})"
    print(line)


def closed_sx(ts, gamma, wz, sz):
    return 0.25 * np.exp(-gamma * ts) * (np.cos(wz * ts) - 2j * sz * np.sin(wz * ts))


def test_c01_equilibrium_limit():
    start = time.perf_counter()
    worst = 0.0
    grid = [(wz, w0) for wz in (0.5, 0.8, 1.0, 1.3, 1.7) for w0 in (0.7, 1.9)]
    assert len(grid) == 10
    for wz, w0 in grid:
        result = baths.closed_form_gc(Dephasing(gamma=0.0, sz=-0.5), wz, CavityParams(w0, 0.0))
        worst = max(worst, abs(result.g_c - 0.5 * math.sqrt(wz * w0)) / result.g_c)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 1.0
    report(1, "equilibrium limit g_c = (1/2) sqrt(wz w0)", ok, f"worst rel {worst:.2e}, {elapsed:.2f}s")
    assert worst < 1e-12
    assert elapsed < 1.0


def test_c02_cavity_decay_scaling():
    worst = 0.0
    for w0 in (0.7, 1.0, 1.6):
        for kappa in (0.0, 0.4, 1.0, 2.3):
            chi0 = -1.37
            ratio = solve_gc(chi0, CavityParams(w0, kappa)).g_c / solve_gc(chi0, CavityParams(w0, 0.0)).g_c
            worst = max(worst, abs(ratio - math.sqrt(1 + (kappa / w0) ** 2)))
    report(2, "g_c(kappa)/g_c(0) = sqrt(1 + kappa^2/omega0^2)", worst < 1e-12, f"worst {worst:.2e}")
    assert worst < 1e-12


def test_c03_correlator_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for gphi in np.linspace(0.1, 0.9, 5):
        for wz in np.linspace(0.6, 2.0, 5):
            model = baths.spin_model(Dephasing(gamma=float(gphi), sz=-0.5), float(wz))
            series = two_time_sx(model, steady_state(model).rho)
            mask = series.times <= 12.0 / gphi
            expected = closed_sx(series.times[mask], gphi, wz, -0.5)
            worst = max(worst, float(np.max(np.abs(series.values[mask] - expected))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 5.0
    report(3, "regression correlator matches the analytic solution", ok,
           f"worst abs {worst:.2e}, {elapsed:.2f}s")
    assert worst < 1e-10
    assert elapsed < 5.0


def test_c04_self_energy_quadrature():
    start = time.perf_counter()
    worst = 0.0
    for f in np.linspace(0.08, 0.5, 5):
        for wz in np.linspace(0.6, 1.8, 5):
            wz = float(wz)
            gamma = float(f) * wz
            for bath in (
                Dephasing(gamma=gamma, sz=-0.4),
                Thermal(gamma=gamma, temperature=0.6 * wz),
                Generalized(gamma=gamma, t=0.45),
            ):
                model = baths.spin_model(bath, wz)
                series = two_time_sx(model, steady_state(model).rho)
                numeric = chi_from_correlator(series, 0.0).real
                closed = baths.closed_form_chi0(bath, wz)
                worst = max(worst, abs(numeric - closed) / abs(closed))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 10.0
    report(4, "quadrature chi0 matches closed form for all three baths", ok,
           f"worst rel {worst:.2e}, {elapsed:.2f}s")
    assert worst < 1e-8
    assert elapsed < 10.0


def test_c05_thermal_equilibrium_transition():
    wz, w0, g = 1.0, 1.2, 0.75

    def gc_of_temperature(temp: float) -> float:
        bath = Thermal(gamma=1e-12, temperature=temp)
        return baths.closed_form_gc(bath, wz, CavityParams(w0, 0.0)).g_c

    t_star = brentq(lambda temp: gc_of_temperature(temp) - g, 1e-3, 50.0, xtol=1e-14)
    lhs = math.tanh(wz / (2 * t_star))
    rhs = wz * w0 / (4 * g**2)
    dev = abs(lhs - rhs) / rhs
    report(5, "critical temperature matches tanh(wz/2T) = wz w0 / 4g^2", dev < 1e-10,
           f"rel dev {dev:.2e}")
    assert dev < 1e-10


def test_c06_thermal_monotonicity():
    temps = np.linspace(0.02, 4.0, 50)
    gcs = [
        baths.closed_form_gc(Thermal(gamma=0.2, temperature=float(t)), 1.0, CavityParams(1.0, 0.3)).g_c
        for t in temps
    ]
    ok = all(a < b for a, b in zip(gcs, gcs[1:]))
    report(6, "thermal g_c strictly increasing over a 50-point T grid", ok)
    assert ok


def test_c07_generalized_shape():
    # With u = 1 - t^2, |chi0| ~ u / ((2 - u)(wz^2 + gamma^2 u^2)), which
    # decreases somewhere in u iff wz^2 < gamma^2 max u^2 (1 - u) =
    # 4 gamma^2 / 27. So g_c(t) is monotone at gamma = 0.5 wz and turns
    # twice (maximum, then a minimum below g_c(0)) at gamma = 5 wz. The
    # mean-field threshold is an independent route to both shapes.
    start = time.perf_counter()
    wz = 1.0
    cavity = CavityParams(1.0, 0.0)

    def gc(gamma: float, t: float) -> float:
        return baths.closed_form_gc(Generalized(gamma=gamma, t=t), wz, cavity).g_c

    def g_threshold(gamma: float, t: float) -> float:
        point = agreement(Generalized(gamma=gamma, t=t), wz, cavity, routes=("mean_field",))
        return point.results["mean_field"].g_c

    endpoint = abs(gc(0.5 * wz, 0.0) / fully_polarized_gc(wz, cavity) - math.sqrt(1.25))

    # weak damping: monotone start and the analytic (1 - t^2)^(-1/2) growth
    weak, t_end = 0.5 * wz, 0.999
    analytic = math.sqrt(
        (1 + t_end**2) * (wz**2 + weak**2 * (1 - t_end**2) ** 2)
        / ((1 - t_end**2) * (wz**2 + weak**2))
    )
    growth = gc(weak, t_end) / gc(weak, 0.0)
    growth_dev = abs(growth - analytic)
    growth_mf_dev = abs(g_threshold(weak, t_end) / g_threshold(weak, 0.0) - analytic) / analytic
    slope = (gc(weak, 0.015) - gc(weak, 0.005)) / 0.01
    slope_mf = (g_threshold(weak, 0.015) - g_threshold(weak, 0.005)) / 0.01

    # strong damping: interior maximum, then an interior minimum below g_c(0)
    strong = 5.0 * wz
    grid = np.linspace(0.0, 0.99, 199)
    values = np.array([gc(strong, float(t)) for t in grid])
    i_min = int(np.argmin(values))
    i_max = int(np.argmax(values[:i_min])) if i_min > 0 else 0
    turns = 0 < i_max < i_min < grid.size - 1 and values[i_min] < values[0] < values[i_max]
    th_0, th_max, th_min = (g_threshold(strong, float(grid[i])) for i in (0, i_max, i_min))
    mf_turns = th_min < th_0 < th_max
    elapsed = time.perf_counter() - start

    ok = (
        endpoint < 1e-10 and growth_dev < 1e-10 and growth_mf_dev < 1e-6
        and slope >= 0 and slope_mf >= 0 and turns and mf_turns
    )
    report(7, "mixed-channel curve: monotone at gamma = 0.5, max then min at gamma = 5", ok,
           f"endpoint dev {endpoint:.1e}, growth {growth:.3f}x (dev {growth_dev:.1e}, "
           f"mean-field {growth_mf_dev:.1e}), slope {slope:+.4f}/{slope_mf:+.4f}, "
           f"max t={grid[i_max]:.3f}, min t={grid[i_min]:.3f} at {values[i_min] / values[0]:.3f} g_c(0), "
           f"{elapsed:.2f}s")
    assert endpoint < 1e-10
    assert growth_dev < 1e-10
    assert growth_mf_dev < 1e-6
    assert slope >= 0
    assert slope_mf >= 0
    assert turns
    assert mf_turns


def test_c08_no_transition_classification():
    r1 = baths.closed_form_gc(Dephasing(gamma=0.3, sz=0.0), 1.0, CavityParams(1.0, 0.0))
    r2 = baths.closed_form_gc(Generalized(gamma=0.2, t=1.0), 1.0, CavityParams(1.0, 0.0))
    ok = (
        r1 == NoTransition(NoTransitionReason.UNPOLARIZED)
        and r2 == NoTransition(NoTransitionReason.UNPOLARIZED)
    )
    report(8, "sz = 0 dephasing and t = 1 mixed channel classify as unpolarized", ok)
    assert ok


ORACLE_SETS = (
    (Dephasing(gamma=0.0, sz=-0.5), 0.0),
    (Dephasing(gamma=0.3, sz=-0.5), 0.5),
    (Dephasing(gamma=0.5, sz=-0.3), 1.0),
    (Thermal(gamma=0.1, temperature=0.2), 0.0),
    (Thermal(gamma=0.1, temperature=0.5), 0.3),
    (Thermal(gamma=0.3, temperature=1.0), 1.0),
    (Generalized(gamma=0.2, t=0.4), 0.5),
    (Generalized(gamma=0.5, t=0.2), 0.0),
    (Generalized(gamma=0.3, t=0.7), 1.0),
)


def test_c09_mean_field_oracle_agreement():
    start = time.perf_counter()
    worst = 0.0
    for bath, kappa in ORACLE_SETS:
        point = agreement(bath, 1.0, CavityParams(1.0, kappa), routes=("mean_field",))
        gc, g_star = (result.g_c for result in point.results.values())
        worst = max(worst, abs(g_star - gc) / gc)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 60.0
    report(9, "mean-field threshold matches closed form on 9 parameter sets", ok,
           f"worst rel {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-6
    assert elapsed < 60.0


def test_c10_exact_small_n_oracle():
    start = time.perf_counter()
    # N = 1, g = 0: full-space correlators against the single-spin engine
    worst = 0.0
    for bath in (
        Dephasing(gamma=0.3, sz=-0.5),
        Thermal(gamma=0.1, temperature=0.5),
        Generalized(gamma=0.2, t=0.4),
    ):
        model = baths.spin_model(bath, 1.0)
        single = two_time_sx(model, steady_state(model).rho)
        spec = FullSystemSpec(
            n_atoms=1, n_fock=6, g=0.0, cavity=CavityParams(1.0, 0.37), model=model
        )
        full = full_regression_sx(spec, times=single.times)
        worst = max(worst, float(np.max(np.abs(full.values - single.values))))

    # N = 3 finite-size superradiance onset with cutoff stability
    bath = Generalized(gamma=0.2, t=0.0)
    cavity = CavityParams(1.0, 0.4)
    gc = baths.closed_form_gc(bath, 1.0, cavity).g_c
    model = baths.spin_model(bath, 1.0)

    def spec_at(g: float, n_fock: int = 12) -> FullSystemSpec:
        return FullSystemSpec(n_atoms=3, n_fock=n_fock, g=g, cavity=cavity, model=model)

    obs_lo = full_steady_observables(spec_at(0.5 * gc))
    obs_hi = full_steady_observables(spec_at(1.5 * gc))
    ratio = obs_hi.photon_number / obs_lo.photon_number
    drift_lo = cutoff_stability(spec_at(0.5 * gc), observables=obs_lo)
    drift_hi = cutoff_stability(spec_at(1.5 * gc), observables=obs_hi)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and ratio > 5.0 and max(drift_lo, drift_hi) < 0.01 and elapsed < 120.0
    report(10, "exact-N oracle: correlator match and superradiance onset", ok,
           f"corr dev {worst:.1e}, photon ratio {ratio:.1f}, cutoff drift {max(drift_lo, drift_hi):.1e}, {elapsed:.0f}s")
    assert worst < 1e-10
    assert ratio > 5.0
    assert max(drift_lo, drift_hi) < 0.01
    assert elapsed < 120.0


def test_c11_mode_discrepancy_is_generalized_only():
    # modes agree exactly for dephasing and thermal baths
    for bath in (
        Dephasing(gamma=0.4, sz=-0.35),
        Dephasing(gamma=0.0, sz=-0.5),
        Thermal(gamma=0.2, temperature=0.8),
        Thermal(gamma=0.1, temperature=0.0),
    ):
        assert baths.closed_form_chi0(bath, 1.0, GcMode.SELF_CONSISTENT) == baths.closed_form_chi0(
            bath, 1.0, GcMode.LITERATURE
        )
    # and differ for the mixed channel at interior t
    bath = Generalized(gamma=0.5, t=0.5)
    assert baths.closed_form_chi0(bath, 1.0, GcMode.SELF_CONSISTENT) != baths.closed_form_chi0(
        bath, 1.0, GcMode.LITERATURE
    )

    # the oracle sides with the self-consistent form once gamma (1-t)^2 ~ wz
    strong = Generalized(gamma=5.0, t=0.5)  # gamma (1-t)^2 = 1.25 wz
    cavity = CavityParams(1.0, 0.3)
    point = agreement(strong, 1.0, cavity, GcMode.SELF_CONSISTENT, routes=("mean_field",))
    gc_sc, g_star = (result.g_c for result in point.results.values())
    gc_lit = baths.closed_form_gc(strong, 1.0, cavity, GcMode.LITERATURE).g_c
    dev_lit = abs(gc_lit - g_star) / g_star
    dev_sc = abs(gc_sc - g_star) / g_star
    ok = dev_lit > 1e-3 and dev_sc < 1e-6
    report(11, "modes differ only for the mixed channel; oracle sides with self-consistent",
           ok, f"literature dev {dev_lit:.2e}, self-consistent dev {dev_sc:.2e}")
    assert dev_lit > 1e-3
    assert dev_sc < 1e-6


def test_c12_cli_determinism(tmp_path, capsys):
    import subprocess
    import sys

    args = [
        "sweep", "--bath", "generalized(gamma=0.5,t=0)", "--sweep-param", "t",
        "--sweep-start", "0", "--sweep-stop", "0.99", "--sweep-points", "34",
    ]
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--output", str(f1)]) == 0
    assert main(args + ["--output", str(f2)]) == 0
    corr_args = ["corr", "--bath", "thermal(gamma=0.1,T=0.5)"]
    c1, c2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
    assert main(corr_args + ["--output", str(c1)]) == 0
    assert main(corr_args + ["--output", str(c2)]) == 0
    capsys.readouterr()
    # and across separate processes
    p1, p2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
    for path in (p1, p2):
        subprocess.run(
            [sys.executable, "-m", "dicke_critic.cli", *args, "--output", str(path)],
            check=True,
        )
    ok = (
        f1.read_bytes() == f2.read_bytes()
        and c1.read_bytes() == c2.read_bytes()
        and p1.read_bytes() == p2.read_bytes()
        and p1.read_bytes() == f1.read_bytes()
    )
    report(12, "repeated CLI runs produce byte-identical CSV", ok)
    assert ok
