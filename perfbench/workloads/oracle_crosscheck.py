"""oracle_crosscheck: one parameter point checked three ways per operation.

The routes are those of scripts/oracle_table.py: the closed-form g_c, the
quadrature chi0 (steady state -> two_time_sx -> chi_from_correlator ->
solve_gc) and the mean-field stability threshold bisected in c09's
(0.4, 2.5) g_c bracket. One pass is 40 points: the 9 points of
ORACLE_SUITE, 27 seeded points (9 per bath, 3 of them without a
transition) at moderate damping, gamma stratified over [0.05, 0.5] omega_z,
and the 4 exceptional points below.

The exceptional points 2 t gamma = omega_z of the generalized bath fail on
every run: at (gamma, t) = (1, 0.5), (2, 0.25) and (0.5, 1) two_time_sx
raises "S_x(0) != 1/4", and at (1 + 1e-7, 0.5) the quadrature chi0 is off
by 3.8e-7, beyond c04's 1e-8. The closed form and the mean-field threshold
still run on them first, so the cost of the operation barely changes once
the quadrature route is mended.
"""

from __future__ import annotations

import random

import reference as ref
from common import Op
from reference import Bath, require

EXCEPTIONAL_POINT = "exceptional point 2 t gamma = omega_z breaks the quadrature chi0"
EXCEPTIONAL = ((1.0, 0.5), (2.0, 0.25), (0.5, 1.0), (1.0 + 1e-7, 0.5))
QUAD_TOL = 1e-8  # c04
MF_TOL = 1e-6  # c09
CLOSED_TOL = 1e-12
CALIBRATION = ("format", "small_numpy")  # calibrate.PARTS that track this workload


def _point_op(label: str, bath: Bath, omega_z: float, omega0: float, kappa: float,
              known_fault: str | None = None) -> Op:
    from dicke_critic import baths, critical, lindblad, meanfield, response

    text = bath.text()

    def run():
        spec = baths.parse_bath(text)
        cavity = baths.CavityParams(omega0=omega0, kappa=kappa)
        closed = baths.closed_form_gc(spec, omega_z, cavity)
        model = baths.spin_model(spec, omega_z)
        g_star = None
        if isinstance(closed, critical.Transition):
            g_star = meanfield.stability_threshold(
                cavity, model, 0.4 * closed.g_c, 2.5 * closed.g_c
            )
        series = lindblad.two_time_sx(model, lindblad.steady_state(model).rho)
        chi0_quad = response.chi_from_correlator(series, 0.0).real
        return closed, g_star, chi0_quad, critical.solve_gc(chi0_quad, cavity)

    def check(result) -> None:
        closed, g_star, chi0_quad, quad = result
        want_chi0 = float(ref.chi0(bath.kind, bath.gamma, bath.p, omega_z))
        want = str(ref.status(want_chi0))
        for route, outcome in (("closed form", closed), ("quadrature", quad)):
            got = "ok" if hasattr(outcome, "g_c") else f"no-transition:{outcome.reason.value}"
            require(got == want, f"{route} gives {got}, closed form of chi0 gives {want}")
        if want_chi0 == 0.0:
            require(abs(chi0_quad) <= 1e-12, f"quadrature chi0 = {chi0_quad} at <sz> = 0")
        else:
            dev = abs(chi0_quad - want_chi0) / abs(want_chi0)
            require(dev <= QUAD_TOL, f"quadrature chi0 off by {dev:.3g} (relative)")
        if want == "ok":
            gc = float(ref.critical_coupling(want_chi0, omega0, kappa))
            require(abs(closed.g_c - gc) <= CLOSED_TOL * gc, "closed-form g_c differs")
            dev = abs(g_star - gc) / gc
            require(dev <= MF_TOL, f"mean-field threshold off by {dev:.3g} (relative)")

    return Op(label, run, check, known_fault)


def _seeded(rng: random.Random) -> list[Op]:
    """9 points per bath. gamma / omega_z takes one point in each of 9
    log-spaced cells of [0.05, 0.5], so the correlator windows, and with them
    the cost of a pass, do not depend on the seed."""
    ops = []
    for kind, params in (
        ("dephasing", [rng.uniform(-0.5, -0.05) for _ in range(7)] + [rng.uniform(0.05, 0.5), 0.0]),
        ("thermal", [rng.uniform(0.05, 2.0) for _ in range(9)]),
        ("generalized", [rng.uniform(0.0, 0.9) for _ in range(8)] + [1.0]),
    ):
        cells = list(range(len(params)))
        rng.shuffle(cells)
        for p, cell in zip(params, cells):
            omega_z = rng.uniform(0.7, 1.4)
            # 2 t gamma <= 0.9 omega_z keeps the seeded points off the exceptional points
            top = 0.4 if p == 1.0 else 0.5
            ratio = 0.05 * (top / 0.05) ** ((cell + rng.random()) / len(cells))
            bath = Bath(kind, ratio * omega_z, p)
            ops.append(_point_op(f"seeded/{bath.text()}", bath, omega_z,
                                 rng.uniform(0.7, 1.4), rng.uniform(0.0, 1.0)))
    return ops


def build(seed: int) -> tuple[list[Op], Op]:
    from dicke_critic import baths, cli

    ops = []
    for text, kappa in cli.ORACLE_SUITE:
        spec = baths.parse_bath(text)
        kind = text.split("(")[0]
        p = {"dephasing": "sz", "thermal": "temperature", "generalized": "t"}[kind]
        ops.append(_point_op(f"suite/{text}", Bath(kind, spec.gamma, getattr(spec, p)),
                             1.0, 1.0, kappa))
    ops += _seeded(random.Random(f"oracle_crosscheck:{seed}"))
    ops += [_point_op(f"exceptional/gamma={g!r},t={t!r}", Bath("generalized", g, t), 1.0, 1.0,
                      0.5, EXCEPTIONAL_POINT) for g, t in EXCEPTIONAL]
    warmup = _point_op("warm-up", Bath("thermal", 0.2, 0.5), 1.0, 1.0, 0.3)
    return ops, warmup
