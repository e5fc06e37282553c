import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dicke_critic import baths, exactn, lindblad, meanfield, response
from dicke_critic.baths import (
    CavityParams,
    Dephasing,
    GcMode,
    Generalized,
    Thermal,
    closed_form_chi0,
)
from dicke_critic.critical import (
    ROUTES,
    NoTransition,
    NoTransitionReason,
    SweepPlan,
    Transition,
    agreement,
    fully_polarized_gc,
    solve_gc,
    sweep,
)
from dicke_critic.errors import DickeCriticError, InvalidModelError, PreconditionError


class TestSolveGc:
    def test_known_point(self):
        result = solve_gc(-1.6, CavityParams(1.0, 0.0))
        assert isinstance(result, Transition)
        assert result.g_c == pytest.approx(0.5590169943749475, rel=1e-12)

    def test_unpolarized(self):
        assert solve_gc(0.0, CavityParams(1.0, 0.0)) == NoTransition(NoTransitionReason.UNPOLARIZED)

    def test_inverted(self):
        assert solve_gc(0.8, CavityParams(1.0, 0.0)) == NoTransition(NoTransitionReason.INVERTED)

    def test_equilibrium_pattern(self):
        wz = 1.7
        result = solve_gc(-2.0 / wz, CavityParams(wz, 0.0))
        assert result.g_c == pytest.approx(0.5 * math.sqrt(wz * wz), rel=1e-13)

    @given(
        chi0=st.floats(min_value=-1e3, max_value=-1e-3),
        omega0=st.floats(min_value=1e-2, max_value=1e2),
        kappa=st.floats(min_value=0.0, max_value=1e2),
    )
    @settings(max_examples=100, deadline=None)
    def test_residual_property(self, chi0, omega0, kappa):
        cavity = CavityParams(omega0, kappa)
        result = solve_gc(chi0, cavity)
        residual = omega0**2 + kappa**2 + 2.0 * omega0 * result.g_c**2 * chi0
        assert abs(residual) < 1e-12 * (omega0**2 + kappa**2)

    def test_results_stay_python_floats(self):
        # the route is elementwise: a point is never wrapped as an array
        cavity = CavityParams(1.0, 0.5)
        point = agreement(Generalized(gamma=0.2, t=0.4), 1.0, cavity, routes=("quadrature",))
        assert type(point.chi0) is float
        assert {type(result.g_c) for result in point.results.values()} == {float}
        assert type(solve_gc(-1.6, cavity).g_c) is float
        assert type(fully_polarized_gc(1.0, cavity)) is float

    def test_zero_denominator_is_typed_error(self):
        # 2 omega0 chi0 underflows to -0.0 beside a normal omega0^2 + kappa^2
        with pytest.raises(PreconditionError, match=r"^g_c is undefined \(division by zero\)$"):
            solve_gc(-0.1, CavityParams(5e-324, 1e-100))

    def test_underflowing_cavity_scale_is_typed_error(self):
        # omega0^2 + kappa^2 below the smallest normal float has lost its digits:
        # at 1e-300 it is 0, at 1e-154 it is subnormal
        for omega0 in (1e-300, 1e-160, 1e-154):
            cavity = CavityParams(omega0, 0.0)
            with pytest.raises(PreconditionError, match="g_c is undefined: omega0.2 .*underflows"):
                solve_gc(-1.6, cavity)
            with pytest.raises(PreconditionError, match="g0 is undefined: omega0.2 .*underflows"):
                fully_polarized_gc(1.0, cavity)
        # a normal scale still solves: the threshold itself, and kappa rescuing a tiny omega0
        assert isinstance(solve_gc(-1.6, CavityParams(1.5e-154, 0.0)), Transition)
        assert fully_polarized_gc(1.0, CavityParams(1e-300, 1e-100)) > 0


# every catalog family at the ends and the middle of its parameter ranges
SCAN_BATHS = (
    [Dephasing(gamma, sz) for gamma in (0.0, 0.3, 5.0) for sz in (-0.5, -0.2, 0.0, 0.3, 0.5)]
    + [Thermal(gamma, temp) for gamma in (0.01, 0.3, 5.0) for temp in (0.0, 0.5, 50.0)]
    + [Generalized(gamma, t) for gamma in (0.01, 1.0, 5.0) for t in (0.0, 0.5, 1.0)]
)


class TestAgreement:
    def test_routes_agree_across_the_catalog(self):
        # bounds from c04 (quadrature chi0 to 1e-8) and c09 (mean-field threshold to 1e-6);
        # points near |chi0| = ZERO_TOL, where the two chi0 can fall on either side of
        # the absolute cut, are left out
        outcomes = set()
        for bath, omega_z, kappa in itertools.product(SCAN_BATHS, (1.0, -1.0), (0.0, 0.5)):
            try:
                point = agreement(bath, omega_z, CavityParams(1.0, kappa))
            except DickeCriticError as exc:  # then the quadrature route's model fails alike
                with pytest.raises(type(exc), match=re.escape(str(exc))):
                    lindblad.steady_state(baths.spin_model(bath, omega_z))
                outcomes.add(type(exc))
                continue
            closed = point.results["closed_form"]
            if isinstance(closed, Transition):
                assert list(point.results) == list(ROUTES)
                quadrature, mean_field = point.results["quadrature"], point.results["mean_field"]
                assert abs(quadrature.g_c - closed.g_c) <= 1e-8 * closed.g_c, (bath, omega_z, kappa)
                assert abs(mean_field.g_c - closed.g_c) <= 1e-6 * closed.g_c, (bath, omega_z, kappa)
                outcomes.add(Transition)
            else:
                assert point.results == {"closed_form": closed, "quadrature": closed}, (
                    bath, omega_z, kappa)
                outcomes.add(closed.reason)
        assert outcomes == {Transition, *NoTransitionReason, InvalidModelError}

    @pytest.mark.parametrize("gamma", [3e-10, 1e-12])
    def test_routes_agree_at_weak_damping(self, gamma):
        # bounds from c04 and c09; the steady state is unique however weak the damping
        for bath in (Thermal(gamma=gamma, temperature=0.5), Generalized(gamma=gamma, t=0.3)):
            point = agreement(bath, 1.0, CavityParams(1.0, 0.5))
            closed, quadrature, mean_field = point.results.values()
            assert abs(quadrature.g_c - closed.g_c) <= 1e-8 * closed.g_c, bath
            assert abs(mean_field.g_c - closed.g_c) <= 1e-6 * closed.g_c, bath

    @pytest.mark.parametrize("make", [
        lambda s: Thermal(gamma=0.1 * s, temperature=0.5 * s),
        lambda s: Generalized(gamma=0.2 * s, t=0.4),
        lambda s: Dephasing(gamma=0.3 * s, sz=-0.5),
        lambda s: Thermal(gamma=1e-3 * s, temperature=0.5 * s),
    ], ids=["thermal", "generalized", "dephasing", "thermal-weak"])
    def test_routes_are_scale_covariant(self, make):
        # every frequency times s: g_c / s by each route, s chi(0) by the resolvent and the
        # exact N = 2 photon number at 1.2 g_c keep their unit-scale values, within 1e-10
        # (1e-8 for exact N), since every zero, resonance and residual check is relative; at
        # s = 2^k the routes run on the unit-scale point itself (baths._unit_scale), so they
        # meet it bitwise, down to 2^-48, where the mean-field rank cut once failed, and 2^-52,
        # where the resolvent's trace row once did
        def values(s):
            bath, cavity = make(s), CavityParams(s, 0.5 * s)
            model = baths.spin_model(bath, s)
            point = agreement(bath, s, cavity)
            g_c = [result.g_c / s for result in point.results.values()]
            chi0 = response.resolvent_chi(model)(0.0).real * s
            spec = exactn.FullSystemSpec(2, 8, 1.2 * point.results["closed_form"].g_c, cavity,
                                         model)
            return np.array([*g_c, chi0]), exactn.full_steady_observables(spec).photon_number

        want, want_photons = values(1.0)
        powers = [2.0**k for k in (-200, -100, -60, -52, -48, 60, 100, 200)]
        for s in (1e-12, 1e-8, 1e-4, 1e4, 1e8, 1e12, *powers):
            got, photons = values(s)
            bound = 0.0 if s in powers else 1e-10
            assert np.all(np.abs(got - want) <= bound * np.abs(want)), (s, got, want)
            assert abs(photons - want_photons) <= 1e-8 * want_photons, (s, photons)

    def test_named_routes_only(self):
        bath, cavity = Generalized(gamma=0.2, t=0.4), CavityParams(1.0, 0.5)
        closed = agreement(bath, 1.0, cavity, routes=("closed_form",))
        assert list(closed.results) == ["closed_form"]
        assert closed.chi0 == closed_form_chi0(bath, 1.0)
        assert closed.results["closed_form"] == solve_gc(closed.chi0, cavity)
        # the closed form runs whether named or not
        assert list(agreement(bath, 1.0, cavity, routes=("quadrature",)).results) == [
            "closed_form", "quadrature"]
        literature = agreement(bath, 1.0, cavity, GcMode.LITERATURE, routes=())
        assert literature.chi0 == closed_form_chi0(bath, 1.0, GcMode.LITERATURE)

    def test_mean_field_not_run_without_a_transition(self, monkeypatch):
        monkeypatch.setattr(meanfield, "stability_threshold", None)  # a call would fail
        point = agreement(Dephasing(gamma=0.3, sz=0.3), 1.0, CavityParams(1.0, 0.5),
                          routes=("mean_field",))
        assert point.results == {"closed_form": NoTransition(NoTransitionReason.INVERTED)}

    def test_routes_are_called_through_their_modules(self, monkeypatch):
        # a wrapper set on the module attribute, as a tracer sets it, sees each route's call
        calls = []
        for module, name in ((baths, "closed_form_chi0"), (baths, "spin_model"),
                             (lindblad, "steady_state"), (lindblad, "two_time_sx"),
                             (response, "chi_from_correlator"),
                             (meanfield, "stability_threshold")):
            def wrapper(*args, _fn=getattr(module, name), _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)
        agreement(Thermal(gamma=0.1, temperature=0.5), 1.0, CavityParams(1.0, 0.3))
        assert calls == ["closed_form_chi0", "spin_model", "steady_state", "two_time_sx",
                         "chi_from_correlator", "stability_threshold"]


class TestKappaScaling:
    def test_matches_gc_ratio(self):
        chi0 = -1.2
        for kappa in (0.3, 1.7):
            base = solve_gc(chi0, CavityParams(1.1, 0.0)).g_c
            scaled = solve_gc(chi0, CavityParams(1.1, kappa)).g_c
            assert scaled / base == pytest.approx(math.sqrt(1 + (kappa / 1.1) ** 2), rel=1e-12)


class TestEnsembles:
    def test_half_unpolarized_raises_gc_by_sqrt2(self):
        # with half the atoms unpolarized (chi0 = 0) the ensemble chi0 halves
        cavity = CavityParams(1.0, 0.4)
        full = solve_gc(-1.6, cavity).g_c
        mixed = solve_gc(-0.8, cavity).g_c
        assert mixed / full == pytest.approx(math.sqrt(2), rel=1e-12)


class TestSweep:
    def test_rows_in_grid_order(self):
        plan = SweepPlan(
            bath=Thermal(gamma=0.2, temperature=0.1),
            omega_z=1.0,
            cavity=CavityParams(1.0, 0.3),
            axis="T",
            values=tuple(np.linspace(0.05, 2.0, 12)),
        )
        table = sweep(plan)
        assert table.params.tolist() == list(plan.values)
        gcs = table.g_c.tolist()
        assert all(a < b for a, b in zip(gcs, gcs[1:]))

    def test_single_point_normalization(self):
        plan = SweepPlan(
            bath=Generalized(gamma=1e-12, t=0.0),
            omega_z=1.0,
            cavity=CavityParams(1.0, 0.0),
            axis="t",
            values=(0.0,),
        )
        table = sweep(plan)
        (ratio,), (status,) = table.gc_over_g0, table.status
        assert ratio == pytest.approx(1.0, abs=1e-12)
        assert status == "ok"

    def test_no_transition_row(self):
        plan = SweepPlan(
            bath=Generalized(gamma=0.2, t=0.0),
            omega_z=1.0,
            cavity=CavityParams(1.0, 0.0),
            axis="t",
            values=(0.5, 1.0),
        )
        table = sweep(plan)
        assert table.status[0] == "ok"
        assert table.status[1] == "no-transition:unpolarized"
        assert math.isnan(table.gc_over_g0[1])

    def test_empty_grid_rejected(self):
        with pytest.raises(PreconditionError):
            SweepPlan(
                bath=Thermal(gamma=0.2, temperature=0.1),
                omega_z=1.0,
                cavity=CavityParams(1.0, 0.0),
                axis="T",
                values=(),
            )

    def test_unknown_axis_rejected(self):
        plan = SweepPlan(
            bath=Thermal(gamma=0.2, temperature=0.1),
            omega_z=1.0,
            cavity=CavityParams(1.0, 0.0),
            axis="nope",
            values=(0.1,),
        )
        with pytest.raises(PreconditionError):
            sweep(plan)


def _axes_and_grid(plan):
    return (plan.axis,), [(v,) for v in plan.values]


def _scalar_point(plan, axes, values):
    bath, omega_z, cavity = plan.bath, plan.omega_z, plan.cavity
    for axis, value in zip(axes, values):
        if axis == "omega_z":
            omega_z = value
        elif axis in ("omega0", "kappa"):
            cavity = dataclasses.replace(cavity, **{axis: value})
        else:
            bath = dataclasses.replace(bath, **{{"T": "temperature"}.get(axis, axis): value})
    point = agreement(bath, omega_z, cavity, plan.mode, routes=())  # what gc prints
    result = point.results["closed_form"]
    # gc forms g0 only where it forms g_c: a point without a transition needs no reference
    g0 = fully_polarized_gc(omega_z, cavity) if isinstance(result, Transition) else math.nan
    return point.chi0, result, g0


def scalar_sweep(plan):
    """The grid row by row through the scalar calls: the reference for sweep."""
    axes, grid = _axes_and_grid(plan)
    rows = []
    for values in grid:
        chi0, result, g0 = _scalar_point(plan, axes, values)
        if isinstance(result, Transition):
            rows.append((chi0, result.g_c, result.g_c / g0, "ok"))
        else:
            rows.append((chi0, math.nan, math.nan, f"no-transition:{result.reason.value}"))
    return grid, rows


def assert_bitwise_equal(plan):
    table = sweep(plan)
    grid, rows = scalar_sweep(plan)
    assert table.params.tolist() == [v for (v,) in grid]
    for col, i in ((table.chi0, 0), (table.g_c, 1), (table.gc_over_g0, 2)):
        assert col.tobytes() == np.array([r[i] for r in rows]).tobytes()
    assert table.status.tolist() == [r[3] for r in rows]
    return table


_RNG = np.random.default_rng(20261018)


def _grid(edges, lo, hi, log=False, n=600):
    draws = np.exp(_RNG.uniform(np.log(lo), np.log(hi), n)) if log else _RNG.uniform(lo, hi, n)
    return tuple(edges) + tuple(draws.tolist())


# omega_z far above every other frequency: raw chi0 ~ 4 <sz> / omega_z falls inside ZERO_TOL,
# the unit-scale chi0 does not
HUGE_OMEGA_Z = (2.0**60, 2.0**100, 2.0**200)
# every sweepable axis, edges first: sz through 0 (inverted rows), t = 1
# (chi0 = -0.0), T = 0 and T < omega_z / 700 (the x > 700 branch of
# bose_occupation at omega_z = 1.1); the random draws hit the points where
# numpy's square, tanh and expm1 differ from Python's in the last bit
DOMAIN = {
    "gamma": _grid((0.0, 1e-3, 0.3, 2.0, 50.0), 1e-3, 10.0, log=True),
    "sz": _grid((-0.5, -0.25, 0.0, 0.25, 0.5), -0.5, 0.5),
    "T": _grid((0.0, 1e-3, 1.1 / 650, 0.5, 100.0), 1e-3, 10.0, log=True),
    "t": _grid((0.0, 0.5, 0.99, 1.0), 0.0, 1.0),
    "omega_z": _grid((0.05, 1.0, 20.0, *HUGE_OMEGA_Z), 0.05, 20.0, log=True),
    "omega0": _grid((0.05, 1.0, 20.0), 0.05, 20.0, log=True),
    "kappa": _grid((0.0, 1.0, 20.0), 0.0, 5.0),
}
BATHS = {
    Dephasing(gamma=0.3, sz=-0.4): ("gamma", "sz"),
    Thermal(gamma=0.2, temperature=0.4): ("gamma", "T"),
    Generalized(gamma=0.4, t=0.3): ("gamma", "t"),
}


class TestSweepKernel:
    @pytest.mark.parametrize("mode", list(GcMode))
    @pytest.mark.parametrize("bath", list(BATHS), ids=lambda b: type(b).__name__)
    def test_columns_equal_scalar_calls_bitwise(self, bath, mode):
        statuses = set()
        for axis in BATHS[bath] + ("omega_z", "omega0", "kappa"):
            values = DOMAIN[axis]
            if axis == "gamma" and not isinstance(bath, Dephasing):
                values = values[1:]  # gamma = 0 is invalid for these baths
            plan = SweepPlan(bath, 1.1, CavityParams(0.9, 0.3), axis, values, mode=mode)
            table = assert_bitwise_equal(plan)
            statuses.update(table.status.tolist())
            if axis == "omega_z":
                assert set(table.status[np.isin(table.params, HUGE_OMEGA_Z)]) == {"ok"}
        assert "ok" in statuses
        if not isinstance(bath, Thermal):
            assert "no-transition:unpolarized" in statuses

    def test_inverted_and_negative_zero_rows(self):
        plan = SweepPlan(Dephasing(0.3, -0.4), 1.1, CavityParams(0.9, 0.3), "sz", (-0.5, 0.0, 0.5))
        assert assert_bitwise_equal(plan).status.tolist() == [
            "ok", "no-transition:unpolarized", "no-transition:inverted"]
        plan = SweepPlan(Generalized(0.4, 0.3), 1.1, CavityParams(0.9, 0.3), "t", (1.0,))
        assert math.copysign(1.0, assert_bitwise_equal(plan).chi0[0]) == -1.0

    def test_rows_without_a_transition_need_no_reference(self):
        # g0 needs omega_z > 0 and a normal omega0^2 + kappa^2; a row without a transition
        # is not divided by it, as gc prints no g_c_over_g0 there
        plan = SweepPlan(Dephasing(0.3, -0.5), 1.0, CavityParams(1.0, 0.5), "omega_z",
                         (-1.0, 0.0, 1.0))
        assert assert_bitwise_equal(plan).status.tolist() == [
            "no-transition:inverted", "no-transition:unpolarized", "ok"]
        plan = SweepPlan(Dephasing(0.3, 0.0), 1.0, CavityParams(1.0, 0.0), "omega0",
                         (1e-300, 1.0, 1e-160))
        table = assert_bitwise_equal(plan)
        assert set(table.status) == {"no-transition:unpolarized"}
        assert np.isnan(table.gc_over_g0).all()
        plan = SweepPlan(Dephasing(0.3, 0.0), -1.0, CavityParams(1.0, 0.0), "sz", (-0.5, 0.0))
        assert assert_bitwise_equal(plan).status.tolist() == [
            "no-transition:inverted", "no-transition:unpolarized"]

    INVALID = (
        (Thermal(gamma=0.2, temperature=0.4), "gamma", 0.0),
        (Thermal(gamma=0.2, temperature=0.4), "T", -1.0),
        (Thermal(gamma=0.2, temperature=0.4), "omega_z", -1.0),
        (Dephasing(gamma=0.3, sz=-0.4), "sz", 0.7),
        (Dephasing(gamma=0.0, sz=-0.4), "omega_z", 0.0),
        (Dephasing(gamma=0.3, sz=-0.4), "omega_z", math.nan),
        (Generalized(gamma=0.4, t=0.3), "t", 1.5),
        (Generalized(gamma=0.4, t=0.3), "omega0", 0.0),
        (Generalized(gamma=0.4, t=0.3), "kappa", math.nan),
        (Generalized(gamma=0.4, t=0.3), "omega0", 1e200),
        # float * and / overflow to inf without an exception: g_c, g0 and the occupation
        (Dephasing(gamma=3e6, sz=-0.5), "omega0", 1e-300),
        (Generalized(gamma=0.4, t=0.3), "kappa", 1.3e154),
        (Thermal(gamma=0.2, temperature=0.4), "omega_z", 1e-310),
        # 2 omega0 chi0 underflows to -0.0: g_c is undefined on the row, as at the point
        (Dephasing(gamma=0.3, sz=-0.05), "omega0", 5e-324),
    )

    @pytest.mark.parametrize("bath,axis,bad", INVALID)
    def test_invalid_row_raises_the_scalar_error(self, bath, axis, bad):
        valid = tuple(np.linspace(0.1, 0.4, 6).tolist())
        for row in (0, 3, 6):
            values = valid[:row] + (bad,) + valid[row:]
            plan = SweepPlan(bath, 1.1, CavityParams(0.9, 0.3), axis, values)
            with pytest.raises(DickeCriticError) as scalar:
                _scalar_point(plan, (axis,), (bad,))
            with pytest.raises(type(scalar.value)) as swept:
                sweep(plan)
            assert type(swept.value) is type(scalar.value)
            assert str(swept.value) == f"row {row}, {axis} = {bad!r}: {scalar.value}"

    def test_underflowing_row_raises_the_scalar_error(self):
        # kappa = 0: omega0 = 1e-300 squares to 0, which once gave g_c = 0 with status ok
        plan = SweepPlan(Generalized(gamma=0.5, t=0.3), 1.0, CavityParams(1.0, 0.0), "omega0",
                         (1.0, 1e-300, 1e-200))
        with pytest.raises(PreconditionError) as scalar:
            _scalar_point(plan, ("omega0",), (1e-300,))
        with pytest.raises(PreconditionError) as swept:
            sweep(plan)
        assert str(swept.value) == f"row 1, omega0 = 1e-300: {scalar.value}"
        assert "underflows" in str(scalar.value)
