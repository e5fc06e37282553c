import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dicke_critic.baths import CavityParams, Generalized, Thermal
from dicke_critic.critical import (
    NoTransition,
    NoTransitionReason,
    SweepPlan,
    Transition,
    kappa_scaling,
    residual,
    solve_gc,
    sweep,
)
from dicke_critic.errors import PreconditionError
from dicke_critic.response import ensemble_chi


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
        assert abs(residual(result, chi0, cavity)) < 1e-12 * (omega0**2 + kappa**2)


class TestKappaScaling:
    def test_examples(self):
        assert kappa_scaling(CavityParams(1.0, 0.0)) == 1.0
        assert kappa_scaling(CavityParams(1.0, 1.0)) == pytest.approx(math.sqrt(2), rel=1e-15)
        assert kappa_scaling(CavityParams(1.0, 2.0)) == pytest.approx(math.sqrt(5), rel=1e-15)

    def test_matches_gc_ratio(self):
        chi0 = -1.2
        for kappa in (0.3, 1.7):
            base = solve_gc(chi0, CavityParams(1.1, 0.0)).g_c
            scaled = solve_gc(chi0, CavityParams(1.1, kappa)).g_c
            assert scaled / base == pytest.approx(kappa_scaling(CavityParams(1.1, kappa)), rel=1e-12)


class TestEnsembles:
    def test_single_member_unchanged(self):
        assert ensemble_chi([(1.0, -1.6)]) == -1.6

    def test_identical_members(self):
        assert ensemble_chi([(0.5, -1.6), (0.5, -1.6)]) == -1.6

    def test_mean(self):
        merged = ensemble_chi([(0.5, -1.6), (0.5, 0.0)])
        assert merged == pytest.approx(-0.8, abs=1e-15)

    def test_half_unpolarized_raises_gc_by_sqrt2(self):
        cavity = CavityParams(1.0, 0.4)
        full = solve_gc(-1.6, cavity).g_c
        mixed = solve_gc(ensemble_chi([(0.5, -1.6), (0.5, 0.0)]), cavity).g_c
        assert mixed / full == pytest.approx(math.sqrt(2), rel=1e-12)

    def test_bad_weights(self):
        with pytest.raises(PreconditionError):
            ensemble_chi([(0.4, -1.0), (0.4, -1.0)])
        with pytest.raises(PreconditionError):
            ensemble_chi([])

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(PreconditionError):
            ensemble_chi([(0.5, np.zeros(3, dtype=complex)), (0.5, np.zeros(4, dtype=complex))])


class TestSweep:
    def test_rows_in_grid_order(self):
        plan = SweepPlan(
            bath=Thermal(gamma=0.2, temperature=0.1),
            omega_z=1.0,
            cavity=CavityParams(1.0, 0.3),
            axis="T",
            values=tuple(np.linspace(0.05, 2.0, 12)),
        )
        rows = sweep(plan)
        assert [r.params[0] for r in rows] == list(plan.values)
        gcs = [r.result.g_c for r in rows]
        assert all(a < b for a, b in zip(gcs, gcs[1:]))

    def test_single_point_normalization(self):
        plan = SweepPlan(
            bath=Generalized(gamma=1e-12, t=0.0),
            omega_z=1.0,
            cavity=CavityParams(1.0, 0.0),
            axis="t",
            values=(0.0,),
        )
        (row,) = sweep(plan)
        assert row.gc_over_g0 == pytest.approx(1.0, abs=1e-12)
        assert row.status == "ok"

    def test_no_transition_row(self):
        plan = SweepPlan(
            bath=Generalized(gamma=0.2, t=0.0),
            omega_z=1.0,
            cavity=CavityParams(1.0, 0.0),
            axis="t",
            values=(0.5, 1.0),
        )
        rows = sweep(plan)
        assert rows[0].status == "ok"
        assert rows[1].status == "no-transition:unpolarized"
        assert math.isnan(rows[1].gc_over_g0)

    def test_two_axis_row_major(self):
        plan = SweepPlan(
            bath=Thermal(gamma=0.2, temperature=0.1),
            omega_z=1.0,
            cavity=CavityParams(1.0, 0.0),
            axis="T",
            values=(0.1, 0.2),
            axis2="kappa",
            values2=(0.0, 0.5, 1.0),
        )
        rows = sweep(plan)
        assert [r.params for r in rows] == [
            (0.1, 0.0), (0.1, 0.5), (0.1, 1.0), (0.2, 0.0), (0.2, 0.5), (0.2, 1.0)
        ]

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

    def test_identical_ensemble_matches_single(self):
        # ensemble of identical members reduces exactly to one member
        chi0 = -0.9
        merged = ensemble_chi([(0.25, chi0)] * 4)
        cavity = CavityParams(1.0, 0.2)
        assert solve_gc(merged, cavity) == solve_gc(chi0, cavity)
