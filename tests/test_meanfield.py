import re

import numpy as np
import pytest

from dicke_critic import baths, meanfield
from dicke_critic.baths import CavityParams, Dephasing, Generalized, Thermal
from dicke_critic.errors import NoThresholdError, PreconditionError
from dicke_critic.lindblad import steady_state
from dicke_critic.meanfield import (
    MeanFieldState,
    growth_rate,
    jacobian,
    normal_fixed_point,
    simulate,
    stability_threshold,
)
from dicke_critic.cli import ORACLE_SUITE
from dicke_critic.response import resolvent_chi

CAVITY = CavityParams(omega0=1.0, kappa=0.5)


def model_for(bath, omega_z=1.0):
    return baths.spin_model(bath, omega_z)


class TestDerivative:
    @pytest.mark.parametrize("bath", [
        Dephasing(gamma=0.3, sz=-0.5),
        Thermal(gamma=0.1, temperature=0.5),
        Generalized(gamma=0.2, t=0.4),
    ])
    def test_normal_state_is_fixed_point(self, bath):
        model = model_for(bath)
        state = normal_fixed_point(model)
        dy = meanfield._flow(CAVITY, model, 0.8)(0.0, meanfield._vector(state))
        assert abs(dy[0]) < 1e-12
        assert np.max(np.abs(dy[2:])) < 1e-12

    def test_decoupled_cavity_decay(self):
        model = model_for(Generalized(gamma=0.2, t=0.0))
        state = MeanFieldState(alpha=1.0 + 0.0j, rho=steady_state(model).rho)
        dy = meanfield._flow(CAVITY, model, 0.0)(0.0, meanfield._vector(state))
        assert dy[0] == pytest.approx(-(1j * CAVITY.omega0 + CAVITY.kappa), abs=1e-14)

    def test_drive_term_scales_with_alpha(self):
        model = model_for(Generalized(gamma=0.2, t=0.0))
        rho = steady_state(model).rho
        flow = meanfield._flow(CAVITY, model, 0.7)
        d1 = flow(0.0, meanfield._vector(MeanFieldState(0.01 + 0j, rho)))
        d2 = flow(0.0, meanfield._vector(MeanFieldState(0.02 + 0j, rho)))
        assert np.max(np.abs(2 * d1[2:] - d2[2:])) < 1e-12


class TestThreshold:
    def test_equilibrium_point(self):
        model = model_for(Dephasing(gamma=0.0, sz=-0.5))
        g_star = stability_threshold(CavityParams(1.0, 0.0), model, 0.2, 1.5)
        assert g_star == pytest.approx(0.5, rel=1e-7)

    def test_generalized_matches_closed_form(self):
        bath = Generalized(gamma=0.2, t=0.4)
        gc = baths.closed_form_gc(bath, 1.0, CAVITY).g_c
        g_star = stability_threshold(CAVITY, model_for(bath), 0.4 * gc, 2.0 * gc)
        assert abs(g_star - gc) / gc < 1e-6

    def test_unpolarized_has_no_threshold(self):
        model = model_for(Generalized(gamma=0.2, t=1.0))
        with pytest.raises(NoThresholdError):
            stability_threshold(CAVITY, model, 0.1, 3.0)

    def test_oracle_suite_is_exact(self):
        # bound fixed before the first run: a few ulps, against the bisection's 1e-8
        for text, kappa in ORACLE_SUITE:
            bath, cavity = baths.parse_bath(text), CavityParams(1.0, kappa)
            gc = baths.closed_form_gc(bath, 1.0, cavity).g_c
            g_star = stability_threshold(cavity, model_for(bath), 0.4 * gc, 2.5 * gc)
            assert abs(g_star - gc) / gc <= 2e-15, text

    @pytest.mark.parametrize("bath", [Dephasing(gamma=0.0, sz=-0.5), Thermal(0.1, 0.5)])
    def test_far_apart_scales(self, bath):
        # omega0 = 1e-6 and omega_z = 1e6: the growth rate at 2.5 g_c is 2.29e-6, far
        # below max(omega0, omega_z), and the exact root needs no scale to compare it to
        cavity = CavityParams(1e-6, 0.0)
        gc = baths.closed_form_gc(bath, 1e6, cavity).g_c
        g_star = stability_threshold(cavity, model_for(bath, 1e6), 0.4 * gc, 2.5 * gc)
        assert abs(g_star - gc) / gc <= 1e-15

    def test_bracket_error_names_end_rates(self):
        bath = Thermal(gamma=0.1, temperature=0.5)
        model, gc = model_for(bath), baths.closed_form_gc(bath, 1.0, CAVITY).g_c
        with pytest.raises(NoThresholdError) as info:
            stability_threshold(CAVITY, model, 1.2 * gc, 2.5 * gc)
        got = re.search(r"largest real eigenvalue (\S+) at g_lo and (\S+) at g_hi; the normal "
                        r"state may be stable \(or unstable\) throughout$", str(info.value))
        want = [growth_rate(CAVITY, model, g) for g in (1.2 * gc, 2.5 * gc)]
        assert [float(r) for r in got.groups()] == pytest.approx(want, rel=1e-12)
        assert min(want) > 0
        with pytest.raises(NoThresholdError, match=r"largest real eigenvalue -\S+ at g_lo and "
                           r"-\S+ at g_hi; the normal"):
            stability_threshold(CAVITY, model, 0.4 * gc, 0.9 * gc)

    def test_oscillating_crossing_is_named(self):
        # an inverted bath goes unstable through a complex pair (lasing, near g = 0.5385),
        # which leaves the sign of the determinant alone
        model = model_for(Dephasing(gamma=0.3, sz=0.3))
        with pytest.raises(NoThresholdError, match=r"the oscillating mode \(0\.\d+[-+]1\.\d+j\) "
                           r"grows at g_hi"):
            stability_threshold(CAVITY, model, 0.1, 1.0)

    @staticmethod
    def linearized(monkeypatch, rates, slopes):
        # J(g) = diag(rates) + g diag(slopes), with rates[:2] a pair rotating at frequency 1;
        # row and column 5 are zero, a conserved direction to deflate
        a = np.diag(np.asarray(rates, dtype=complex))
        a[0, 1], a[1, 0] = -1.0, 1.0
        b = np.diag(np.asarray(slopes, dtype=complex))
        monkeypatch.setattr(meanfield, "_linearization", lambda cavity, model: (a, b))

    def test_mode_growing_below_the_root_is_named(self, monkeypatch):
        # the pair -0.5 + g +- i grows from g = 0.5, the real mode -1 + g from g = 1
        self.linearized(monkeypatch, [-0.5, -0.5, -1, -2, -3, 0], [1, 1, 1, 0, 0, 0])
        with pytest.raises(NoThresholdError, match=r"the oscillating mode \(0\.49\d+[-+]1(\.0*)?j\) "
                           r"grows at g = 0\.99\d+, below the static root 1\.0"):
            stability_threshold(CAVITY, None, 0.2, 2.0)

    def test_growth_within_roundoff_is_not_an_instability(self, monkeypatch):
        # the real mode (g - 1) 1e-14 changes the determinant's sign at g = 1, but at
        # g_hi = 2 it is 1e-14, below ROUNDOFF times the norm of J
        self.linearized(monkeypatch, [-1, -1, -1e-14, -2, -3, 0], [0, 0, 1e-14, 0, 0, 0])
        with pytest.raises(NoThresholdError, match=r"changes sign at g = 1\.0\d*, but no mode "
                           r"grows at g_hi: the largest real eigenvalue is 1(\.0\d*)?e-14"):
            stability_threshold(CAVITY, None, 0.2, 2.0)

    def test_two_eigvals_solves_per_threshold(self, monkeypatch):
        # the root costs determinants only; one eigenvalue solve below it, one at g_hi
        bath = Thermal(gamma=0.1, temperature=0.5)
        model = model_for(bath)
        gc = baths.closed_form_gc(bath, 1.0, CAVITY).g_c
        calls = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda m: calls.append(m.shape) or eigvals(m))
        stability_threshold(CAVITY, model, 0.4 * gc, 2.5 * gc)
        assert calls == [(5, 5), (5, 5)]

    def test_bad_bracket_rejected(self):
        model = model_for(Generalized(gamma=0.2, t=0.4))
        with pytest.raises(PreconditionError):
            stability_threshold(CAVITY, model, 1.0, 0.5)

    def test_jacobian_has_conserved_trace_direction(self):
        model = model_for(Thermal(gamma=0.1, temperature=0.5))
        jac = jacobian(CAVITY, model, g=0.5)
        # d(trace)/dt = 0: the (rho00 + rho11) row combination vanishes
        assert np.max(np.abs(jac[2] + jac[5])) < 1e-9


class TestPolaritonRoots:
    # each root omega of det(omega) is i lambda for an eigenvalue lambda of the exact
    # Jacobian at the normal state: 4 of its 6 eigenvalues are roots, the other two
    # (the conserved trace and the population) are not. The population eigenvalue can
    # sit near the soft root: |det| = 1.9e-3 there at thermal, kappa = 1, omega_z = 1.7
    @pytest.mark.parametrize("bath", [
        Dephasing(gamma=0.3, sz=-0.5),
        Dephasing(gamma=0.05, sz=-0.3),
        Thermal(gamma=0.1, temperature=0.5),
        Thermal(gamma=0.2, temperature=0.0),
        Generalized(gamma=0.2, t=0.0),
        Generalized(gamma=0.2, t=0.4),
        Generalized(gamma=1.0, t=0.5),  # exceptional point 2 t gamma = omega_z
    ])
    def test_roots_are_jacobian_eigenvalues(self, bath, polariton_residuals):
        for kappa in (0.0, 0.4, 1.0):
            cavity = CavityParams(omega0=1.0, kappa=kappa)
            for omega_z in (1.0, 1.7):
                gc = baths.closed_form_gc(bath, omega_z, cavity).g_c
                model = model_for(bath, omega_z)
                for chi in (baths.closed_form_chi(bath, omega_z), resolvent_chi(model)):
                    for g in (0.5 * gc, 0.9 * gc):
                        res = polariton_residuals(cavity, model, g, chi)
                        assert np.all(res[:4] <= 1e-12), (kappa, omega_z, g, res)
                        assert np.all(res[4:] >= 1e-6), (kappa, omega_z, g, res)


class TestSimulate:
    BATH = Generalized(gamma=0.2, t=0.0)

    def _threshold(self):
        bath = self.BATH
        return baths.closed_form_gc(bath, 1.0, CAVITY).g_c

    def seed_state(self, model, alpha):
        return MeanFieldState(alpha=alpha, rho=steady_state(model).rho)

    def test_below_threshold_decays(self):
        model = model_for(self.BATH)
        g = 0.5 * self._threshold()
        traj = simulate(self.seed_state(model, 1e-3), CAVITY, model, g, duration=150.0, dt=0.5)
        assert abs(traj.alphas[-1]) < 1e-6

    def test_above_threshold_saturates(self):
        model = model_for(self.BATH)
        g = 1.5 * self._threshold()
        traj = simulate(self.seed_state(model, 1e-3), CAVITY, model, g, duration=400.0, dt=0.5)
        tail = np.abs(traj.alphas[traj.times > 0.9 * traj.times[-1]])
        assert tail[-1] > 1e-2
        assert np.max(tail) - np.min(tail) < 0.01 * np.mean(tail)

    def test_zero_seed_stays_symmetric(self):
        model = model_for(self.BATH)
        g = 1.5 * self._threshold()
        traj = simulate(self.seed_state(model, 0.0), CAVITY, model, g, duration=50.0, dt=0.5)
        assert np.max(np.abs(traj.alphas)) == 0.0

    def test_z2_mirror_trajectories(self):
        model = model_for(self.BATH)
        g = 1.3 * self._threshold()
        plus = simulate(self.seed_state(model, 1e-2), CAVITY, model, g, duration=60.0, dt=0.5)
        minus = simulate(self.seed_state(model, -1e-2), CAVITY, model, g, duration=60.0, dt=0.5)
        assert np.max(np.abs(plus.alphas + minus.alphas)) < 1e-8
        assert np.max(np.abs(plus.sx + minus.sx)) < 1e-8
        assert np.max(np.abs(plus.sz - minus.sz)) < 1e-8

    def test_trace_and_positivity_preserved(self):
        model = model_for(Thermal(gamma=0.1, temperature=0.5))
        g = 1.2 * baths.closed_form_gc(Thermal(gamma=0.1, temperature=0.5), 1.0, CAVITY).g_c
        traj = simulate(self.seed_state(model, 1e-2), CAVITY, model, g, duration=100.0, dt=0.25)
        assert np.max(np.abs(traj.traces - 1.0)) < 1e-8
        eigs = np.array([np.linalg.eigvalsh(r) for r in traj.rhos])
        assert np.min(eigs) > -1e-8

    def test_bad_dt_rejected(self):
        model = model_for(self.BATH)
        with pytest.raises(PreconditionError):
            simulate(self.seed_state(model, 0.0), CAVITY, model, 0.1, duration=1.0, dt=0.0)
