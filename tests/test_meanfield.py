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
from dicke_critic.response import polariton_roots

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

    def test_bracket_error_names_end_rates(self):
        cavity, model = CavityParams(1e-6, 0.0), model_for(Dephasing(gamma=0.0, sz=-0.5), 1e6)
        with pytest.raises(NoThresholdError) as info:
            stability_threshold(cavity, model, 0.2, 1.25)
        rates = [growth_rate(cavity, model, g) for g in (0.2, 1.25)]
        assert 0 < rates[1] < 1e-2  # unstable, but below eps = 1e-8 * omega_z
        assert (f"largest real eigenvalue {rates[0]!r} at g_lo and {rates[1]!r} at g_hi, "
                f"unstable above eps = 0.01;") in str(info.value)

    def test_bisection_eigvals_count_unchanged(self, monkeypatch):
        # the end rates of the error message cost no eigenvalue solve on success:
        # one per bracket end, then one per bisection step
        bath, tol = Thermal(gamma=0.1, temperature=0.5), 1e-8
        model = model_for(bath)
        gc = baths.closed_form_gc(bath, 1.0, CAVITY).g_c
        g_lo, g_hi = 0.4 * gc, 2.5 * gc
        eps = meanfield.GROWTH_EPS_FACTOR * 1.0
        lo, hi, want = g_lo, g_hi, 2
        while hi - lo > tol * hi:
            mid, want = 0.5 * (lo + hi), want + 1
            lo, hi = (lo, mid) if growth_rate(CAVITY, model, mid) > eps else (mid, hi)
        calls = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda m: calls.append(1) or eigvals(m))
        assert stability_threshold(CAVITY, model, g_lo, g_hi, tol) == 0.5 * (lo + hi)
        assert len(calls) == want

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
    # each root omega of det(omega), taken as lambda = -i omega, is an eigenvalue
    # of the exact Jacobian at the normal state
    @pytest.mark.parametrize("bath", [
        Dephasing(gamma=0.3, sz=-0.5),
        Dephasing(gamma=0.05, sz=-0.3),
        Thermal(gamma=0.1, temperature=0.5),
        Thermal(gamma=0.2, temperature=0.0),
        Generalized(gamma=0.2, t=0.0),
        Generalized(gamma=0.2, t=0.4),
        Generalized(gamma=1.0, t=0.5),  # exceptional point 2 t gamma = omega_z
    ])
    def test_roots_are_jacobian_eigenvalues(self, bath):
        for kappa in (0.0, 0.4, 1.0):
            cavity = CavityParams(omega0=1.0, kappa=kappa)
            for omega_z in (1.0, 1.7):
                gc = baths.closed_form_gc(bath, omega_z, cavity).g_c
                model = model_for(bath, omega_z)
                for g in (0.5 * gc, 0.9 * gc):
                    eigs = np.linalg.eigvals(jacobian(cavity, model, g))
                    roots = polariton_roots(cavity, g, baths.closed_form_chi(bath, omega_z))
                    assert len(roots) == 2
                    for w in roots:
                        assert np.min(np.abs(eigs + 1j * w)) < 1e-12, (kappa, omega_z, g, w)


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
