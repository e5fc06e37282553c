import numpy as np
import pytest

from dicke_critic import baths, lindblad, qops, response
from dicke_critic.baths import CavityParams, Custom, Dephasing, Generalized, Thermal
from dicke_critic.critical import agreement, solve_gc
from dicke_critic.errors import NonIntegrableTailError
from dicke_critic.lindblad import steady_state, two_time_sx
from dicke_critic.meanfield import jacobian
from dicke_critic.response import cavity_det, chi_from_correlator, resolvent_chi


def series_for(bath, omega_z=1.0, **kwargs):
    model = baths.spin_model(bath, omega_z)
    return two_time_sx(model, steady_state(model).rho, **kwargs)


class TestChiQuadrature:
    def test_dephasing_static_value(self):
        gphi, sz, wz = 0.5, -0.5, 1.0
        chi0 = chi_from_correlator(series_for(Dephasing(gamma=gphi, sz=sz), wz), 0.0)
        assert chi0.imag == 0.0
        assert chi0.real == pytest.approx(4 * sz * wz / (wz**2 + gphi**2), rel=1e-10)
        assert chi0.real == pytest.approx(-1.6, rel=1e-10)

    def test_finite_frequency_closed_form(self):
        gphi, sz, wz = 0.4, -0.5, 1.0
        series = series_for(Dephasing(gamma=gphi, sz=sz), wz)
        for omega in (0.3, -0.7, 1.9):
            got = chi_from_correlator(series, omega)
            expected = 4 * sz * wz / ((gphi - 1j * omega) ** 2 + wz**2)
            assert abs(got - expected) < 1e-9 * abs(expected)

    def test_closed_form_equivalence_small_grid(self):
        for bath_type in ("dephasing", "thermal", "generalized"):
            for gamma in (0.1, 0.4):
                for wz in (0.7, 1.5):
                    if bath_type == "dephasing":
                        bath = Dephasing(gamma=gamma, sz=-0.4)
                    elif bath_type == "thermal":
                        bath = Thermal(gamma=gamma, temperature=0.6 * wz)
                    else:
                        bath = Generalized(gamma=gamma, t=0.35)
                    numeric = chi_from_correlator(series_for(bath, wz), 0.0).real
                    closed = baths.closed_form_chi0(bath, wz)
                    assert numeric == pytest.approx(closed, rel=1e-8)

    def test_quadrature_convergence_under_dt_halving(self):
        bath = Dephasing(gamma=0.3, sz=-0.5)
        model = baths.spin_model(bath, 1.0)
        rho = steady_state(model).rho
        coarse = chi_from_correlator(two_time_sx(model, rho), 0.0).real
        fine = chi_from_correlator(two_time_sx(model, rho, dt=0.01), 0.0).real
        assert abs(fine - coarse) < 1e-9 * abs(coarse)

    def test_unpolarized_chi_vanishes_everywhere(self):
        series = series_for(Dephasing(gamma=0.3, sz=0.0))
        for omega in (0.0, 0.5, 2.0):
            assert abs(chi_from_correlator(series, omega)) < 1e-14

    def test_undamped_abel_limit(self, transverse_sx):
        # gamma = 0: the resolvent tail past the window is the Abel limit
        sz, wz = -0.5, 1.0
        bath = Dephasing(gamma=0.0, sz=sz)
        series = series_for(bath, wz)
        assert series.times[-1] == pytest.approx(12 * 2 * np.pi / wz, rel=1e-14)
        assert np.max(np.abs(series.values - transverse_sx(bath, wz, series.times))) < 1e-12
        chi0 = chi_from_correlator(series, 0.0)
        assert chi0.real == pytest.approx(4 * sz / wz, rel=1e-12)

    def test_undamped_resonance_is_typed_error(self):
        series = series_for(Dephasing(gamma=0.0, sz=-0.5), 1.0)
        with pytest.raises(NonIntegrableTailError):
            chi_from_correlator(series, 1.0)

    def test_exceptional_manifold_scan(self):
        # 2 t gamma = omega_z (1 + eps): on and around the manifold where the
        # mixed channel's generator is defective; bounds are c04's
        failures = []
        for t in (0.25, 0.5, 0.75, 1.0):
            for eps in (-1e-3, -1e-7, 0.0, 1e-7, 1e-3):
                bath = Generalized(gamma=(1.0 + eps) / (2.0 * t), t=t)
                numeric = chi_from_correlator(series_for(bath), 0.0).real
                closed = baths.closed_form_chi0(bath, 1.0)
                if closed == 0.0:
                    ok = abs(numeric) <= 1e-12
                else:
                    ok = abs(numeric - closed) <= 1e-8 * abs(closed)
                if not ok:
                    failures.append((t, eps, numeric, closed))
        assert not failures

    def test_causality_symmetry(self):
        # Re chi even, Im chi odd on a symmetric grid
        chi = baths.closed_form_chi(Dephasing(gamma=0.3, sz=-0.5), 1.0)
        omegas = np.linspace(0.1, 3.0, 11)
        for w in omegas:
            assert chi(w).real == pytest.approx(chi(-w).real, abs=1e-9)
            assert chi(w).imag == pytest.approx(-chi(-w).imag, abs=1e-9)

    def test_exact_chi_callable_matches_quadrature(self):
        bath = Generalized(gamma=0.3, t=0.5)
        series = series_for(bath)
        chi = baths.closed_form_chi(bath, 1.0)
        for w in (0.0, 0.4, 1.3):
            assert abs(chi_from_correlator(series, w) - chi(w)) < 1e-9

    def test_closed_form_gc_matches_quadrature_route(self):
        # end to end: closed form vs the solver fed by the integrated chi
        for bath in (
            Dephasing(gamma=0.25, sz=-0.45),
            Thermal(gamma=0.15, temperature=0.7),
            Generalized(gamma=0.35, t=0.6),
        ):
            point = agreement(bath, 1.0, CavityParams(1.1, 0.4), routes=("quadrature",))
            closed, quadrature = (result.g_c for result in point.results.values())
            assert quadrature == pytest.approx(closed, rel=1e-6)


def max_rel_dev(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


class TestResolventChi:
    def test_matches_closed_form_for_all_baths(self):
        for gamma in (0.1, 0.4, 1e-3):
            for wz in (0.7, 1.5):
                omegas = np.linspace(-2.5, 2.5, 101) * wz
                for bath in (
                    Dephasing(gamma=gamma, sz=-0.4),
                    Thermal(gamma=gamma, temperature=0.6 * wz),
                    Generalized(gamma=gamma, t=0.35),
                ):
                    got = resolvent_chi(baths.spin_model(bath, wz))(omegas)
                    want = baths.closed_form_chi(bath, wz)(omegas)
                    assert max_rel_dev(got, want) < 1e-12, bath

    def test_exceptional_points(self):
        # 2 t gamma = omega_z: the generator is defective there
        omegas = np.linspace(-3.0, 3.0, 61)
        for gamma, t in ((1.0, 0.5), (2.0, 0.25), (0.5, 1.0)):
            bath = Generalized(gamma=gamma, t=t)
            got = resolvent_chi(baths.spin_model(bath, 1.0))(omegas)
            want = baths.closed_form_chi(bath, 1.0)(omegas)
            assert np.max(np.abs(got - want)) < 1e-12, (gamma, t)

    def test_degenerate_dephasing_static_value(self):
        for gamma in (0.0, 0.3):
            bath = Dephasing(gamma=gamma, sz=-0.4)
            model = baths.spin_model(bath, 1.3)
            assert steady_state(model).degenerate
            chi0 = resolvent_chi(model)(0.0)
            assert chi0.imag == 0.0
            assert chi0.real == pytest.approx(baths.closed_form_chi0(bath, 1.3), rel=1e-12)

    def test_custom_bath_matches_quadrature(self):
        channels = (
            qops.LindbladChannel(qops.sigma("minus"), 0.15),
            qops.LindbladChannel(qops.sigma("plus"), 0.05),
            qops.LindbladChannel(qops.sigma("z"), 0.1),
        )
        model = baths.spin_model(Custom(channels), 1.0)
        series = two_time_sx(model, steady_state(model).rho)
        omegas = np.array([0.0, 0.3, -0.7, 1.0, 1.9])
        quad = np.array([chi_from_correlator(series, w) for w in omegas])
        got = resolvent_chi(model)(omegas)
        assert max_rel_dev(got, quad) < 1e-9

    def test_polariton_roots_with_complex_omega(self, polariton_residuals):
        # the resolvent continued to omega = i lambda, lambda an eigenvalue of the
        # mean-field Jacobian, closes the cavity determinant as the closed form does
        bath = Thermal(gamma=0.2, temperature=0.4)
        model = baths.spin_model(bath, 1.0)
        cavity = CavityParams(1.0, 0.2)
        gc = baths.closed_form_gc(bath, 1.0, cavity).g_c
        chi, want = resolvent_chi(model), baths.closed_form_chi(bath, 1.0)
        for g in (0.5 * gc, 0.97 * gc):
            assert np.all(polariton_residuals(cavity, model, g, chi)[:4] <= 1e-12)
            omegas = 1j * np.linalg.eigvals(jacobian(cavity, model, g))
            assert max_rel_dev(chi(omegas), want(omegas)) < 1e-12

    def test_polariton_search_builds_the_model_once(self, monkeypatch):
        # the steady state and the generator are built with the callable,
        # not once per chi evaluation at the roots
        counts = {"steady": 0, "generator": 0}
        steady, generator = lindblad.steady_state, lindblad.SpinModel.generator

        def counted_steady(model):
            counts["steady"] += 1
            return steady(model)

        def counted_generator(model):
            counts["generator"] += 1
            return generator(model)

        monkeypatch.setattr(response, "steady_state", counted_steady)
        monkeypatch.setattr(lindblad.SpinModel, "generator", counted_generator)
        bath = Thermal(gamma=0.2, temperature=0.4)
        model = baths.spin_model(bath, 1.0)
        cavity = CavityParams(1.0, 0.2)
        chi = resolvent_chi(model)
        built = dict(counts)
        assert built["steady"] == 1
        g = 0.97 * baths.closed_form_gc(bath, 1.0, cavity).g_c
        lams = np.linalg.eigvals(jacobian(cavity, model, g))
        counts.update(built)  # count only the chi evaluations at the roots i lambda
        got = [chi(1j * lam) for lam in lams]
        assert counts == built
        assert max_rel_dev(np.array(got), baths.closed_form_chi(bath, 1.0)(1j * lams)) < 1e-12

    def test_unpolarized_response_vanishes(self):
        # omega = 1 is the resonance of the undamped mode, where <sz> = 0 still gives 0
        bath = Dephasing(gamma=0.0, sz=0.0)
        for chi in (resolvent_chi(baths.spin_model(bath, 1.0)), baths.closed_form_chi(bath, 1.0)):
            assert np.all(chi([0.0, 1.0, 2.0]) == 0)

    def test_undamped_resonance_is_typed_error(self):
        bath = Dephasing(gamma=0.0, sz=-0.5)
        for chi in (resolvent_chi(baths.spin_model(bath, 1.0)), baths.closed_form_chi(bath, 1.0)):
            assert chi(0.5) == pytest.approx(-2.0 / (1.0 - 0.25), rel=1e-12)
            with pytest.raises(NonIntegrableTailError, match="omega = 1.0"):
                chi([0.5, 1.0])
            with pytest.raises(NonIntegrableTailError,
                               match=r"eigenvalue 0\+1j\) evaluated at its resonance omega = -1.0"):
                chi(np.array([-1.0]))
        # within RESONANCE_TOL |omega_z| of the pole, and not past it
        chi = baths.closed_form_chi(bath, 2.0)
        with pytest.raises(NonIntegrableTailError, match="eigenvalue 0-2j"):
            chi(2.0 + 1.5e-12)
        assert np.isfinite(chi(2.0 + 1e-11))

    def test_undamped_resonances_at_any_scale(self):
        # the resonance window is RESONANCE_TOL of the spectral radius, and the residual is
        # measured against the terms it cancels: omega = 0 is no resonance at omega_z = 1e-12,
        # and omega = +-omega_z is one at omega_z = 1e12 and 1e14
        bath = Dephasing(gamma=0.0, sz=-0.4)
        for omega_z in (1e-12, 1.0, 1e12, 1e14):
            chi = resolvent_chi(baths.spin_model(bath, omega_z))
            closed = baths.closed_form_chi(bath, omega_z)
            want = baths.closed_form_chi0(bath, omega_z)
            assert abs(chi(0.0) - want) <= 1e-12 * abs(want), omega_z
            assert abs(chi(omega_z / 2) - closed(omega_z / 2)) <= 1e-12 * abs(want), omega_z
            for f in (chi, closed):
                for omega in (omega_z, -omega_z):
                    with pytest.raises(NonIntegrableTailError, match="evaluated at its resonance"):
                        f(omega)

    def test_strong_damping_matches_closed_form(self):
        # the trace row borders the solve at any scale of L; at 1e300 chi0 underflows to 0
        # in both
        for gamma in (1e17, 1e20, 1e100):
            bath = Generalized(gamma=gamma, t=0.5)
            want = baths.closed_form_chi0(bath, 1.0)
            got = resolvent_chi(baths.spin_model(bath, 1.0))(0.0)
            assert abs(got - want) <= 1e-12 * abs(want), gamma
        bath = Generalized(gamma=1e300, t=0.5)
        assert resolvent_chi(baths.spin_model(bath, 1.0))(0.0) == 0
        assert baths.closed_form_chi(bath, 1.0)(0.0) == 0


class TestCavityDet:
    def test_bare_cavity(self):
        assert cavity_det(0.0, CavityParams(1.2, 0.7), 0.0, -1.0) == 1.2**2 + 0.7**2

    def test_zero_frequency_reduction_is_exact(self):
        cavity = CavityParams(1.0, 0.4)
        chi0 = -1.3
        g = 0.55
        det = cavity_det(0.0, cavity, g, chi0)
        assert det == cavity.omega0**2 + cavity.kappa**2 + 2 * cavity.omega0 * g**2 * chi0

    def test_determinant_vanishes_at_gc(self):
        cavity = CavityParams(1.0, 0.4)
        chi0 = -1.3
        gc = solve_gc(chi0, cavity).g_c
        det = cavity_det(0.0, cavity, gc, chi0)
        assert abs(det) < 1e-8 * (cavity.omega0**2 + cavity.kappa**2)

    def test_unit_product_point(self):
        # omega0 = kappa = 1 and g^2 chi0 = -1 closes the determinant
        assert cavity_det(0.0, CavityParams(1.0, 1.0), 1.0, -1.0) == 0.0

    def test_matrix_determinant_consistency(self):
        # det of the particle/hole matrix M(omega) of the module docstring
        bath = Dephasing(gamma=0.3, sz=-0.5)
        series = series_for(bath)
        omega, cavity, g = 0.8, CavityParams(1.0, 0.2), 0.4
        chi = chi_from_correlator(series, omega)
        sigma = g**2 * chi
        w0, kap = cavity.omega0, cavity.kappa
        matrix = np.array(
            [
                [omega + 1j * kap - w0 - sigma, -sigma],
                [-sigma, -omega - 1j * kap - w0 - sigma],
            ]
        )
        assert np.linalg.det(matrix) == pytest.approx(cavity_det(omega, cavity, g, chi), rel=1e-12)

    @staticmethod
    def python_det(omega, cavity, g, chi):
        """The determinant in Python's complex arithmetic, one frequency at a time."""
        sigma = g**2 * chi
        if omega == 0.0:
            return cavity.omega0**2 + cavity.kappa**2 + 2.0 * cavity.omega0 * sigma
        return cavity.omega0**2 + 2.0 * cavity.omega0 * sigma - (omega + 1j * cavity.kappa) ** 2

    @pytest.mark.parametrize("kappa", [0.0, 0.37], ids=["kappa0", "kappa"])
    @pytest.mark.parametrize("points", [41, 40], ids=["odd", "even"])
    def test_broadcast_equals_scalar_calls_bitwise(self, points, kappa):
        # each grid holds omega = 0 and -0.0 (the exact reduction) and omega = +-kappa,
        # where Re (omega + i kappa)^2 is zero
        rng = np.random.default_rng(points)
        cavity, g = CavityParams(0.9, kappa), 0.45
        for scale in (1e-3, 1.0, 1e3):
            draws = scale * rng.uniform(-1.0, 1.0, points - 4)
            omegas = np.sort(np.concatenate([[0.0, -0.0, kappa, -kappa], draws]))
            for sign in (1.0, -1.0):
                chis = sign * (rng.uniform(0.0, 2.0, points) + 1j * rng.normal(size=points))
                pairs = list(zip(omegas.tolist(), chis.tolist()))
                scalar = [cavity_det(w, cavity, g, chi) for w, chi in pairs]
                assert all(type(det) is np.complex128 for det in scalar)
                reference = np.array([self.python_det(w, cavity, g, chi) for w, chi in pairs])
                dets = cavity_det(omegas, cavity, g, chis)
                assert dets.tobytes() == np.array(scalar).tobytes() == reference.tobytes()


class TestPolaritonRoots:
    # the roots of det(omega) are i lambda for eigenvalues lambda of the mean-field Jacobian
    def test_bare_poles(self):
        cavity = CavityParams(1.0, 0.25)
        model = baths.spin_model(Dephasing(gamma=0.3, sz=-0.5), 1.0)
        lams = np.linalg.eigvals(jacobian(cavity, model, 0.0))
        for pole in (-0.25 - 1j, -0.25 + 1j):
            lam = lams[np.argmin(np.abs(lams - pole))]
            assert abs(lam - pole) < 1e-12
            assert abs(cavity_det(1j * lam, cavity, 0.0, 0.0)) < 1e-12

    def test_root_crosses_origin_at_gc(self):
        # at g_c the soft eigenvalue joins the two conserved directions at 0
        bath = Dephasing(gamma=0.3, sz=-0.5)
        cavity = CavityParams(1.0, 0.2)
        model = baths.spin_model(bath, 1.0)
        gc = baths.closed_form_gc(bath, 1.0, cavity).g_c
        for g, zeros in ((0.97 * gc, 2), (gc, 3)):
            lams = np.linalg.eigvals(jacobian(cavity, model, g))
            assert np.sum(np.abs(lams) < 1e-8) == zeros

    def test_soft_root_below_threshold(self):
        bath = Dephasing(gamma=0.3, sz=-0.5)
        cavity = CavityParams(1.0, 0.2)
        model = baths.spin_model(bath, 1.0)
        gc = baths.closed_form_gc(bath, 1.0, cavity).g_c
        lams = np.linalg.eigvals(jacobian(cavity, model, 0.97 * gc))
        soft = min(lams[np.abs(lams) > 1e-8], key=abs)  # past the two conserved directions
        assert abs(soft) < 0.3
        assert soft.real < 0
        chi = baths.closed_form_chi(bath, 1.0)(1j * soft)
        assert abs(cavity_det(1j * soft, cavity, 0.97 * gc, chi)) < 1e-12
