import re

import numpy as np
import pytest

from dicke_critic import baths, lindblad, meanfield, qops
from dicke_critic.baths import CavityParams, Dephasing, Generalized, Thermal
from dicke_critic.critical import agreement
from dicke_critic.errors import DegenerateSteadyStateError, NoThresholdError, PreconditionError
from dicke_critic.lindblad import steady_state
from dicke_critic.meanfield import growth_rate, jacobian, stability_threshold, superradiant_state
from dicke_critic.cli import ORACLE_SUITE
from dicke_critic.response import resolvent_chi

CAVITY = CavityParams(omega0=1.0, kappa=0.5)
SX = qops.sigma("x")


def model_for(bath, omega_z=1.0):
    return baths.spin_model(bath, omega_z)


def flow(cavity, model, g, alpha, rho):
    """(d alpha/dt, d rho/dt), the mean-field equations written out as the meanfield
    docstring states them, with rho as a 2x2 matrix."""
    h = 2.0 * g * (alpha + np.conj(alpha))
    d_alpha = -(1j * cavity.omega0 + cavity.kappa) * alpha - 2j * g * np.trace(SX @ rho)
    d_rho = qops.devectorize(model.generator() @ qops.vectorize(rho))
    d_rho -= 1j * h * (SX @ rho - rho @ SX)
    return d_alpha, d_rho


def sx_in_field(model, h):
    """<sx> and <sz> in the steady state of the atom in the static field h sx."""
    rho = qops.devectorize(meanfield._field_state(model, h))
    return np.trace(SX @ rho).real, np.trace(qops.sigma("z") @ rho).real


def test_field_state_is_the_trace_row_solve_bitwise():
    # L + h D with the trace row in place of row 0, solved for the unit vector, on 240
    # seeded (model, h) points of the three families
    rng = np.random.default_rng(39)
    drive = qops.hamiltonian_superop(SX)
    for i in range(240):
        gamma, omega_z = 10 ** rng.uniform(-3, 1), rng.uniform(0.1, 3.0)
        bath = (Thermal(gamma, rng.uniform(0.0, 2.0)), Generalized(gamma, rng.uniform(0.0, 1.0)),
                Dephasing(gamma, rng.uniform(-0.5, 0.5)))[i % 3]
        model, h = model_for(bath, omega_z), rng.normal() * 10 ** rng.uniform(-3, 1)
        m = model.generator() + h * drive
        m[0] = qops.trace_functional(2)
        want = np.linalg.solve(m, np.eye(4)[0])
        assert meanfield._field_state(model, h).tobytes() == want.tobytes(), (bath, h)


def gc_of(bath, cavity=CAVITY):
    return baths.closed_form_gc(bath, 1.0, cavity).g_c


def normal_top(model, g):
    """The top eigenvalue of the Jacobian at the normal state, the conserved trace left out."""
    return meanfield._top_mode(*meanfield._deflate(jacobian(CAVITY, model, g)))[0]


class TestDerivative:
    @pytest.mark.parametrize("bath", [
        Dephasing(gamma=0.3, sz=-0.5),
        Thermal(gamma=0.1, temperature=0.5),
        Generalized(gamma=0.2, t=0.4),
    ])
    def test_normal_state_is_fixed_point(self, bath):
        model = model_for(bath)
        d_alpha, d_rho = flow(CAVITY, model, 0.8, 0.0, steady_state(model).rho)
        assert abs(d_alpha) < 1e-12
        assert np.max(np.abs(d_rho)) < 1e-12

    def test_decoupled_cavity_decay(self):
        # at g = 0 the amplitudes decay at -(i omega0 + kappa) and its conjugate, apart from
        # the atom
        jac = jacobian(CAVITY, model_for(Generalized(gamma=0.2, t=0.0)), 0.0)
        decay = -(1j * CAVITY.omega0 + CAVITY.kappa)
        assert np.array_equal(jac[:2, :2], np.diag([decay, np.conj(decay)]))
        assert not jac[:2, 2:].any() and not jac[2:, :2].any()

    def test_drive_term_scales_with_alpha(self):
        # the drive of alpha* holds rho* at the branch; without it rho* is not stationary
        model = model_for(Generalized(gamma=0.2, t=0.0))
        g = 1.5 * gc_of(Generalized(gamma=0.2, t=0.0))
        state = superradiant_state(CAVITY, model, g)
        d_alpha, d_rho = flow(CAVITY, model, g, state.alpha, state.rho)
        assert abs(d_alpha) < 1e-12 and np.max(np.abs(d_rho)) < 1e-12
        assert np.max(np.abs(flow(CAVITY, model, g, 0.0, state.rho)[1])) > 1e-2


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
            point = agreement(baths.parse_bath(text), 1.0, CavityParams(1.0, kappa),
                              routes=("mean_field",))
            gc, g_star = (result.g_c for result in point.results.values())
            assert abs(g_star - gc) / gc <= 2e-15, text

    @pytest.mark.parametrize("bath", [Dephasing(gamma=0.0, sz=-0.5), Thermal(0.1, 0.5)])
    def test_far_apart_scales(self, bath):
        # omega0 = 1e-6 and omega_z = 1e6: the growth rate at 2.5 g_c is 2.29e-6, far
        # below max(omega0, omega_z), and the exact root needs no scale to compare it to
        point = agreement(bath, 1e6, CavityParams(1e-6, 0.0), routes=("mean_field",))
        gc, g_star = (result.g_c for result in point.results.values())
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
    """What the flow does from a seed state, read off its fixed points."""

    BATH = Generalized(gamma=0.2, t=0.0)

    def test_below_threshold_decays(self):
        # no branch, and the normal state is stable: every seed decays to it; growth_rate
        # reads its decay rate, not the 0 of the conserved trace
        for bath in (self.BATH, Thermal(0.1, 0.5), Dephasing(0.3, -0.5)):
            model, g = model_for(bath), 0.5 * gc_of(bath)
            with pytest.raises(NoThresholdError):
                superradiant_state(CAVITY, model, g)
            top = normal_top(model, g).real
            assert top < 0 and growth_rate(CAVITY, model, g) == pytest.approx(top, rel=1e-12)

    def test_above_threshold_saturates(self):
        # |alpha| where an adaptive RK45 run (rtol = atol = 1e-10) of the flow from
        # alpha = 1e-3, duration 400 and dt 0.5, saturated at 1.5 g_c; bound fixed beforehand
        for bath, alpha in ((self.BATH, 0.527046276796352),
                            (Thermal(gamma=0.1, temperature=0.5), 0.459949923473376)):
            model, g = model_for(bath), 1.5 * gc_of(bath)
            state = superradiant_state(CAVITY, model, g)
            assert abs(abs(state.alpha) / alpha - 1) < 1e-9, bath
            assert state.top_eigenvalue.real < 0
            again = superradiant_state(CAVITY, model, g)
            assert again.alpha == state.alpha and again.rho.tobytes() == state.rho.tobytes()

    def test_zero_seed_stays_symmetric(self):
        # above g_c the normal state is still a fixed point, but an unstable one
        model, g = model_for(self.BATH), 1.5 * gc_of(self.BATH)
        d_alpha, d_rho = flow(CAVITY, model, g, 0.0, steady_state(model).rho)
        assert d_alpha == 0 and np.max(np.abs(d_rho)) < 1e-12
        assert normal_top(model, g).real > 0

    def test_z2_mirror_trajectories(self):
        # -h* is a root of F too, with <sx> mirrored and <sz> kept
        model, g = model_for(self.BATH), 1.3 * gc_of(self.BATH)
        state = superradiant_state(CAVITY, model, g)
        h = 4.0 * g * state.alpha.real
        k = 8.0 * g**2 * CAVITY.omega0 / (CAVITY.omega0**2 + CAVITY.kappa**2)
        (sx_plus, sz_plus), (sx_minus, sz_minus) = sx_in_field(model, h), sx_in_field(model, -h)
        assert h > 0 and sx_plus < 0
        assert abs(h + k * sx_plus) < 1e-12 and abs(-h + k * sx_minus) < 1e-12
        assert abs(sx_plus + sx_minus) < 1e-15 and abs(sz_plus - sz_minus) < 1e-15

    def test_trace_and_positivity_preserved(self):
        bath = Thermal(gamma=0.1, temperature=0.5)
        rho = superradiant_state(CAVITY, model_for(bath), 1.2 * gc_of(bath)).rho
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
        assert np.min(np.linalg.eigvalsh(rho)) > 0


# a point of each catalog family with a branch (dephasing has none), at kappa = 0.5
BRANCHED = [Thermal(0.1, 0.2), Thermal(0.1, 0.5), Thermal(0.3, 1.0), Generalized(0.2, 0.0),
            Generalized(0.2, 0.4), Generalized(0.5, 0.2), Generalized(0.3, 0.7)]


class TestSuperradiantBranch:
    @staticmethod
    def roots(model, g):
        """Sign changes of F on 400 points across its bracket (1e-8 K/2, (1 + 1e-9) K/2]."""
        k = 8.0 * g**2 * CAVITY.omega0 / (CAVITY.omega0**2 + CAVITY.kappa**2)
        hs = np.geomspace(1e-8 * k / 2, (1 + 1e-9) * k / 2, 400)
        f = np.array([h + k * sx_in_field(model, h)[0] for h in hs])
        return int(np.count_nonzero(np.diff(np.sign(f))))

    @pytest.mark.parametrize("bath", BRANCHED)
    def test_pitchfork_is_supercritical(self, bath):
        # no root just below g_c, and one stable root just above it
        model, gc = model_for(bath), gc_of(bath)
        assert self.roots(model, 0.97 * gc) == 0
        with pytest.raises(NoThresholdError):
            superradiant_state(CAVITY, model, 0.97 * gc)
        assert self.roots(model, 1.03 * gc) == 1
        assert superradiant_state(CAVITY, model, 1.03 * gc).top_eigenvalue.real < 0

    @pytest.mark.parametrize("bath", BRANCHED)
    def test_gc_from_the_branch(self, bath):
        # |alpha*|^2 vanishes linearly at g_c: extrapolated from two couplings just above,
        # it meets the closed form within 1e-6 (bound fixed beforehand)
        model, gc = model_for(bath), gc_of(bath)
        g1, g2 = (1 + 1e-4) * gc, (1 + 2e-4) * gc
        a1, a2 = (abs(superradiant_state(CAVITY, model, g).alpha) ** 2 for g in (g1, g2))
        assert abs((g1 - a1 * (g2 - g1) / (a2 - a1)) / gc - 1) < 1e-6

    def test_no_branch_is_a_typed_error(self):
        # pure dephasing: <sx>(h) = 0, so F(h) = h keeps its sign; without dissipation
        # the atom in a field has no unique steady state; below the smallest normal float
        # omega0^2 + kappa^2 has lost its digits, and K = 8 g^2 omega0 / (omega0^2 + kappa^2)
        # with it
        no_branch = "no superradiant fixed point at g = {g!r}: "
        underflow = r"^K is undefined: omega0\^2 \+ kappa\^2 underflows"
        for gamma, cavity, error, cause in (
            (0.3, CAVITY, NoThresholdError, no_branch),
            (0.0, CAVITY, DegenerateSteadyStateError, no_branch),
            (0.3, CavityParams(1e-170, 1e-170), PreconditionError, underflow),
            (0.3, CavityParams(1e-160, 0.0), PreconditionError, underflow),
        ):
            bath = Dephasing(gamma=gamma, sz=-0.5)
            g = 1.5 * gc_of(bath)
            with pytest.raises(error, match=cause.format(g=g)):
                superradiant_state(cavity, model_for(bath), g)
        # a decay rate below the zero-mode rule: steady_state finds null dimension 2, and so
        # does the atom in the field
        weak = lindblad.SpinModel(1.0, (qops.LindbladChannel(qops.sigma("minus"), 1e-14),))
        with pytest.raises(DegenerateSteadyStateError, match="null dimension 2"):
            lindblad.steady_state(weak)
        with pytest.raises(DegenerateSteadyStateError,
                           match=re.escape(no_branch.format(g=2.0)) + ".*null dimension 2"):
            superradiant_state(CavityParams(1.0, 0.5), weak, 2.0)
