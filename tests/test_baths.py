import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dicke_critic import baths, config
from dicke_critic.baths import (
    CavityParams,
    Custom,
    Dephasing,
    GcMode,
    Generalized,
    Thermal,
    bose_occupation,
    channels_of,
    closed_form_chi0,
    closed_form_gc,
    format_bath,
    parse_bath,
    steady_sz,
    transverse_rates,
)
from dicke_critic.critical import (
    NoTransition, NoTransitionReason, SweepPlan, Transition, fully_polarized_gc, sweep,
)
from dicke_critic.errors import (
    ConfigParseError,
    InvalidModelError,
    NoClosedFormError,
    PreconditionError,
)


class TestChannels:
    def test_thermal_zero_temperature(self):
        chans = channels_of(Thermal(gamma=0.3, temperature=0.0), 1.0)
        assert [c.rate for c in chans] == [0.3, 0.0]

    def test_thermal_ln2_occupation(self):
        # omega_z / T = ln 2 makes the Bose occupation exactly 1
        temp = 1.0 / math.log(2.0)
        chans = channels_of(Thermal(gamma=0.5, temperature=temp), 1.0)
        rates = [c.rate for c in chans]
        assert rates[0] == pytest.approx(1.0, rel=1e-12)
        assert rates[1] == pytest.approx(0.5, rel=1e-12)

    def test_generalized_t0_is_pure_decay(self):
        (chan,) = channels_of(Generalized(gamma=0.4, t=0.0), 1.0)
        assert np.array_equal(chan.op, np.array([[0, 0], [1, 0]], dtype=complex))

    def test_dephasing_channel(self):
        (chan,) = channels_of(Dephasing(gamma=0.2, sz=-0.1), 1.0)
        assert np.array_equal(chan.op, np.diag([0.5, -0.5]).astype(complex))
        assert chan.rate == 0.2

    def test_thermal_occupation_underflow_is_typed_error(self):
        # omega_z / T underflows to 0, so 1 / expm1(0) has no value, or to a subnormal, whose
        # 1 / expm1 overflows: the channels, chi0 and chi name that cause
        for temperature, omega_z, cause in ((1e300, 1e-300, "is undefined"),
                                            (1.0, 1e-310, "overflows the float range")):
            for route in (channels_of, closed_form_chi0, baths.closed_form_chi):
                with pytest.raises(PreconditionError, match=f"^thermal occupation {cause}"):
                    route(Thermal(gamma=0.1, temperature=temperature), omega_z)

    def test_negative_temperature_rejected(self):
        with pytest.raises(InvalidModelError):
            Thermal(gamma=0.1, temperature=-0.5)

    def test_t_above_one_rejected(self):
        with pytest.raises(InvalidModelError):
            Generalized(gamma=0.1, t=1.2)


class TestRatesAndPolarization:
    def test_effective_rate_examples(self):
        # the quoted gamma_eff is gamma_x; dephasing and thermal baths decay symmetrically
        assert transverse_rates(Dephasing(gamma=0.3, sz=-0.5), 1.0) == (0.3, 0.3)
        assert transverse_rates(Generalized(gamma=0.7, t=1.0), 1.0) == (0.0, 2.8)
        assert transverse_rates(Thermal(gamma=0.25, temperature=0.0), 1.0) == (0.25, 0.25)

    def test_thermal_rate_is_coth_enhanced(self):
        rate, same = transverse_rates(Thermal(gamma=0.1, temperature=0.5), 1.0)
        assert rate == same == pytest.approx(0.1 / math.tanh(1.0), rel=1e-12)

    def test_generalized_rates_are_asymmetric(self):
        gx, gy = transverse_rates(Generalized(gamma=0.2, t=0.4), 1.0)
        assert gx == pytest.approx(0.2 * 0.36, rel=1e-15)
        assert gy == pytest.approx(0.2 * 1.96, rel=1e-15)

    def test_steady_sz_examples(self):
        assert steady_sz(Generalized(gamma=0.3, t=1.0), 1.0) == 0.0
        assert steady_sz(Generalized(gamma=0.3, t=0.0), 1.0) == -0.5
        assert steady_sz(Thermal(gamma=0.1, temperature=1e6), 1.0) == pytest.approx(0.0, abs=1e-6)
        assert steady_sz(Dephasing(gamma=0.1, sz=0.21), 1.0) == 0.21

    def test_steady_sz_matches_null_space(self):
        # catalog values against the generator's null vector
        from dicke_critic.lindblad import steady_state

        for bath in (Thermal(gamma=0.17, temperature=0.6), Generalized(gamma=0.31, t=0.55)):
            model = baths.spin_model(bath, 1.0)
            assert steady_state(model).sz == pytest.approx(steady_sz(bath, 1.0), abs=1e-12)

    def test_custom_has_no_closed_form(self):
        from dicke_critic.qops import LindbladChannel, sigma

        custom = Custom(channels=(LindbladChannel(sigma("minus"), 0.1),))
        with pytest.raises(NoClosedFormError):
            transverse_rates(custom, 1.0)

    def test_bose_occupation_ln2(self):
        assert bose_occupation(math.log(2.0), 1.0) == pytest.approx(1.0, rel=1e-12)


class TestClosedFormGc:
    def test_equilibrium_point(self):
        result = closed_form_gc(Dephasing(gamma=0.0, sz=-0.5), 1.0, CavityParams(1.0, 0.0))
        assert isinstance(result, Transition)
        assert result.g_c == pytest.approx(0.5, rel=1e-14)

    def test_dephasing_with_rate(self):
        result = closed_form_gc(Dephasing(gamma=0.5, sz=-0.5), 1.0, CavityParams(1.0, 0.0))
        assert result.g_c == pytest.approx(0.5 * math.sqrt(1.25), rel=1e-12)

    def test_unpolarized_no_transition(self):
        result = closed_form_gc(Dephasing(gamma=0.2, sz=0.0), 1.0, CavityParams(1.0, 0.0))
        assert isinstance(result, NoTransition)
        assert result.reason is NoTransitionReason.UNPOLARIZED

    def test_generalized_t1_no_transition(self):
        result = closed_form_gc(Generalized(gamma=0.2, t=1.0), 1.0, CavityParams(1.0, 0.0))
        assert isinstance(result, NoTransition)
        assert result.reason is NoTransitionReason.UNPOLARIZED

    def test_inverted_population_no_transition(self):
        result = closed_form_gc(Dephasing(gamma=0.2, sz=0.3), 1.0, CavityParams(1.0, 0.0))
        assert isinstance(result, NoTransition)
        assert result.reason is NoTransitionReason.INVERTED

    def test_thermal_zero_temperature_with_kappa(self):
        # frozen from the closed form and confirmed by the mean-field oracle
        result = closed_form_gc(Thermal(gamma=0.1, temperature=0.0), 1.0, CavityParams(1.0, 1.0))
        assert result.g_c == pytest.approx(0.5 * math.sqrt(1.01 * 2.0), rel=1e-14)
        assert result.g_c == pytest.approx(0.7106335201775948, rel=1e-13)

    def test_modes_agree_for_dephasing_and_thermal(self):
        for bath in (Dephasing(gamma=0.4, sz=-0.35), Thermal(gamma=0.2, temperature=0.8)):
            sc = closed_form_chi0(bath, 1.0, GcMode.SELF_CONSISTENT)
            lit = closed_form_chi0(bath, 1.0, GcMode.LITERATURE)
            assert sc == lit

    def test_modes_differ_for_generalized(self):
        bath = Generalized(gamma=0.5, t=0.5)
        sc = closed_form_chi0(bath, 1.0, GcMode.SELF_CONSISTENT)
        lit = closed_form_chi0(bath, 1.0, GcMode.LITERATURE)
        assert sc != lit
        # quoted denominator gamma^2 (1-t)^2; exact carries gamma^2 (1-t^2)^2
        sz = steady_sz(bath, 1.0)
        assert lit == pytest.approx(4 * sz / (1 + 0.25 * 0.25), rel=1e-14)
        assert sc == pytest.approx(4 * sz / (1 + 0.25 * 0.5625), rel=1e-14)

    def test_fully_polarized_limit(self):
        # t = 0: g_c/g_0 = sqrt(1 + gamma^2/omega_z^2)
        from dicke_critic.critical import fully_polarized_gc

        for gamma in (0.1, 0.4, 0.9):
            cavity = CavityParams(1.3, 0.6)
            result = closed_form_gc(Generalized(gamma=gamma, t=0.0), 1.0, cavity)
            ratio = result.g_c / fully_polarized_gc(1.0, cavity)
            assert ratio == pytest.approx(math.sqrt(1 + gamma**2), rel=1e-12)

    def test_equilibrium_thermal_relation(self):
        # gamma_T -> 0, kappa -> 0 reduces to tanh(wz/2T) = wz w0 / (4 gc^2)
        wz, w0, temp = 1.0, 1.4, 0.8
        result = closed_form_gc(
            Thermal(gamma=1e-12, temperature=temp), wz, CavityParams(w0, 0.0)
        )
        assert math.tanh(wz / (2 * temp)) == pytest.approx(
            wz * w0 / (4 * result.g_c**2), rel=1e-10
        )

    def test_thermal_monotone_in_temperature(self):
        temps = np.linspace(0.05, 3.0, 40)
        gcs = [
            closed_form_gc(Thermal(gamma=0.2, temperature=t), 1.0, CavityParams(1.0, 0.3)).g_c
            for t in temps
        ]
        assert all(a < b for a, b in zip(gcs, gcs[1:]))

    def test_generalized_curves_by_mode(self):
        # the familiar dip-then-diverge curve is a property of the quoted
        # (symmetric-decay) form; the exact form is monotone in t for
        # gamma <= (3 sqrt(3)/2) wz ~= 2.598 wz, which includes gamma = 0.5
        cavity = CavityParams(1.0, 0.0)
        ts = np.linspace(0.0, 0.99, 100)

        def curve(mode):
            return np.array([
                closed_form_gc(Generalized(gamma=0.5, t=float(t)), 1.0, cavity, mode).g_c
                for t in ts
            ])

        quoted = curve(GcMode.LITERATURE)
        exact = curve(GcMode.SELF_CONSISTENT)
        q_min = int(np.argmin(quoted))
        assert quoted[1] < quoted[0]                     # initial dip
        assert 0 < q_min < ts.size - 1                   # interior minimum
        assert quoted[-1] > 5 * quoted[0]                # divergence toward t = 1
        assert all(a <= b + 1e-12 for a, b in zip(exact, exact[1:]))  # monotone
        assert exact[-1] > 5 * exact[0]


    def test_singular_points_are_typed_errors(self):
        # chi0 = 0/0 at omega_z = 0 without transverse decay; omega0**2 beyond float range
        for bath in (Dephasing(gamma=0.0, sz=-0.5), Generalized(gamma=0.1, t=1.0)):
            with pytest.raises(PreconditionError, match="chi0"):
                closed_form_chi0(bath, 0.0)
        with pytest.raises(PreconditionError, match="g_c"):
            closed_form_gc(Thermal(gamma=0.1, temperature=0.5), 1.0, CavityParams(1e200, 0.0))
        with pytest.raises(PreconditionError, match="g0"):
            fully_polarized_gc(1.0, CavityParams(1e200, 0.0))
        # chi(omega): omega_z^2 beyond float range; chi itself beyond it at a denormal rate
        with pytest.raises(PreconditionError, match="chi overflows the float range"):
            baths.closed_form_chi(Thermal(gamma=0.1, temperature=0.5), 1e200)
        chi = baths.closed_form_chi(Dephasing(gamma=5e-324, sz=-0.5), 1.0)
        with pytest.raises(PreconditionError, match="chi leaves the float range at omega = -1.0"):
            chi(np.array([0.5, -1.0]))

    def test_closed_forms_are_exactly_scale_covariant(self):
        # every frequency times 2^k: chi0 times 2^-k, g_c and g0 times 2^k, bit for bit, since
        # + - * / and sqrt, squares included, are correctly rounded; first a point where a
        # square by libm pow once missed by an ulp
        rng = np.random.default_rng(42)
        points = [(Dephasing(gamma=0.00719881469620615, sz=0.26220531522940793),
                   2.927607358514831, CavityParams(1.0, 0.5), -5)]
        for i in range(3000):
            gamma, omega_z = 10.0 ** rng.uniform(-3, 2), 10.0 ** rng.uniform(-2, 2)
            bath = (Dephasing(gamma, rng.uniform(-0.5, 0.5)),
                    Thermal(gamma, 10.0 ** rng.uniform(-2, 2)),
                    Generalized(gamma, rng.uniform(0, 1)))[i % 3]
            kappa = 10.0 ** rng.uniform(-2, 1) if i % 2 else 0.0
            cavity = CavityParams(10.0 ** rng.uniform(-1, 1), kappa)
            points.append((bath, omega_z, cavity, int(rng.integers(-60, 60))))

        def scaled(bath, omega_z, cavity, k):
            fields = {name: math.ldexp(getattr(bath, name), k)
                      for name in ("gamma", "temperature") if hasattr(bath, name)}
            return (dataclasses.replace(bath, **fields), math.ldexp(omega_z, k),
                    CavityParams(math.ldexp(cavity.omega0, k), math.ldexp(cavity.kappa, k)))

        for bath, omega_z, cavity, k in points:
            big = scaled(bath, omega_z, cavity, k)
            assert closed_form_chi0(*big[:2]) == math.ldexp(closed_form_chi0(bath, omega_z), -k)
            result, big_result = closed_form_gc(bath, omega_z, cavity), closed_form_gc(*big)
            if isinstance(result, Transition):
                assert big_result.g_c == math.ldexp(result.g_c, k), (bath, omega_z, cavity, k)
            else:
                assert big_result == result, (bath, omega_z, cavity, k)
            g0 = fully_polarized_gc(omega_z, cavity)
            assert fully_polarized_gc(*big[1:]) == math.ldexp(g0, k), (bath, omega_z, cavity, k)

    def test_square_past_the_float_range_is_a_typed_error(self):
        # a square past the float range is inf, not an exception: each closed form checks its
        # squares, so the point is a typed error rather than chi0 = -0.0, an unpolarized verdict
        overflow = "chi0 overflows the float range"
        with pytest.raises(PreconditionError, match=f"^{overflow}$"):
            closed_form_chi0(Thermal(gamma=0.1, temperature=0.5), 1e200)
        with pytest.raises(PreconditionError, match=f"^{overflow}$"):
            closed_form_chi0(Generalized(gamma=1e200, t=1.0), 1.0, GcMode.LITERATURE)
        plan = SweepPlan(Thermal(gamma=0.1, temperature=0.5), 1.0, CavityParams(1.0, 0.0),
                         "omega_z", (1.0, 1e200))
        with pytest.raises(PreconditionError, match=f"^row 1, omega_z = 1e\\+200: {overflow}$"):
            sweep(plan)
        # a sum of squares past the float range names g_c, where it once gave g_c = nan
        with pytest.raises(PreconditionError, match="^g_c overflows the float range$"):
            closed_form_gc(Dephasing(gamma=0.0, sz=-0.3), 1e-160, CavityParams(1e154, 1e154))

    def test_chi_at_zero_frequency_is_chi0(self):
        # bit for bit, at 2100 seeded points of the three families: a complex division
        # there misses the real one by an ulp at about a quarter of them
        rng = np.random.default_rng(38)
        for i in range(2100):
            gamma, omega_z = 10.0 ** rng.uniform(-3, 2), 10.0 ** rng.uniform(-2, 2)
            bath = (Dephasing(gamma, rng.uniform(-0.5, 0.5)),
                    Thermal(gamma, 10.0 ** rng.uniform(-2, 2)),
                    Generalized(gamma, rng.uniform(0, 1)))[i % 3]
            chi = baths.closed_form_chi(bath, omega_z)(0.0)
            assert chi.imag == 0 and chi.real == closed_form_chi0(bath, omega_z), (bath, omega_z)


class TestTextualForm:
    def test_parse_examples(self):
        assert parse_bath("dephasing(gamma=0.3, sz=-0.5)") == Dephasing(gamma=0.3, sz=-0.5)
        assert parse_bath("thermal(gamma=0.1, T=0.5)") == Thermal(gamma=0.1, temperature=0.5)
        assert parse_bath("generalized(gamma=0.2, t=0.4)") == Generalized(gamma=0.2, t=0.4)

    def test_parse_is_whitespace_tolerant(self):
        assert parse_bath("  thermal( T = 0.5 , gamma = 0.1 )") == Thermal(0.1, 0.5)

    @given(
        gamma=st.floats(min_value=1e-6, max_value=1e3),
        t=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, gamma, t):
        bath = Generalized(gamma=gamma, t=t)
        assert parse_bath(format_bath(bath)) == bath

    @pytest.mark.parametrize("text", [
        "squeezed(gamma=0.1)",
        "thermal(gamma=0.1)",
        "thermal(gamma=0.1, T=0.5",
        "thermal(gamma=0.1, T=abc)",
        "thermal(gamma=0.1, T=0.5, T=0.6)",
        "thermal(gamma=0.1, q=0.5)",
        "thermal(gamma=0.1, T=-2)",
        "",
    ])
    def test_parse_errors_are_typed(self, text):
        with pytest.raises(ConfigParseError):
            parse_bath(text)

    def test_parse_error_carries_position(self):
        # a config line adds its line; the column points into the value
        with pytest.raises(ConfigParseError) as err:
            config.coerce("bath", "thermal(gamma=0.1, q=0.5)", line=7, column=8)
        assert err.value.line == 7
        assert err.value.column == 27  # "q" is character 20 of a value at column 8
