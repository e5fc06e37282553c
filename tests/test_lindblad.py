import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from dicke_critic import baths, qops
from dicke_critic.baths import Dephasing, Generalized, Thermal
from dicke_critic import lindblad
from dicke_critic.errors import DegenerateSteadyStateError, InvalidModelError, PreconditionError
from dicke_critic.lindblad import SpinModel, steady_state, two_time_sx


def model_for(bath, omega_z=1.0):
    return baths.spin_model(bath, omega_z)


def closed_form_sx(ts, gamma, omega_z, sz):
    return 0.25 * np.exp(-gamma * ts) * (np.cos(omega_z * ts) - 2j * sz * np.sin(omega_z * ts))


class TestGenerator:
    def test_built_once_and_read_only(self):
        model = model_for(Thermal(gamma=0.1, temperature=0.5))
        gen = model.generator()
        assert model.generator() is gen
        with pytest.raises(ValueError):
            gen[0, 0] = 1.0

    @pytest.mark.parametrize("bath", [
        Dephasing(gamma=0.3, sz=-0.4),
        Thermal(gamma=0.1, temperature=0.5),
        Generalized(gamma=0.2, t=0.4),
    ], ids=["dephasing", "thermal", "generalized"])
    def test_cached_generator_is_a_fresh_build(self, bath):
        model = model_for(bath, 1.3)
        fresh = qops.lindblad_generator(model.hamiltonian(), model.channels)
        assert model.generator().dtype == fresh.dtype
        assert model.generator().tobytes() == fresh.tobytes()


class TestSteadyState:
    def test_thermal_polarization(self):
        for temp in (0.2, 0.5, 1.0, 3.0):
            ss = steady_state(model_for(Thermal(gamma=0.1, temperature=temp)))
            assert ss.null_dim == 1
            assert ss.sz == pytest.approx(-0.5 * np.tanh(1.0 / (2 * temp)), abs=1e-12)

    def test_generalized_polarization(self):
        for t in (0.0, 0.3, 0.7, 1.0):
            ss = steady_state(model_for(Generalized(gamma=0.2, t=t)))
            assert ss.sz == pytest.approx(-0.5 * (1 - t**2) / (1 + t**2), abs=1e-12)

    def test_generalized_t1_unpolarized(self):
        assert steady_state(model_for(Generalized(gamma=0.2, t=1.0))).sz == pytest.approx(0.0, abs=1e-12)

    def test_dephasing_is_degenerate(self):
        ss = steady_state(model_for(Dephasing(gamma=0.3, sz=-0.4)))
        assert ss.null_dim == 2
        assert ss.degenerate
        assert ss.sz == pytest.approx(-0.4, abs=1e-15)

    @pytest.mark.parametrize("gamma", [3e-10, 1e-12])
    def test_weak_damping_is_unique(self, gamma):
        # every rate lies above RESONANCE_TOL of the spectral scale: one null mode
        for bath in (Thermal(gamma=gamma, temperature=0.5), Generalized(gamma=gamma, t=0.3)):
            ss = steady_state(model_for(bath))
            assert ss.null_dim == 1
            assert abs(ss.sz - baths.steady_sz(bath, 1.0)) <= 1e-12

    def test_degenerate_without_designation_raises(self):
        # two null modes at any rate: dephasing; a Hermitian channel without a field, which
        # conserves the spin along its axis, at rates of 0.7, 7e8 and 7e-13; no channel at all
        axis = 0.6 * qops.sigma("x") + 0.8 * qops.sigma("y")
        for model in (
            SpinModel(omega_z=1.0, channels=baths.channels_of(Dephasing(0.3, -0.4), 1.0)),
            *(SpinModel(0.0, (qops.LindbladChannel(axis, rate),)) for rate in (0.7, 7e8, 7e-13)),
            SpinModel(omega_z=1.0),
        ):
            with pytest.raises(DegenerateSteadyStateError, match=r"\(null dimension 2\)"):
                steady_state(model)

    def test_designated_state_must_be_stationary(self):
        # the Hermitian channel keeps the spin along its axis, not along z: a designated
        # diagonal state is not stationary, at a rate of 0.7 and at 0.7e-12 alike
        axis = 0.6 * qops.sigma("x") + 0.8 * qops.sigma("y")
        for rate in (0.7, 0.7e-12):
            model = SpinModel(0.0, (qops.LindbladChannel(axis, rate),), initial_sz=-0.4)
            with pytest.raises(InvalidModelError, match="designated diagonal state is not"):
                steady_state(model)


class TestPropagate:
    def test_dephasing_coherence_phase(self):
        gphi, wz, t = 0.3, 1.2, 2.5
        model = model_for(Dephasing(gamma=gphi, sz=0.0), omega_z=wz)
        rho0 = np.array([[0.5, 0.2 + 0.1j], [0.2 - 0.1j, 0.5]], dtype=complex)
        prop = scipy.linalg.expm(model.generator() * t)
        rho_t = qops.devectorize(prop @ qops.vectorize(rho0))
        expected01 = (0.2 + 0.1j) * np.exp((-gphi - 1j * wz) * t)
        assert abs(rho_t[0, 1] - expected01) < 1e-12
        assert abs(np.trace(rho_t) - 1.0) < 1e-12

    def test_long_time_reaches_steady_state(self):
        model = model_for(Thermal(gamma=0.2, temperature=0.5))
        rho0 = np.array([[1.0, 0], [0, 0]], dtype=complex)
        prop = scipy.linalg.expm(model.generator() * (50.0 / 0.2))
        rho_inf = qops.devectorize(prop @ qops.vectorize(rho0))
        assert np.max(np.abs(rho_inf - steady_state(model).rho)) < 1e-10


class TestExpm:
    """The numpy propagator against closed forms and against scipy.linalg.expm as an oracle."""

    @pytest.mark.parametrize("lam", [0.0, -0.3 + 0.7j, -3.0 + 2.0j])
    def test_jordan_block_closed_form(self, lam):
        # lam I + N is defective, as L is at the exceptional point 2 t gamma = omega_z
        nil = np.eye(4, k=1)
        expected = np.exp(lam) * (np.eye(4) + nil + nil @ nil / 2 + nil @ nil @ nil / 6)
        got = lindblad._expm(lam * np.eye(4) + nil)
        assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))

    def test_zero_matrix_is_identity(self):
        # the step of a one-sample grid is dt = 0
        assert np.array_equal(lindblad._expm(np.zeros((4, 4), dtype=complex)), np.eye(4))

    @pytest.mark.parametrize("dim", [4, 16, 144])
    def test_matches_scipy_expm(self, dim):
        rng = np.random.default_rng(dim)
        for norm in (1e-8, 1e-4, 1e-2, 0.5, 1.0, 10.0, 1e2):
            a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            a *= norm / np.max(np.sum(np.abs(a), axis=0))
            expected = scipy.linalg.expm(a)
            err = np.max(np.abs(lindblad._expm(a) - expected))
            assert err <= 1e-12 * np.max(np.abs(expected)), (norm, err)

    def test_weak_dephasing_keeps_roundoff(self):
        # 366,669 steps of one propagator; 3.6e-14 is what scipy's expm reaches here
        model = model_for(Dephasing(gamma=3e-3, sz=-0.5))
        series = two_time_sx(model, steady_state(model).rho)
        assert series.times.size == 366_669
        expected = 0.25 * np.exp(-3e-3 * series.times) * np.exp(1j * series.times)
        assert np.max(np.abs(series.values - expected)) <= 3.6e-14


class TestStep:
    """The chain of squarings against a plain loop row . P^k s, one product per step."""

    @pytest.mark.parametrize("bath", [Thermal(gamma=0.1, temperature=0.5),
                                      Generalized(gamma=1.0, t=0.5)],
                             ids=["thermal", "exceptional_point"])
    def test_matches_sequential_loop(self, bath):
        gen = model_for(bath).generator()
        rng = np.random.default_rng(23)
        starts = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        row = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        dt = 0.02
        prop = lindblad._expm(gen * dt)
        scale = np.abs(row).sum() * np.abs(starts).sum(axis=0).max()
        for n in (1, 2, 3, 4, 5, 15, 16, 17, 64, 65, 1000, 4097):
            samples, end = lindblad._step(gen, starts, row, dt, n)
            want = np.empty((n, 2), dtype=complex)
            state = starts
            for k in range(n):
                if k:
                    state = prop @ state
                want[k] = row @ state
            # worst-case rounding of the n products of the loop, 8 u each
            bound = 8 * n * lindblad._UNIT_ROUNDOFF * scale
            assert samples.shape == (n, 2) and end.shape == (4, 2)
            assert np.max(np.abs(samples - want)) <= bound, n
            assert np.max(np.abs(end - state)) <= bound, n

    def test_long_window_peak_memory(self):
        # 1,100,001 samples; the O(sqrt n) blocks this chain replaced peaked at 84 MiB traced
        model = model_for(Dephasing(gamma=1e-3, sz=-0.5))
        rho = steady_state(model).rho
        tracemalloc.start()
        try:
            series = two_time_sx(model, rho)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert series.times.size == 1_100_001
        assert peak <= 84 * 2**20


class TestTwoTimeCorrelator:
    def test_starts_at_one_quarter(self):
        model = model_for(Thermal(gamma=0.1, temperature=0.5))
        series = two_time_sx(model, steady_state(model).rho)
        assert series.values[0] == pytest.approx(0.25, abs=1e-12)

    def test_dephasing_closed_form_grid(self):
        # regression theorem vs analytic solution over a parameter grid
        for gphi in (0.1, 0.35, 0.6):
            for wz in (0.5, 1.0, 2.0):
                model = model_for(Dephasing(gamma=gphi, sz=-0.5), omega_z=wz)
                series = two_time_sx(model, steady_state(model).rho)
                expected = closed_form_sx(series.times, gphi, wz, -0.5)
                assert np.max(np.abs(series.values - expected)) < 1e-10

    def test_undamped_unpolarized_is_pure_cosine(self):
        # no damped mode: the samples span the 12-period display window
        model = model_for(Dephasing(gamma=0.0, sz=0.0), omega_z=1.0)
        series = two_time_sx(model, steady_state(model).rho)
        assert series.times[-1] == pytest.approx(12 * 2 * np.pi, rel=1e-14)
        vals = series.values
        assert np.max(np.abs(vals - 0.25 * np.cos(series.times))) < 1e-12
        assert np.max(np.abs(np.imag(vals))) < 1e-15

    def test_thermal_envelope_rate(self):
        # both transverse components decay at (1 + 2n) gamma, at frequency omega_z
        gamma_t, temp = 0.1, 0.5
        model = model_for(Thermal(gamma=gamma_t, temperature=temp))
        series = two_time_sx(model, steady_state(model).rho)
        n = baths.bose_occupation(1.0, temp)
        sz = -0.5 * np.tanh(1.0 / (2 * temp))
        expected = closed_form_sx(series.times, (1 + 2 * n) * gamma_t, 1.0, sz)
        assert np.max(np.abs(series.values - expected)) < 1e-12

    def test_generalized_coherence_modes(self, transverse_sx):
        # the two transverse components decay at gamma(1-t)^2 and gamma(1+t)^2,
        # so the correlator oscillates at a shifted frequency and its envelope
        # decays at their mean gamma(1+t^2)
        gamma, t, wz = 0.2, 0.4, 1.0
        bath = Generalized(gamma=gamma, t=t)
        model = model_for(bath, omega_z=wz)
        series = two_time_sx(model, steady_state(model).rho)
        assert np.max(np.abs(series.values - transverse_sx(bath, wz, series.times))) < 1e-12
        shifted = np.sqrt(wz**2 - 4 * t**2 * gamma**2)
        lams = np.linalg.eigvals(model.generator())
        for lam in (-gamma * (1 + t**2) + 1j * shifted, -gamma * (1 + t**2) - 1j * shifted):
            assert np.min(np.abs(lams - lam)) < 1e-12

    def test_norm_bound_and_peak_envelope(self):
        model = model_for(Dephasing(gamma=0.15, sz=-0.3))
        series = two_time_sx(model, steady_state(model).rho)
        mags = np.abs(series.values)
        assert np.max(mags) <= 0.25 + 1e-12
        # peak amplitude per oscillation period is non-increasing
        per = int(round(2 * np.pi / series.dt))
        peaks = [mags[i: i + per].max() for i in range(0, mags.size - per, per)]
        assert all(a >= b - 1e-12 for a, b in zip(peaks, peaks[1:]))

    def test_dt_precondition(self):
        model = model_for(Dephasing(gamma=0.3, sz=-0.5))
        rho = steady_state(model).rho
        with pytest.raises(PreconditionError):
            two_time_sx(model, rho, dt=0.5)  # > 0.1 * min(1/wz, 1/gamma)

    def test_tmax_precondition(self):
        model = model_for(Dephasing(gamma=0.3, sz=-0.5))
        rho = steady_state(model).rho
        with pytest.raises(PreconditionError):
            two_time_sx(model, rho, tmax=12.0 / 0.3)  # envelope ~ 6e-6 > 1e-10

    @pytest.mark.filterwarnings("error")
    def test_nonpositive_tmax_is_typed_error(self):
        # named as dt is, undamped or damped, before any window is sampled
        for bath in (Dephasing(gamma=0.0, sz=-0.5), Dephasing(gamma=0.3, sz=-0.5)):
            model = model_for(bath)
            for tmax in (-1.0, 0.0):
                with pytest.raises(PreconditionError, match=f"tmax = {tmax} must be positive"):
                    two_time_sx(model, steady_state(model).rho, tmax=tmax)

    def test_exceptional_point_matches_closed_form(self, transverse_sx):
        # 2 t gamma = omega_z: the two transverse modes merge at -gamma (1 + t^2)
        # and the generator is defective; S_x picks up a secular term
        for gamma, t in ((1.0, 0.5), (2.0, 0.25), (0.5, 1.0)):
            bath = Generalized(gamma=gamma, t=t)
            model = model_for(bath)
            series = two_time_sx(model, steady_state(model).rho)
            ts, sz = series.times, baths.steady_sz(bath, 1.0)
            expected = np.exp(-gamma * (1 + t**2) * ts) * (0.25 + ts * (0.25 - 0.5j * sz))
            assert np.max(np.abs(series.values - expected)) < 1e-12
            assert np.max(np.abs(series.values - transverse_sx(bath, 1.0, ts))) < 1e-12

    def test_window_cap_is_reported(self, monkeypatch, caplog):
        monkeypatch.setattr(lindblad, "MAX_SAMPLES", 401)
        model = model_for(Dephasing(gamma=0.3, sz=-0.5))
        with caplog.at_level("WARNING", logger="dicke_critic"):
            series = two_time_sx(model, steady_state(model).rho)
        assert series.times.size == 401
        [record] = caplog.records
        message = record.getMessage()
        assert "MAX_SAMPLES = 401" in message
        assert f"{22.0 / 0.3:.6g} -> {series.times[-1]:.6g}" in message
        assert "slowest damped rate 0.3" in message

    def test_uncapped_window_is_silent(self, caplog):
        model = model_for(Dephasing(gamma=0.3, sz=-0.5))
        with caplog.at_level("WARNING", logger="dicke_critic"):
            two_time_sx(model, steady_state(model).rho)
        assert not caplog.records
