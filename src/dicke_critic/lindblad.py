"""Single-spin open-system engine.

Steady states, propagation, and two-time correlators of one spin-1/2 with
Hamiltonian ``omega_z * sigma('z')`` and an arbitrary list of Lindblad
channels. The two-time correlator is evaluated by the quantum regression
theorem,

    S_x(t) = Tr[ sx . exp(L t) (rho sx) ],

with the perturbation multiplied from the *right*. With the standard
(Schroedinger-picture) generator this ordering yields

    S_x(t) = (1/4) e^{-g_eff t} (cos(w_z t) - 2i <sz> sin(w_z t))

for the dephasing bath, which is the closed form every downstream formula
in this package is written against. The opposite ordering gives the
complex conjugate and is available via ``ordering="left"``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import qops
from .errors import (
    ConvergenceError,
    DegenerateSteadyStateError,
    InvalidModelError,
    PreconditionError,
)

# sampled region always extends to ~1e-10 residual envelope (22 e-folds)
ENVELOPE_EFOLDS = 22.0
DEFAULT_DT_FACTOR = 0.02
MAX_SAMPLES = 2_000_000
_EIG_COND_LIMIT = 1e8
# the mode amplitudes must sum to f(0) = Tr[obs init] this closely
_MODE_SUM_TOL = 1e-12

_SX = qops.sigma("x")
logger = logging.getLogger("dicke_critic")


@dataclass(frozen=True)
class SpinModel:
    """One spin with detuning omega_z and a set of Lindblad channels.

    initial_sz designates the steady polarization when the generator's
    null space is degenerate (dephasing-only models); it is ignored
    otherwise.
    """

    omega_z: float
    channels: tuple[qops.LindbladChannel, ...] = ()
    initial_sz: float | None = None

    def __post_init__(self):
        if not np.isfinite(self.omega_z):
            raise InvalidModelError(f"omega_z = {self.omega_z} is not finite")
        object.__setattr__(self, "channels", tuple(self.channels))
        if self.initial_sz is not None and not -0.5 <= self.initial_sz <= 0.5:
            raise InvalidModelError(f"initial_sz = {self.initial_sz} outside [-1/2, 1/2]")

    def hamiltonian(self) -> np.ndarray:
        return self.omega_z * qops.sigma("z")

    def generator(self) -> np.ndarray:
        return qops.lindblad_generator(self.hamiltonian(), self.channels)


@dataclass(frozen=True)
class SteadyState:
    rho: np.ndarray = field(repr=False)
    null_dim: int

    @property
    def degenerate(self) -> bool:
        return self.null_dim > 1

    @property
    def sz(self) -> float:
        return float(np.real(np.trace(qops.sigma("z") @ self.rho)))


def steady_state(model: SpinModel) -> SteadyState:
    """Null vector of the generator, normalized to trace 1.

    Degenerate null spaces require model.initial_sz; the designated state
    is then the diagonal matrix with that polarization.
    """
    gen = model.generator()
    _, vecs = qops.null_space(gen)
    null_dim = vecs.shape[1]
    if null_dim <= 1:
        if null_dim == 0:
            raise ConvergenceError("no eigenvalue of the generator is close to zero")
        rho = qops.devectorize(vecs[:, 0])
        rho = rho / np.trace(rho)
        rho = 0.5 * (rho + rho.conj().T)
        qops.validate_density_matrix(rho, tol=1e-9)
        return SteadyState(rho=rho, null_dim=1)
    if model.initial_sz is None:
        raise DegenerateSteadyStateError(
            f"steady state is degenerate (null dimension {null_dim}); "
            "designate a polarization via SpinModel.initial_sz"
        )
    sz = model.initial_sz
    rho = np.diag([0.5 + sz, 0.5 - sz]).astype(complex)
    if np.max(np.abs(gen @ qops.vectorize(rho))) > 1e-10:
        raise InvalidModelError(
            "designated diagonal state is not stationary for these channels"
        )
    return SteadyState(rho=rho, null_dim=null_dim)


def propagate(model: SpinModel, rho0: np.ndarray, t: float) -> np.ndarray:
    """exp(L t) applied to rho0."""
    if t < 0:
        raise PreconditionError(f"propagation time t = {t} < 0")
    prop = scipy.linalg.expm(model.generator() * t)
    return qops.devectorize(prop @ qops.vectorize(rho0))


@dataclass(frozen=True)
class Tail:
    """Analytic continuation of a correlator past the sampled window.

    value(t) = exp(-decay_rate * t) * (amp_cos * cos(frequency * t)
                                       + amp_sin * sin(frequency * t))
    valid for t >= start (absolute time, not offset).
    """

    decay_rate: float
    frequency: float
    amp_cos: complex
    amp_sin: complex
    start: float

    def __post_init__(self):
        if self.decay_rate < 0:
            raise InvalidModelError(f"tail decay rate {self.decay_rate} < 0")

    def value(self, t):
        t = np.asarray(t, dtype=float)
        return np.exp(-self.decay_rate * t) * (
            self.amp_cos * np.cos(self.frequency * t)
            + self.amp_sin * np.sin(self.frequency * t)
        )


@dataclass(frozen=True)
class CorrelationSeries:
    """Uniform samples of S_x(t) plus the analytic tail beyond them."""

    times: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    tail: Tail

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=complex)
        if times.ndim != 1 or times.shape != values.shape:
            raise InvalidModelError("times/values must be matching 1-d arrays")
        if times[0] != 0.0 or np.any(times < 0):
            raise InvalidModelError("sample times must start at 0 and be nonnegative")
        if times.size > 2:
            steps = np.diff(times)
            if np.max(np.abs(steps - steps[0])) > 1e-9 * steps[0]:
                raise InvalidModelError("sample times must be uniformly spaced")
        if abs(values[0] - 0.25) > 1e-12:
            raise InvalidModelError(f"S_x(0) = {values[0]} != 1/4")
        if np.max(np.abs(values)) > 0.25 + 1e-12:
            raise InvalidModelError("|S_x(t)| exceeds the operator-norm bound 1/4")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0]) if self.times.size > 1 else 0.0

    @property
    def tail_only(self) -> bool:
        return self.times.size == 1


def _mode_decomposition(gen: np.ndarray, init: np.ndarray, obs: np.ndarray):
    """Amplitudes m_k and rates lam_k with f(t) = sum_k m_k exp(lam_k t)."""
    vals, vecs = np.linalg.eig(gen)
    cond = np.linalg.cond(vecs)
    if cond > _EIG_COND_LIMIT:
        raise ConvergenceError(
            "generator is too close to defective for spectral correlator evaluation"
        )
    w0 = np.linalg.solve(vecs, qops.vectorize(init))
    amps = (qops.observable_row(obs) @ vecs) * w0
    f0 = complex(np.trace(obs @ init))
    if abs(np.sum(amps) - f0) > _MODE_SUM_TOL * max(1.0, abs(f0)):
        i, j = _closest_pair(vals)
        raise ConvergenceError(
            f"mode amplitudes sum to {complex(np.sum(amps))}, not f(0) = {f0}: eigenvalues "
            f"{complex(vals[i]):.10g} and {complex(vals[j]):.10g} nearly coalesce "
            f"(eigenvector condition number {cond:.3g}), an exceptional point of the generator"
        )
    return vals, amps


def _closest_pair(vals: np.ndarray) -> tuple[int, int]:
    """Indices of the two eigenvalues closest to each other."""
    best, pair = np.inf, (0, 0)
    for i in range(vals.size - 1):
        gaps = np.abs(vals[i + 1:] - vals[i])
        j = int(np.argmin(gaps))
        if gaps[j] < best:
            best, pair = gaps[j], (i, i + 1 + j)
    return pair


def _build_tail(lams: np.ndarray, amps: np.ndarray, start: float) -> Tail:
    """Fold a set of modes sharing one decay rate into the Tail record."""
    rates = -np.real(lams)
    rate = float(np.clip(np.mean(rates), 0.0, None))
    freqs = np.imag(lams)
    freq = float(np.max(np.abs(freqs)))
    scale = max(1.0, float(np.max(np.abs(lams)))) if lams.size else 1.0
    if freq < 1e-12 * scale:
        return Tail(rate, 0.0, complex(np.sum(amps)), 0.0 + 0.0j, start)
    if np.any(np.abs(np.abs(freqs) - freq) > 1e-9 * scale):
        raise InvalidModelError(
            "slow modes carry more than one frequency; tail record cannot represent them"
        )
    m_plus = complex(np.sum(amps[freqs > 0]))
    m_minus = complex(np.sum(amps[freqs <= 0]))
    return Tail(rate, freq, m_plus + m_minus, 1j * (m_plus - m_minus), start)


def correlation_series_from_generator(
    gen: np.ndarray,
    init: np.ndarray,
    obs: np.ndarray,
    omega_scale: float,
    tmax: float | None = None,
    dt: float | None = None,
    times: np.ndarray | None = None,
) -> CorrelationSeries:
    """Sampled-plus-tail correlator f(t) = Tr[obs exp(L t) init].

    Shared by the single-spin engine and by the exact small-N engine. An
    explicit `times` grid overrides the tmax/dt selection (used to compare
    two engines on identical samples).
    """
    lams, amps = _mode_decomposition(gen, init, obs)
    scale = max(1.0, float(np.max(np.abs(lams))), abs(omega_scale))
    keep = np.abs(amps) > 1e-13 * max(1.0, float(np.max(np.abs(amps))))
    lams, amps = lams[keep], amps[keep]
    if lams.size == 0:
        raise InvalidModelError("correlator has no contributing modes")
    rates = np.clip(-np.real(lams), 0.0, None)
    undamped = rates < 1e-12 * scale

    if times is not None:
        times = np.asarray(times, dtype=float)
        values = np.exp(np.outer(times, lams)) @ amps
        tail_mask = rates <= float(np.min(rates)) + 1e-9 * scale
        tail = _build_tail(lams[tail_mask], amps[tail_mask], start=float(times[-1]))
        return CorrelationSeries(times=times, values=values, tail=tail)

    if np.all(undamped):
        # pure oscillation: the tail is the whole story
        tail = _build_tail(lams, amps, start=0.0)
        t0 = np.array([0.0])
        return CorrelationSeries(times=t0, values=np.atleast_1d(tail.value(0.0)), tail=tail)

    damped_rates = rates[~undamped]
    slow_damped = float(np.min(damped_rates))
    if np.any(undamped):
        tail_mask = undamped
    else:
        tail_mask = rates <= slow_damped + 1e-9 * scale
    tail_start_rate = slow_damped

    if tmax is None:
        tmax = ENVELOPE_EFOLDS / tail_start_rate
    elif tail_start_rate * tmax < np.log(0.25e10):
        raise PreconditionError(
            f"tmax = {tmax} leaves the envelope above 1e-10 "
            f"(need tmax >= {np.log(0.25e10) / tail_start_rate:.6g})"
        )

    fastest = max(float(np.max(rates)), abs(omega_scale), float(np.max(np.abs(np.imag(lams)))))
    if dt is None:
        dt = DEFAULT_DT_FACTOR / fastest
    else:
        bound = 0.1 / max(abs(omega_scale), slow_damped)
        if dt > bound * (1 + 1e-12):
            raise PreconditionError(f"dt = {dt} exceeds 0.1*min(1/omega_z, 1/gamma) = {bound:.6g}")
        if dt <= 0:
            raise PreconditionError(f"dt = {dt} must be positive")

    n_panels = int(np.ceil(tmax / dt))
    n_panels += (-n_panels) % 4  # composite Boole wants a multiple of 4 panels
    if n_panels + 1 > MAX_SAMPLES:
        # shorten the sampled window instead of exhausting memory; the
        # analytic tail keeps the transform exact for the slow modes
        requested = tmax
        n_panels = MAX_SAMPLES - 1 - (MAX_SAMPLES - 1) % 4
        tmax = n_panels * dt
        logger.warning(
            "correlator window shortened by the MAX_SAMPLES = %d cap: tmax %.6g -> %.6g "
            "(slowest damped rate %.6g)",
            MAX_SAMPLES, requested, tmax, tail_start_rate,
        )
    times = np.linspace(0.0, tmax, n_panels + 1)
    values = np.exp(np.outer(times, lams)) @ amps
    tail = _build_tail(lams[tail_mask], amps[tail_mask], start=float(tmax))
    return CorrelationSeries(times=times, values=values, tail=tail)


def two_time_sx(
    model: SpinModel,
    rho: np.ndarray,
    tmax: float | None = None,
    dt: float | None = None,
    ordering: str = "right",
) -> CorrelationSeries:
    """S_x(t) from the steady (or designated) state rho.

    ordering="right" perturbs with rho @ sx (the convention of every closed
    form in this package); "left" gives the complex-conjugate series.
    """
    qops.validate_density_matrix(rho, tol=1e-9)
    if ordering == "right":
        init = rho @ _SX
    elif ordering == "left":
        init = _SX @ rho
    else:
        raise PreconditionError(f"unknown ordering {ordering!r}")
    return correlation_series_from_generator(
        model.generator(), init, _SX, omega_scale=model.omega_z, tmax=tmax, dt=dt
    )
