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
in this package is written against. (The opposite ordering, sx rho, gives
the complex conjugate.)

The correlator is sampled on a uniform grid by one propagator
P = exp(L dt). P is computed on numpy alone (``_expm``): L dt is scaled by
2^-s to 1-norm at most 1/2, its Taylor series is summed by Horner to the
first term below the unit roundoff, and the sum is squared s times. One
chain of squarings P^(2^i) then gives all n samples in O(log n) numpy
calls (``_step``): it doubles the observable rows and then the states,
and the samples are one product of the two. No eigenvectors are
involved, so exceptional points, where L is defective, are no special
case. The series keeps the generator, the observable row and the state
at the end of the window;
``response.chi_from_correlator`` closes the transform past the window
from them with one resolvent solve.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

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
# window of a correlator without damped modes, in periods of its fastest mode
DISPLAY_PERIODS = 12
_UNIT_ROUNDOFF = 2.0**-53

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
        """The Lindblad generator, built once per model; read-only, since every call shares it."""
        return self._generator

    @cached_property
    def _generator(self) -> np.ndarray:
        gen = qops.lindblad_generator(self.hamiltonian(), self.channels)
        gen.flags.writeable = False
        return gen


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
    is then the diagonal matrix with that polarization, stationary to 1e-10 max |L|.
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
        qops.validate_density_matrix(rho)
        return SteadyState(rho=rho, null_dim=1)
    if model.initial_sz is None:
        raise DegenerateSteadyStateError(f"steady state is degenerate (null dimension {null_dim}); "
                                         "designate a polarization via SpinModel.initial_sz")
    sz = model.initial_sz
    rho = np.diag([0.5 + sz, 0.5 - sz]).astype(complex)
    if np.max(np.abs(gen @ qops.vectorize(rho))) > 1e-10 * np.max(np.abs(gen)):
        raise InvalidModelError("designated diagonal state is not stationary for these channels")
    return SteadyState(rho=rho, null_dim=null_dim)


@dataclass(frozen=True)
class CorrelationSeries:
    """Uniform samples f(t_k) = obs_row . exp(L t_k) x0 of S_x(t).

    generator, obs_row and end_state (x_T = exp(L T) x0 at the last sample
    time T) carry what the exact transform past the window needs;
    ``response.chi_from_correlator`` closes it with a resolvent solve.
    """

    times: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    generator: np.ndarray = field(repr=False)
    obs_row: np.ndarray = field(repr=False)
    end_state: np.ndarray = field(repr=False)

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


def _window(
    lams: np.ndarray, omega_scale: float, tmax: float | None, dt: float | None
) -> tuple[float, float, float]:
    """(tmax, dt, slowest damped rate) from the eigenvalues of the generator.

    Zero modes, within qops.RESONANCE_TOL of the spectral radius, are
    stationary and left out, and a rate below it is undamped. dt resolves
    the fastest nonzero mode and omega_scale; tmax spans ENVELOPE_EFOLDS of
    the slowest damped mode, or DISPLAY_PERIODS periods when none is damped.
    """
    zero = qops.RESONANCE_TOL * float(np.max(np.abs(lams)))
    modes = lams[np.abs(lams) > zero]
    rates = np.clip(-np.real(modes), 0.0, None)
    damped = rates[rates >= zero]
    slow = float(np.min(damped)) if damped.size else 0.0
    freq = float(np.max(np.abs(np.imag(modes)), initial=0.0))
    fastest = max(float(np.max(rates, initial=0.0)), abs(omega_scale), freq) or 1.0

    if tmax is None:
        tmax = (ENVELOPE_EFOLDS / slow if damped.size
                else DISPLAY_PERIODS * 2.0 * np.pi / (freq or abs(omega_scale) or 1.0))
    elif tmax <= 0:
        raise PreconditionError(f"tmax = {tmax} must be positive")
    elif damped.size and slow * tmax < np.log(0.25e10):
        raise PreconditionError(f"tmax = {tmax} leaves the envelope above 1e-10 "
                                f"(need tmax >= {np.log(0.25e10) / slow:.6g})")

    if dt is None:
        dt = DEFAULT_DT_FACTOR / fastest
    else:
        limit = max(abs(omega_scale), slow)
        bound = 0.1 / limit if limit > 0 else np.inf
        if dt > bound * (1 + 1e-12):
            raise PreconditionError(f"dt = {dt} exceeds 0.1*min(1/omega_z, 1/gamma) = {bound:.6g}")
        if dt <= 0:
            raise PreconditionError(f"dt = {dt} must be positive")
    return tmax, dt, slow


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by scaling and squaring a Taylor polynomial.

    a / 2^s has 1-norm r <= 1/2; the series runs to the first degree m
    with r^m / m! below the unit roundoff (m = 8 at the default step),
    summed by Horner, I + x (I + x/2 (... (I + x/m))), and squared s times.
    """
    norm = float(np.abs(a).sum(axis=0).max(initial=0.0))
    s = max(0, math.frexp(norm)[1] + 1)
    x = a * 2.0**-s
    r = term = norm * 2.0**-s
    m = 1
    while term > _UNIT_ROUNDOFF:
        m += 1
        term *= r / m
    eye = np.eye(a.shape[0], dtype=x.dtype)
    p = x / m
    p += eye
    for k in range(m - 1, 0, -1):
        p = x @ p
        p /= k
        p += eye
    for _ in range(s):
        p = p @ p
    return p


def _step(
    gen: np.ndarray, starts: np.ndarray, row: np.ndarray, dt: float, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """row . P^k s for k < n and each column s of starts, P = exp(gen dt).

    Returns the (n, columns) samples and P^(n-1) starts. One chain of
    squarings S_t = P^(2^t) keeps every Python loop at O(log n). With
    b = 2^d >= sqrt(n), the rows row P^j, j < b, double through S_0 ..
    S_(d-1); the states (P^b)^i starts, i < ceil(n/b), double through
    S_d, S_(d+1), ...; the samples are one product of the two. P^(n-1)
    starts takes one product by S_t for each set bit t of n - 1 along the
    way, so only the latest square is kept.
    """
    depth = ((n - 1).bit_length() + 1) // 2
    b, cols, last = 1 << depth, starts.shape[1], n - 1
    m = -(-n // b)
    square = _expm(gen * dt)
    rows = np.empty((b, row.size), dtype=complex)
    rows[0] = row
    end = starts
    for t in range(depth):
        rows[1 << t:2 << t] = rows[:1 << t] @ square
        if last >> t & 1:
            end = square @ end
        square = square @ square
    # the states as rows, (columns, i, entries): a doubling multiplies by S^T
    states = np.empty((cols, m, row.size), dtype=complex)
    states[:, 0] = starts.T
    q = 1
    while q < m:
        r = min(q, m - q)
        states[:, q:q + r] = states[:, :r] @ square.T
        if last >> depth & q:
            end = square @ end
        q += r
        if q < m:
            square = square @ square
    samples = (states.reshape(cols * m, -1) @ rows.T).reshape(cols, m * b)[:, :n]
    return samples.T, end


def correlation_series_from_generator(
    gen: np.ndarray,
    init: np.ndarray,
    obs: np.ndarray,
    omega_scale: float,
    tmax: float | None = None,
    dt: float | None = None,
    times: np.ndarray | None = None,
) -> CorrelationSeries:
    """Samples of f(t) = Tr[obs exp(L t) init], obs Hermitian, stepped by one propagator.

    Shared by the single-spin engine and by the exact small-N engine. It
    needs no eigenvectors, so it holds at exceptional points of L. An
    explicit `times` grid overrides the tmax/dt selection (used to compare
    two engines on identical samples).
    """
    if not qops.is_hermitian(obs):
        raise InvalidModelError("the correlator observable must be Hermitian")
    if times is None:
        tmax, dt, slow = _window(np.linalg.eigvals(gen), omega_scale, tmax, dt)
        n_panels = int(np.ceil(tmax / dt))
        n_panels += (-n_panels) % 4  # composite Boole wants a multiple of 4 panels
        if n_panels + 1 > MAX_SAMPLES:
            # shorten the sampled window instead of exhausting memory; the
            # resolvent tail keeps the transform exact past it
            requested = tmax
            n_panels = MAX_SAMPLES - 1 - (MAX_SAMPLES - 1) % 4
            tmax = n_panels * dt
            logger.warning(
                "correlator window shortened by the MAX_SAMPLES = %d cap: tmax %.6g -> %.6g "
                "(slowest damped rate %.6g)",
                MAX_SAMPLES, requested, tmax, slow,
            )
        times = np.linspace(0.0, tmax, n_panels + 1)
    times = np.asarray(times, dtype=float)
    step = float(times[-1]) / (times.size - 1) if times.size > 1 else 0.0
    # init = h + i y with h, y Hermitian; L keeps them Hermitian, so
    # Re f and Im f are the real numbers Tr[obs h(t)] and Tr[obs y(t)].
    # Stepping h and y apart keeps the rounding of one out of the other.
    adj = init.conj().T
    parts = np.stack([qops.vectorize(init + adj) / 2, qops.vectorize(init - adj) / 2j], axis=1)
    row = qops.observable_row(obs)
    samples, ends = _step(gen, parts, row, step, times.size)
    values = np.empty(times.size, dtype=complex)
    values.real, values.imag = samples[:, 0].real, samples[:, 1].real
    del samples  # twice the size of values: free it before CorrelationSeries checks them
    end = ends[:, 0] + 1j * ends[:, 1]
    return CorrelationSeries(times=times, values=values, generator=gen, obs_row=row, end_state=end)


def two_time_sx(
    model: SpinModel,
    rho: np.ndarray,
    tmax: float | None = None,
    dt: float | None = None,
) -> CorrelationSeries:
    """S_x(t) from the steady (or designated) state rho, perturbed as rho @ sx."""
    qops.validate_density_matrix(rho)
    return correlation_series_from_generator(
        model.generator(), rho @ _SX, _SX, omega_scale=model.omega_z, tmax=tmax, dt=dt
    )
