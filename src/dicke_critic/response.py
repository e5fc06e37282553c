"""Cavity susceptibility, inverse Green function, and polariton roots.

The per-atom susceptibility is the half-line transform of the correlator's
imaginary part,

    chi(omega) = -8 * int_0^inf Im[S_x(t)] e^{i omega t} dt.

Two routes compute it:

* ``resolvent_chi`` takes the transform in closed form. By the regression
  theorem the integral is a resolvent of the single-spin generator L,

      chi(omega) = -4i Tr[sx (L + i omega)^{-1} (rho sx - sx rho)],

  one 4x4 linear solve per frequency, batched over the whole grid. It
  works on complex omega, at exceptional points of L, and at any damping,
  and it is the route of the ``spectrum`` command.
* ``chi_from_correlator`` integrates a sampled correlator: a composite
  Boole rule over the samples, plus the transform past the window, which
  the same bordered solve (``_resolvent``) gives exactly from the state
  at the end of the window. For undamped (purely oscillatory) correlators
  that term is the Abel limit. The Boole body is the independent
  time-domain check of the resolvent.

The cavity self-energy is Sigma(omega) = g^2 chi(omega).

Sign convention for the inverse Green function: the 2x2 particle/hole
matrix is assembled as

    M(omega) = [[omega + i kappa - omega0 - Sigma,  -Sigma],
                [-Sigma, -omega - i kappa - omega0 - Sigma]]

whose determinant is omega0^2 + 2 omega0 Sigma - (omega + i kappa)^2. The
self-energy enters with the sign that makes the zero-frequency condition

    omega0^2 + kappa^2 + 2 omega0 Sigma(0) = 0

solvable for polarized ensembles (chi0 < 0), i.e. a ground-state-polarized
ensemble pulls the polariton root toward zero frequency.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import qops
from .baths import CavityParams
from .errors import (
    ConvergenceError,
    InvalidModelError,
    NonIntegrableTailError,
    PreconditionError,
)
from .lindblad import CorrelationSeries, SpinModel, steady_state

CHI0_IMAG_TOL = 1e-10
# |lambda + i omega| below this (times the spectral scale) is a resonance
# with an undamped mode; the same threshold marks undamped modes in lindblad
RESONANCE_TOL = 1e-12

_SX = qops.sigma("x")


def _boole_weights(n: int) -> np.ndarray:
    # composite Boole rule: n samples, (n-1) % 4 == 0
    w = np.full(n, 14.0)
    w[0] = w[-1] = 7.0
    w[1::2] = 32.0
    w[2::4] = 12.0
    return w * (2.0 / 45.0)


def _integrate_samples(times: np.ndarray, values: np.ndarray) -> complex:
    n = times.size
    if n == 1:
        return 0.0 + 0.0j
    if (n - 1) % 4:
        raise PreconditionError(f"sample count {n} is not 4*k + 1")
    dt = times[1] - times[0]
    return complex(np.sum(_boole_weights(n) * values) * dt)


def _resolvent(gen: np.ndarray, rhs: np.ndarray, omegas, ref: np.ndarray, omega_scale=0.0):
    """x = (L + i omega)^{-1} rhs for a traceless rhs, one row per omega.

    Solves (L + |ref><1| + i omega (1 - |ref><1|)) x = rhs for every omega
    at once as a stack of systems; ref is any trace-one state. Tr o L = 0,
    so on traceless operators the bordered matrix is L + i omega and the
    border changes no solution; it replaces the zero eigenvalue of the
    steady state by 1, which makes omega = 0 solvable. Where omega meets
    -i lambda for another undamped mode lambda of L (the extra zero mode of
    a degenerate null space, as under dephasing, is one), the system is
    solved by least squares: its residual shows whether rhs excites that
    mode.

    Raises NonIntegrableTailError when it does, since the transform then
    diverges.
    """
    flat = np.asarray(omegas, dtype=complex).reshape(-1)
    x = np.zeros((flat.size, rhs.size), dtype=complex)
    if not np.any(rhs):
        return x
    lams = np.linalg.eigvals(gen)
    scale = max(1.0, float(np.max(np.abs(lams))), abs(omega_scale))
    modes = np.delete(lams, np.argmin(np.abs(lams)))  # all but the steady state
    near = np.abs(modes[None, :] + 1j * flat[:, None]) <= RESONANCE_TOL * scale
    resonant = np.any(near, axis=1)

    border = np.outer(ref, qops.trace_functional(math.isqrt(rhs.size)))
    mats = gen + border + 1j * flat[:, None, None] * (np.eye(rhs.size) - border)
    x[~resonant] = np.linalg.solve(mats[~resonant], rhs[:, None])[..., 0]
    for k in np.flatnonzero(resonant):
        x[k] = np.linalg.lstsq(mats[k], rhs, rcond=None)[0]
        residual = float(np.max(np.abs(mats[k] @ x[k] - rhs)))
        if residual > RESONANCE_TOL * scale * float(np.max(np.abs(rhs))):
            lam = modes[np.argmax(near[k])]
            raise NonIntegrableTailError(
                f"undamped mode (eigenvalue {complex(lam):.6g}) evaluated at its resonance "
                f"omega = {np.asarray(omegas).reshape(-1)[k]} (least-squares residual "
                f"{residual:.3g})"
            )
    return x


def chi_from_correlator(corr: CorrelationSeries, omega: float) -> complex:
    """chi(omega) from the sampled correlator plus the exact tail past it.

    A composite Boole rule integrates the samples up to the last sample
    time T. Past T, with x_T = corr.end_state,

        int_T^inf e^{i omega t} Im f dt
            = -e^{i omega T} obs (L + i omega)^{-1} (x_T - x_T^+) / 2i,

    one bordered resolvent solve (``_resolvent``, bordered with the
    maximally mixed state); for undamped modes it is the Abel limit. At
    omega = 0 the imaginary part must vanish; it is checked against
    CHI0_IMAG_TOL and discarded.
    """
    im_vals = np.imag(corr.values)
    body = _integrate_samples(corr.times, -8.0 * im_vals * np.exp(1j * omega * corr.times))
    end = corr.end_state
    rhs = (end - qops.vectorize(qops.devectorize(end).conj().T)) / 2j
    dim = math.isqrt(end.size)
    x = _resolvent(corr.generator, rhs, omega, qops.trace_functional(dim) / dim)[0]
    value = body + 8.0 * cmath.exp(1j * omega * corr.times[-1]) * complex(corr.obs_row @ x)
    if omega == 0.0:
        if abs(value.imag) > CHI0_IMAG_TOL:
            raise InvalidModelError(
                f"Im chi(0) = {value.imag} should vanish; correlator is inconsistent"
            )
        return complex(value.real)
    return value


def resolvent_chi(model: SpinModel, omegas):
    """chi(omega) on a grid of real or complex frequencies, by the resolvent.

    Solves (L + i omega) x = rho sx - sx rho for every omega at once by
    ``_resolvent``, bordered with the steady state rho, and returns
    chi = -4i Tr[sx x] with the shape of ``omegas``. Complex omega
    continues chi analytically, as ``polariton_roots`` needs; sx does not
    see the extra zero mode of a degenerate null space.

    Raises NonIntegrableTailError when omega meets -i lambda for an
    undamped mode lambda of L, where the transform diverges, and
    InvalidModelError when Im chi(0) exceeds CHI0_IMAG_TOL.
    """
    om = np.asarray(omegas, dtype=complex)
    flat = om.reshape(-1)
    rho = steady_state(model).rho
    rhs = qops.vectorize(rho @ _SX - _SX @ rho)
    x = _resolvent(model.generator(), rhs, omegas, qops.vectorize(rho), model.omega_z)
    chi = -4j * (x @ qops.observable_row(_SX))
    static = flat == 0
    if np.any(np.abs(chi[static].imag) > CHI0_IMAG_TOL):
        raise InvalidModelError(
            f"Im chi(0) = {chi[static][0].imag} should vanish; resolvent is inconsistent"
        )
    chi[static] = chi[static].real
    return chi.reshape(om.shape)[()]


@dataclass(frozen=True)
class Susceptibility:
    """Static chi0 plus an optional tabulated chi(omega) grid."""

    chi0: float
    omegas: np.ndarray | None = field(default=None, repr=False)
    values: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if (self.omegas is None) != (self.values is None):
            raise InvalidModelError("omegas and values must be given together")
        if self.omegas is not None:
            om = np.asarray(self.omegas, dtype=float)
            vals = np.asarray(self.values, dtype=complex)
            if om.shape != vals.shape or om.ndim != 1:
                raise InvalidModelError("omega grid and values must be matching 1-d arrays")
            object.__setattr__(self, "omegas", om)
            object.__setattr__(self, "values", vals)

    def at(self, omega: float) -> complex:
        if omega == 0.0:
            return complex(self.chi0)
        if self.omegas is None:
            raise PreconditionError("no chi(omega) grid available at omega != 0")
        idx = np.flatnonzero(np.abs(self.omegas - omega) <= 1e-12 * max(1.0, abs(omega)))
        if idx.size == 0:
            raise PreconditionError(f"omega = {omega} not on the tabulated grid")
        return complex(self.values[idx[0]])


def susceptibility_from_correlator(
    corr: CorrelationSeries, omegas: Sequence[float] | None = None
) -> Susceptibility:
    chi0 = chi_from_correlator(corr, 0.0).real
    if omegas is None:
        return Susceptibility(chi0=chi0)
    om = np.asarray(omegas, dtype=float)
    vals = np.array([chi_from_correlator(corr, w) for w in om], dtype=complex)
    return Susceptibility(chi0=chi0, omegas=om, values=vals)


def ensemble_chi(members: Sequence[tuple[float, Susceptibility]]) -> Susceptibility:
    """Weighted average susceptibility of an inhomogeneous ensemble."""
    if not members:
        raise PreconditionError("ensemble must have at least one member")
    weights = np.array([w for w, _ in members], dtype=float)
    if np.any(weights < 0):
        raise PreconditionError("ensemble weights must be nonnegative")
    if abs(weights.sum() - 1.0) > 1e-12:
        raise PreconditionError(f"ensemble weights sum to {weights.sum()}, not 1")
    chi0 = float(np.sum(weights * np.array([s.chi0 for _, s in members])))
    grids = [s.omegas for _, s in members]
    if all(g is None for g in grids):
        return Susceptibility(chi0=chi0)
    if any(g is None for g in grids):
        raise PreconditionError("either all or no ensemble members may carry a grid")
    ref = grids[0]
    for g in grids[1:]:
        if g.shape != ref.shape or np.max(np.abs(g - ref)) > 1e-12:
            raise PreconditionError("ensemble members have mismatched frequency grids")
    vals = np.zeros_like(members[0][1].values)
    for w, s in members:
        vals = vals + w * s.values
    return Susceptibility(chi0=chi0, omegas=ref.copy(), values=vals)


@dataclass(frozen=True)
class CavityGreenSample:
    omega: float
    matrix: np.ndarray = field(repr=False)
    det: complex


def _det_value(omega: complex, cavity: CavityParams, sigma: complex) -> complex:
    if omega == 0.0:
        # written so the zero-frequency reduction is exact, not rounded
        return cavity.omega0**2 + cavity.kappa**2 + 2.0 * cavity.omega0 * sigma
    return cavity.omega0**2 + 2.0 * cavity.omega0 * sigma - (omega + 1j * cavity.kappa) ** 2


def cavity_det(
    omega: float, cavity: CavityParams, g: float, chi: Susceptibility
) -> CavityGreenSample:
    """Inverse-Green-function sample at real omega."""
    sigma = g**2 * chi.at(omega)
    w0, kap = cavity.omega0, cavity.kappa
    matrix = np.array(
        [
            [omega + 1j * kap - w0 - sigma, -sigma],
            [-sigma, -omega - 1j * kap - w0 - sigma],
        ],
        dtype=complex,
    )
    return CavityGreenSample(omega=omega, matrix=matrix, det=_det_value(omega, cavity, sigma))


def polariton_roots(
    cavity: CavityParams,
    g: float,
    chi_of_omega: Callable[[complex], complex],
    seeds: Sequence[complex] | None = None,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> list[complex]:
    """Complex roots of det(omega), damped Newton from the bare-cavity poles."""

    def f(w: complex) -> complex:
        return _det_value(w, cavity, g**2 * chi_of_omega(w))

    if seeds is None:
        seeds = [cavity.omega0 - 1j * cavity.kappa, -cavity.omega0 - 1j * cavity.kappa]
    scale = max(cavity.omega0, cavity.kappa, 1e-12)
    roots = []
    for seed in seeds:
        w = complex(seed)
        fw = f(w)
        converged = False
        for _ in range(max_iter):
            h = 1e-7 * scale
            dfd = (f(w + h) - f(w - h)) / (2.0 * h)
            if dfd == 0:
                raise ConvergenceError("vanishing derivative in polariton root search")
            step = fw / dfd
            # damping: halve until |f| decreases
            lam = 1.0
            for _ in range(60):
                w_new = w - lam * step
                f_new = f(w_new)
                if abs(f_new) <= abs(fw):
                    break
                lam *= 0.5
            else:
                raise ConvergenceError("damped Newton step failed to reduce |det|")
            done = abs(w_new - w) <= tol * max(1.0, abs(w_new))
            w, fw = w_new, f_new
            if done:
                converged = True
                break
        if not converged:
            raise ConvergenceError(f"polariton root search did not converge from seed {seed}")
        roots.append(w)
    return roots
