"""Cavity susceptibility and the inverse cavity Green function.

The per-atom susceptibility is the half-line transform of the correlator's
imaginary part,

    chi(omega) = -8 * int_0^inf Im[S_x(t)] e^{i omega t} dt.

Two routes compute it:

* ``resolvent_chi`` takes the transform in closed form. By the regression
  theorem the integral is a resolvent of the single-spin generator L,

      chi(omega) = -4i Tr[sx (L + i omega)^{-1} (rho sx - sx rho)].

  It returns chi as a function of omega, like ``baths.closed_form_chi``:
  the steady state and L are built once per model, and each call is one
  4x4 linear solve per frequency, batched over its argument. It works on
  complex omega, at exceptional points of L, and at any damping, and it
  is the route of the ``spectrum`` command.
* ``chi_from_correlator`` integrates a sampled correlator: a composite
  Boole rule over the samples, plus the transform past the window, which
  the same bordered solve (``_resolvent``) gives exactly from the state
  at the end of the window. For undamped (purely oscillatory) correlators
  that term is the Abel limit. The Boole body is the independent
  time-domain check of the resolvent.

chi values travel as plain numbers or arrays, so a weighted average over
an ensemble is ``np.average``; ``cavity_det`` takes the value at omega. The
cavity self-energy is Sigma(omega) = g^2 chi(omega).

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

import numpy as np

from . import qops
from .baths import CavityParams
from .errors import InvalidModelError, NonIntegrableTailError, PreconditionError
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


def _resolvent(gen: np.ndarray, rhs: np.ndarray, ref: np.ndarray, omega_scale=0.0):
    """A solver omegas -> x = (L + i omega)^{-1} rhs for a traceless rhs.

    The solver solves (L + |ref><1| + i omega (1 - |ref><1|)) x = rhs for
    every omega at once as a stack of systems and returns one row per
    omega; ref is any trace-one state. The eigenvalues of L and the border
    are computed once, here. Tr o L = 0, so on traceless operators the
    bordered matrix is L + i omega and the border changes no solution; it
    replaces the zero eigenvalue of the steady state by 1, which makes
    omega = 0 solvable. Where omega meets -i lambda for another undamped
    mode lambda of L (the extra zero mode of a degenerate null space, as
    under dephasing, is one), the system is solved by least squares: its
    residual shows whether rhs excites that mode.

    The solver raises NonIntegrableTailError when it does, since the
    transform then diverges.
    """
    lams = np.linalg.eigvals(gen)
    scale = max(1.0, float(np.max(np.abs(lams))), abs(omega_scale))
    modes = np.delete(lams, np.argmin(np.abs(lams)))  # all but the steady state
    border = np.outer(ref, qops.trace_functional(math.isqrt(rhs.size)))
    bordered = gen + border
    shift = np.eye(rhs.size) - border

    def solve(omegas) -> np.ndarray:
        flat = np.asarray(omegas, dtype=complex).reshape(-1)
        x = np.zeros((flat.size, rhs.size), dtype=complex)
        if not np.any(rhs):
            return x
        near = np.abs(modes[None, :] + 1j * flat[:, None]) <= RESONANCE_TOL * scale
        resonant = np.any(near, axis=1)
        mats = bordered + 1j * flat[:, None, None] * shift
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

    return solve


def chi_from_correlator(corr: CorrelationSeries, omega: float) -> complex:
    """chi(omega) from the sampled correlator plus the exact tail past it.

    A composite Boole rule integrates the samples up to the last sample
    time T; at omega = 0 the integrand is real. Past T, with
    x_T = corr.end_state,

        int_T^inf e^{i omega t} Im f dt
            = -e^{i omega T} obs (L + i omega)^{-1} (x_T - x_T^+) / 2i,

    one bordered resolvent solve (``_resolvent``, bordered with the
    maximally mixed state); for undamped modes it is the Abel limit. At
    omega = 0 the imaginary part must vanish; it is checked against
    CHI0_IMAG_TOL and discarded.
    """
    integrand = -8.0 * np.imag(corr.values)
    if omega != 0.0:
        integrand = integrand * np.exp(1j * omega * corr.times)
    body = _integrate_samples(corr.times, integrand)
    end = corr.end_state
    rhs = (end - qops.vectorize(qops.devectorize(end).conj().T)) / 2j
    dim = math.isqrt(end.size)
    x = _resolvent(corr.generator, rhs, qops.trace_functional(dim) / dim)(omega)[0]
    value = body + 8.0 * cmath.exp(1j * omega * corr.times[-1]) * complex(corr.obs_row @ x)
    if omega == 0.0:
        if abs(value.imag) > CHI0_IMAG_TOL:
            raise InvalidModelError(
                f"Im chi(0) = {value.imag} should vanish; correlator is inconsistent"
            )
        return complex(value.real)
    return value


def resolvent_chi(model: SpinModel):
    """chi(omega) of a model as a callable on real or complex frequencies.

    The steady state rho, the generator L, its eigenvalues and the border
    are built once, here. Each call solves (L + i omega) x = rho sx - sx rho
    for every omega at once by ``_resolvent``, bordered with rho, and
    returns chi = -4i Tr[sx x] with the shape of its argument. Complex
    omega continues chi analytically, so ``cavity_det`` vanishes at the
    polariton roots omega = i lambda, lambda the eigenvalues of the
    mean-field Jacobian; sx does not see the extra zero mode of a degenerate
    null space.

    A call raises NonIntegrableTailError when omega meets -i lambda for an
    undamped mode lambda of L, where the transform diverges, and
    InvalidModelError when Im chi(0) exceeds CHI0_IMAG_TOL.
    """
    rho = steady_state(model).rho
    rhs = qops.vectorize(rho @ _SX - _SX @ rho)
    solve = _resolvent(model.generator(), rhs, qops.vectorize(rho), model.omega_z)
    row = qops.observable_row(_SX)

    def chi(omegas):
        om = np.asarray(omegas, dtype=complex)
        flat = om.reshape(-1)
        values = -4j * (solve(omegas) @ row)
        static = flat == 0
        if np.any(np.abs(values[static].imag) > CHI0_IMAG_TOL):
            raise InvalidModelError(
                f"Im chi(0) = {values[static][0].imag} should vanish; resolvent is inconsistent"
            )
        values[static] = values[static].real
        return values.reshape(om.shape)[()]

    return chi


def cavity_det(omega: complex, cavity: CavityParams, g: float, chi: complex) -> complex:
    """Inverse cavity Green function det M(omega), given chi = chi(omega)."""
    sigma = g**2 * chi
    if omega == 0.0:
        # written so the zero-frequency reduction is exact, not rounded
        return cavity.omega0**2 + cavity.kappa**2 + 2.0 * cavity.omega0 * sigma
    return cavity.omega0**2 + 2.0 * cavity.omega0 * sigma - (omega + 1j * cavity.kappa) ** 2
