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
  4x4 linear solve per frequency of its argument. It works on
  complex omega, at exceptional points of L, and at any damping, on any
  channel list. It is the engine route that the closed form, which the
  ``spectrum`` command evaluates, is checked against.
* ``chi_from_correlator`` integrates a sampled correlator: a composite
  Boole rule over the samples, plus the transform past the window, which
  the same solve (``_resolvent``) gives exactly from the state
  at the end of the window. For undamped (purely oscillatory) correlators
  that term is the Abel limit. The Boole body is the independent
  time-domain check of the resolvent.

chi values travel as plain numbers or arrays, so a weighted average over
an ensemble is ``np.average``; ``cavity_det`` broadcasts over a grid of
omega. The cavity self-energy is Sigma(omega) = g^2 chi(omega).

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

import numpy as np

from . import qops
from .baths import (
    CavityParams, _float_range, _in_float_range, _unit_exponent, _unit_scale,
)
from .errors import InvalidModelError, NonIntegrableTailError, PreconditionError
from .lindblad import CorrelationSeries, SpinModel, steady_state

CHI0_IMAG_TOL = 1e-10  # the share of sum |terms| that Im chi(0) may reach (_real_chi0)

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


def _real_chi0(value: complex, terms: np.ndarray, route: str) -> float:
    """Re chi(0) = Re value, value the sum of terms: raises if |Im| > CHI0_IMAG_TOL sum |terms|."""
    if abs(value.imag) > CHI0_IMAG_TOL * float(np.sum(np.abs(terms))):
        raise InvalidModelError(f"Im chi(0) = {value.imag} should vanish; {route} is inconsistent")
    return value.real


def _resolvent(gen: np.ndarray, rhs: np.ndarray, unit: float = 1.0):
    """A solver omega -> x = (L + i omega)^{-1} rhs for a traceless rhs, one omega a call.

    The solver solves L + i omega with row 0 the trace row and Tr x = 0
    (``qops.trace_border``). Tr o L = 0 and Tr rhs = 0, so at omega != 0
    that row holds for every solution and the border changes none; at
    omega = 0 it picks the traceless one, which makes the zero mode of the
    steady state solvable at any scale of L. The eigenvalues of L are
    computed once, here. Where omega meets -i lambda, within RESONANCE_TOL of
    the spectral radius, for another undamped mode lambda of L (the extra zero
    mode of a degenerate null space, as under dephasing, is one), the system
    is solved by least squares: its residual M x - b shows whether rhs excites
    that mode, past RESONANCE_TOL max_i(|M_i| |x| + |b_i|), and the solver then
    raises NonIntegrableTailError, since the transform diverges. gen may be
    L times unit, a power of two: the solve then runs at that scale, on omega
    unit, and returns x / unit; the error names omega and lambda unscaled.
    """
    lams = np.linalg.eigvals(gen)
    reach = qops.RESONANCE_TOL * float(np.max(np.abs(lams)))
    modes = np.delete(lams, np.argmin(np.abs(lams)))  # all but the steady state
    eye = np.eye(rhs.size)

    def solve(omega) -> np.ndarray:
        if not np.any(rhs):
            return np.zeros(rhs.size, dtype=complex)
        mat, b = qops.trace_border(gen + 1j * (omega * unit) * eye, rhs, 0.0)
        near = np.abs(modes + 1j * (omega * unit)) <= reach
        if not np.any(near):
            return np.linalg.solve(mat, b)
        x = np.linalg.lstsq(mat, b, rcond=None)[0]
        residual = float(np.max(np.abs(mat @ x - b)))
        if residual > qops.RESONANCE_TOL * float(np.max(np.abs(mat) @ np.abs(x) + np.abs(b))):
            raise NonIntegrableTailError(
                f"undamped mode (eigenvalue {complex(modes[np.argmax(near)]) / unit:.6g}) "
                f"evaluated at its resonance omega = {omega} (least-squares residual "
                f"{residual:.3g})")
        return x

    return solve


def chi_from_correlator(corr: CorrelationSeries, omega: float) -> complex:
    """chi(omega) from the sampled correlator plus the exact tail past it.

    A composite Boole rule integrates the samples up to the last sample
    time T; at omega = 0 the integrand is real. Past T, with
    x_T = corr.end_state,

        int_T^inf e^{i omega t} Im f dt
            = -e^{i omega T} obs (L + i omega)^{-1} (x_T - x_T^+) / 2i,

    one resolvent solve (``_resolvent``); for undamped modes it is the
    Abel limit. At omega = 0 the imaginary part must vanish (``_real_chi0``,
    over the body and the tail's terms); it is discarded.
    """
    integrand = -8.0 * np.imag(corr.values)
    if omega != 0.0:
        integrand = integrand * np.exp(1j * omega * corr.times)
    body = _integrate_samples(corr.times, integrand)
    end = corr.end_state
    rhs = (end - qops.vectorize(qops.devectorize(end).conj().T)) / 2j
    x = _resolvent(corr.generator, rhs)(omega)
    value = body + 8.0 * cmath.exp(1j * omega * corr.times[-1]) * complex(corr.obs_row @ x)
    if omega == 0.0:
        return complex(_real_chi0(value, np.append(body, 8.0 * corr.obs_row * x), "correlator"))
    return value


def resolvent_chi(model: SpinModel):
    """chi(omega) of a model as a callable on real or complex frequencies.

    The steady state rho, the generator L and its eigenvalues are built
    once, here, at unit scale (``baths._unit_scale``); chi is scaled back
    exactly. Each call solves (L + i omega) x = rho sx - sx rho by
    ``_resolvent``, one 4x4 solve per frequency, and returns chi =
    -4i Tr[sx x] with the shape of its argument. Complex
    omega continues chi analytically, so ``cavity_det`` vanishes at the
    polariton roots omega = i lambda, lambda the eigenvalues of the
    mean-field Jacobian; sx does not see the extra zero mode of a degenerate
    null space.

    A call raises NonIntegrableTailError when omega meets -i lambda for an
    undamped mode lambda of L, where the transform diverges, and
    InvalidModelError when Im chi(0) does not vanish (``_real_chi0``).
    """
    k = _unit_exponent(model.omega_z, *(ch.rate for ch in model.channels))
    model, unit = _unit_scale(model, k), 2.0**-k
    rho = steady_state(model).rho
    rhs = qops.vectorize(rho @ _SX - _SX @ rho)
    solve = _resolvent(model.generator(), rhs, unit)
    row = qops.observable_row(_SX)

    def chi(omegas):
        om = np.asarray(omegas)
        values = np.zeros(om.shape, dtype=complex)
        for i, omega in enumerate(om.reshape(-1).tolist()):
            x = solve(omega)
            value = -4j * (x @ row)
            values.flat[i] = _real_chi0(value, 4.0 * x * row, "resolvent") if omega == 0 else value
        return (values * unit)[()]

    return chi


def cavity_det(omega, cavity: CavityParams, g: float, chi):
    """Inverse cavity Green function det M(omega), given chi = chi(omega); broadcasts.

    On real omega each element is bitwise Python's complex arithmetic at that element:
    (omega + i kappa)^2 is written as the product its complex multiply forms, and omega = 0
    takes the zero-frequency reduction, exact, not rounded. A scalar call gives np.complex128.
    A det past the float range raises PreconditionError, without a warning, naming an omega.
    """
    w, k, w0 = np.asarray(omega), cavity.kappa, cavity.omega0
    with _float_range("det"), np.errstate(over="ignore", invalid="ignore"):
        sigma = g**2 * np.asarray(chi)
        shifted_sq = (w * w - k * k) + 1j * (w * k + k * w)
        det = np.where(w == 0, w0**2 + k**2 + 2.0 * w0 * sigma,
                       w0**2 + 2.0 * w0 * sigma - shifted_sq)
    return _in_float_range(det, w, "det")
