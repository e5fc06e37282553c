"""Mean-field oracle: cavity amplitude plus one representative atom.

With the cavity amplitude rescaled per atom, alpha = <a>/sqrt(N), the
mean-field equations close on (alpha, rho):

    d alpha/dt = -(i omega0 + kappa) alpha - 2 i g Tr[sx rho]
    d rho/dt   = L_atom(rho) - i [2 g (alpha + conj(alpha)) sx, rho]

``simulate`` and the stability oracle share one flow on the complex state
y = (alpha, conj(alpha), vec rho) in C^6, vec rho column-stacked as in
``qops``:

    dy/dt = m(g) y + (y_0 + y_1) 2 g D y[2:],   D = -i [sx, .]

m(g) holds -(i omega0 + kappa) and its conjugate on the amplitudes, the
coupling rows -+2 i g Tr[sx .] and ``model.generator()`` on the rho block.

The normal state (alpha = 0, rho_0 the bath steady state) is a fixed point;
its linear instability marks the transition. The flow is quadratic and
alpha = 0 there, so the Jacobian is exactly J(g) = a + g b, with a = m(0)
and b the coupling rows plus the kick columns b[2:, 0] = b[2:, 1] =
2 D vec rho_0; no finite difference is taken. ``jacobian`` returns this
complex matrix (indices 2 and 5 are rho00 and rho11). It is similar to the
real Jacobian in (Re alpha, Im alpha, rho00, Re rho01, Im rho01, rho11),
so ``growth_rate`` sees the spectrum of the real flow, and its
eigenvalues lambda are the polariton roots omega = i lambda of
``response.cavity_det``. The static self-consistency reproduces the
zero-frequency determinant condition, g*^2 = -(omega0^2 + kappa^2) /
(2 omega0 chi0), so ``stability_threshold``, the exact root of the
deflated det J(g), is an independent check on the closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import qops
from .baths import CavityParams
from .errors import ConvergenceError, NoThresholdError, PreconditionError
from .lindblad import SpinModel, steady_state

# a mode grows when its real part exceeds ROUNDOFF times the norm of the Jacobian
ROUNDOFF = 1e-13
# stability is confirmed this far below the static root, relatively: at the
# adjacent float an undamped soft mode (a Jordan pair at kappa = gamma = 0)
# splits by about sqrt(eps) and reads as growing
BELOW = 1e-6

_SX_ROW = qops.observable_row(qops.sigma("x"))  # Tr[sx rho] = _SX_ROW @ vec(rho)
_DRIVE = qops.hamiltonian_superop(qops.sigma("x"))  # -i [sx, .] as a superoperator


@dataclass(frozen=True)
class MeanFieldState:
    alpha: complex
    rho: np.ndarray = field(repr=False)


def _flow_parts(cavity: CavityParams, model: SpinModel) -> tuple[np.ndarray, np.ndarray]:
    """(m(0), c) with m(g) = m(0) + g c: c holds only the coupling rows."""
    m0 = np.zeros((6, 6), dtype=complex)
    m0[0, 0] = -(1j * cavity.omega0 + cavity.kappa)
    m0[1, 1] = np.conj(m0[0, 0])
    m0[2:, 2:] = model.generator()
    c = np.zeros((6, 6), dtype=complex)
    c[0, 2:], c[1, 2:] = -2j * _SX_ROW, 2j * _SX_ROW
    return m0, c


def _vector(state: MeanFieldState) -> np.ndarray:
    return np.concatenate([[state.alpha, np.conj(state.alpha)], qops.vectorize(state.rho)])


def _flow(cavity: CavityParams, model: SpinModel, g: float):
    """dy/dt as a function of (t, y), for solve_ivp."""
    m0, c = _flow_parts(cavity, model)
    m = m0 + g * c

    def rhs(_t: float, y: np.ndarray) -> np.ndarray:
        dy = m @ y
        dy[2:] += (y[0] + y[1]) * 2.0 * g * (_DRIVE @ y[2:])
        return dy

    return rhs


def normal_fixed_point(model: SpinModel) -> MeanFieldState:
    return MeanFieldState(alpha=0.0 + 0.0j, rho=steady_state(model).rho)


def _linearization(cavity: CavityParams, model: SpinModel) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) with the Jacobian at the normal fixed point exactly a + g b."""
    a, b = _flow_parts(cavity, model)
    b[2:, 0] = b[2:, 1] = 2.0 * _DRIVE @ qops.vectorize(normal_fixed_point(model).rho)
    return a, b


def jacobian(cavity: CavityParams, model: SpinModel, g: float) -> np.ndarray:
    """Complex 6x6 Jacobian on (alpha, conj(alpha), vec rho) at the normal fixed point."""
    a, b = _linearization(cavity, model)
    return a + g * b


def growth_rate(cavity: CavityParams, model: SpinModel, g: float) -> float:
    """Largest real part of the linearization spectrum at the normal state."""
    return float(np.max(np.real(np.linalg.eigvals(jacobian(cavity, model, g)))))


def _deflate(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) restricted to their common range, as r x r matrices.

    Every J(g) = a + g b maps into the range of [a b], so on an orthonormal
    basis q of it J(g) has the eigenvalues of J(g) less 6 - r zeros: the
    directions conserved for every g (the trace, and <sz> for dephasing-only
    baths). The rank is counted as numpy's matrix_rank counts it for the
    6 x 12 [a b].
    """
    u, s, _ = np.linalg.svd(np.hstack([a, b]))
    q = u[:, s > s[0] * 12 * np.finfo(float).eps]
    return q.conj().T @ a @ q, q.conj().T @ b @ q


def _top_mode(jac: np.ndarray) -> tuple[complex, bool, bool]:
    """The eigenvalue of jac with the largest real part; whether it grows and oscillates.

    Both are judged against roundoff, ROUNDOFF times the norm of jac.
    """
    lams = np.linalg.eigvals(jac)
    top = complex(lams[np.argmax(lams.real)])
    noise = ROUNDOFF * float(np.linalg.norm(jac))
    return top, top.real > noise, abs(top.imag) > noise


def stability_threshold(cavity: CavityParams, model: SpinModel, g_lo: float, g_hi: float) -> float:
    """The coupling in (g_lo, g_hi) at which the normal state goes statically unstable.

    On the deflated Jacobian (``_deflate``) det J(g) is real, since the
    spectrum is closed under conjugation, and it changes sign exactly where
    a real eigenvalue crosses 0. Illinois false position finds that root g*,
    one determinant per step, with a midpoint step whenever the secant
    leaves the bracket, until the bracket is a few ulps wide. Two
    eigenvalue solves confirm it: no mode grows at (1 - BELOW) g*, and one
    does at g_hi.

    ``NoThresholdError`` is raised for a bracket without a sign change, with
    the largest real eigenvalue at both ends, and for a mode that grows
    below the root. The determinant's sign does not see a complex pair
    crossing the imaginary axis, so either message names such an
    oscillating mode when it grows.
    """
    if not 0 <= g_lo < g_hi:
        raise PreconditionError(f"need 0 <= g_lo < g_hi, got ({g_lo}, {g_hi})")
    a, b = _deflate(*_linearization(cavity, model))

    def det(g: float) -> float:
        return float(np.linalg.det(a + g * b).real)

    lo, hi, f_lo, f_hi, side = g_lo, g_hi, det(g_lo), det(g_hi), 0
    if (f_lo > 0) == (f_hi > 0):
        (mode_lo, *_), (mode_hi, grows, oscillates) = (_top_mode(a + g * b) for g in (g_lo, g_hi))
        lasing = f"; the oscillating mode {mode_hi!r} grows at g_hi" if grows and oscillates else ""
        raise NoThresholdError(
            f"no static instability in bracket ({g_lo}, {g_hi}): largest real eigenvalue "
            f"{mode_lo.real!r} at g_lo and {mode_hi.real!r} at g_hi{lasing}; "
            "the normal state may be stable (or unstable) throughout"
        )
    while hi - lo > 4 * np.spacing(hi):
        mid = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        if not lo < mid < hi:
            mid = 0.5 * (lo + hi)
        f_mid = det(mid)
        if (f_mid > 0) == (f_hi > 0):  # Illinois: halve the end that stays twice
            hi, f_hi, f_lo, side = mid, f_mid, f_lo * (0.5 if side > 0 else 1.0), 1
        else:
            lo, f_lo, f_hi, side = mid, f_mid, f_hi * (0.5 if side < 0 else 1.0), -1
    root = 0.5 * (lo + hi)
    below = (1.0 - BELOW) * root
    mode, grows, oscillates = _top_mode(a + below * b)
    if grows:
        raise NoThresholdError(
            f"the {'oscillating' if oscillates else 'real'} mode {mode!r} grows at g = {below!r}, "
            f"below the static root {root!r}"
        )
    mode, grows, _ = _top_mode(a + g_hi * b)
    if not grows:
        raise NoThresholdError(
            f"the determinant changes sign at g = {root!r}, but no mode grows at g_hi: "
            f"the largest real eigenvalue is {mode.real!r}"
        )
    return root


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray = field(repr=False)
    alphas: np.ndarray = field(repr=False)
    rhos: np.ndarray = field(repr=False)

    @property
    def sx(self) -> np.ndarray:
        return np.real(self.rhos[:, 0, 1])

    @property
    def sz(self) -> np.ndarray:
        return 0.5 * np.real(self.rhos[:, 0, 0] - self.rhos[:, 1, 1])

    @property
    def traces(self) -> np.ndarray:
        return np.real(self.rhos[:, 0, 0] + self.rhos[:, 1, 1])


def simulate(state0: MeanFieldState, cavity: CavityParams, model: SpinModel, g: float,
             duration: float, dt: float) -> Trajectory:
    """Integrate the full nonlinear mean-field equations (adaptive RK45)."""
    from scipy.integrate import solve_ivp

    if dt <= 0:
        raise PreconditionError(f"dt = {dt} must be positive")
    t_eval = np.arange(0.0, duration + 0.5 * dt, dt)
    sol = solve_ivp(_flow(cavity, model, g), (0.0, float(t_eval[-1])), _vector(state0),
                    method="RK45", t_eval=t_eval, rtol=1e-10, atol=1e-10)
    if not sol.success:
        raise ConvergenceError(f"mean-field integration failed: {sol.message}")
    ys = sol.y.T
    rhos = ys[:, 2:].reshape(-1, 2, 2).transpose(0, 2, 1)  # column-stacked vec rho
    return Trajectory(times=sol.t, alphas=ys[:, 0], rhos=rhos)
