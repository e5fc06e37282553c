"""Mean-field oracle: cavity amplitude plus one representative atom.

With the cavity amplitude rescaled per atom, alpha = <a>/sqrt(N), the
mean-field equations close on (alpha, rho):

    d alpha/dt = -(i omega0 + kappa) alpha - 2 i g Tr[sx rho]
    d rho/dt   = L_atom(rho) - i [2 g (alpha + conj(alpha)) sx, rho]

``mf_derivative``, ``simulate`` and the stability oracle share one flow on
the complex state y = (alpha, conj(alpha), vec rho) in C^6, vec rho
column-stacked as in ``qops``:

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
so ``growth_rate`` sees the spectrum of the real flow. The static
self-consistency reproduces the zero-frequency determinant condition,
g*^2 = -(omega0^2 + kappa^2) / (2 omega0 chi0), so the bisection threshold
is an independent check on the closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import qops
from .baths import CavityParams
from .errors import ConvergenceError, NoThresholdError, PreconditionError
from .lindblad import SpinModel, steady_state

GROWTH_EPS_FACTOR = 1e-8

_SX_ROW = qops.observable_row(qops.sigma("x"))  # Tr[sx rho] = _SX_ROW @ vec(rho)
_DRIVE = qops.hamiltonian_superop(qops.sigma("x"))  # -i [sx, .] as a superoperator


@dataclass(frozen=True)
class MeanFieldState:
    alpha: complex
    rho: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class MeanFieldDerivative:
    dalpha: complex
    drho: np.ndarray = field(repr=False)


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


def mf_derivative(
    state: MeanFieldState, cavity: CavityParams, model: SpinModel, g: float
) -> MeanFieldDerivative:
    """Time derivative of (alpha, rho)."""
    dy = _flow(cavity, model, g)(0.0, _vector(state))
    return MeanFieldDerivative(dalpha=complex(dy[0]), drho=qops.devectorize(dy[2:]))


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


def _max_real_eigenvalue(jac: np.ndarray) -> float:
    return float(np.max(np.real(np.linalg.eigvals(jac))))


def growth_rate(cavity: CavityParams, model: SpinModel, g: float) -> float:
    """Largest real part of the linearization spectrum at the normal state."""
    return _max_real_eigenvalue(jacobian(cavity, model, g))


def stability_threshold(
    cavity: CavityParams,
    model: SpinModel,
    g_lo: float,
    g_hi: float,
    tol: float = 1e-8,
) -> float:
    """Bisect the coupling at which the normal state loses stability.

    The conserved directions (trace, and <sz> for dephasing-only baths) sit
    at eigenvalue zero for every g, so instability is flagged only above a
    small scale-aware threshold. The Jacobian a + g b is built once; each
    bisection step is one eigenvalue solve. A bracket that does not change
    stability raises ``NoThresholdError`` with the largest real eigenvalue
    at both ends and that threshold, computed on the error path only.
    """
    if not 0 <= g_lo < g_hi:
        raise PreconditionError(f"need 0 <= g_lo < g_hi, got ({g_lo}, {g_hi})")
    scale = max(cavity.omega0, abs(model.omega_z), cavity.kappa, 1e-12)
    eps = GROWTH_EPS_FACTOR * scale
    a, b = _linearization(cavity, model)

    def unstable(g: float) -> bool:
        return _max_real_eigenvalue(a + g * b) > eps

    if unstable(g_lo) or not unstable(g_hi):
        rate_lo, rate_hi = (_max_real_eigenvalue(a + g * b) for g in (g_lo, g_hi))
        raise NoThresholdError(
            f"no stability change in bracket ({g_lo}, {g_hi}): largest real eigenvalue "
            f"{rate_lo!r} at g_lo and {rate_hi!r} at g_hi, unstable above eps = {eps!r}; "
            "the normal state may be stable (or unstable) throughout"
        )
    lo, hi = g_lo, g_hi
    while hi - lo > tol * hi:
        mid = 0.5 * (lo + hi)
        if unstable(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray = field(repr=False)
    alphas: np.ndarray = field(repr=False)
    rhos: np.ndarray = field(repr=False)

    @property
    def sx(self) -> np.ndarray:
        return np.real(self.rhos[:, 0, 1])

    @property
    def sy(self) -> np.ndarray:
        return -np.imag(self.rhos[:, 0, 1])

    @property
    def sz(self) -> np.ndarray:
        return 0.5 * np.real(self.rhos[:, 0, 0] - self.rhos[:, 1, 1])

    @property
    def traces(self) -> np.ndarray:
        return np.real(self.rhos[:, 0, 0] + self.rhos[:, 1, 1])


def trajectory_csv(traj: Trajectory) -> str:
    """CSV text with columns t, re_alpha, im_alpha, sx, sy, sz."""
    lines = ["t,re_alpha,im_alpha,sx,sy,sz"]
    for i, t in enumerate(traj.times):
        vals = (t, traj.alphas[i].real, traj.alphas[i].imag,
                traj.sx[i], traj.sy[i], traj.sz[i])
        lines.append(",".join(format(v + 0.0, ".17g") for v in vals))
    return "\n".join(lines) + "\n"


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
