"""Mean-field oracle: cavity amplitude plus one representative atom.

With the cavity amplitude rescaled per atom, alpha = <a>/sqrt(N), the
mean-field equations close on (alpha, rho):

    d alpha/dt = -(i omega0 + kappa) alpha - 2 i g Tr[sx rho]
    d rho/dt   = L_atom(rho) - i [2 g (alpha + conj(alpha)) sx, rho]

The normal state (alpha = 0, rho = bath steady state) is a fixed point;
its linear instability marks the transition. The static self-consistency
of these equations reproduces the zero-frequency determinant condition,
g*^2 = -(omega0^2 + kappa^2) / (2 omega0 chi0), so the bisection threshold
is an independent check on the closed forms.

The right-hand side is quadratic in the state, so the central-difference
Jacobian is exact up to roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from . import qops
from .baths import CavityParams
from .errors import ConvergenceError, NoThresholdError, PreconditionError
from .lindblad import SpinModel, steady_state

JACOBIAN_STEP = 1e-5
GROWTH_EPS_FACTOR = 1e-8

_SX = qops.sigma("x")
_DRIVE = qops.hamiltonian_superop(_SX)  # -i [sx, .] as a superoperator


@dataclass(frozen=True)
class MeanFieldState:
    alpha: complex
    rho: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class MeanFieldDerivative:
    dalpha: complex
    drho: np.ndarray = field(repr=False)


def pack(state: MeanFieldState) -> np.ndarray:
    """Real 6-vector [Re a, Im a, rho00, Re rho01, Im rho01, rho11]."""
    rho = state.rho
    return np.array(
        [
            state.alpha.real,
            state.alpha.imag,
            rho[0, 0].real,
            rho[0, 1].real,
            rho[0, 1].imag,
            rho[1, 1].real,
        ]
    )


def unpack(y: np.ndarray) -> MeanFieldState:
    rho = np.array(
        [[y[2], y[3] + 1j * y[4]], [y[3] - 1j * y[4], y[5]]], dtype=complex
    )
    return MeanFieldState(alpha=complex(y[0], y[1]), rho=rho)


class _System:
    """Precomputed matrices for fast repeated RHS evaluation.

    gen is the atomic generator (``model.generator()``), which does not
    depend on g.
    """

    def __init__(self, cavity: CavityParams, gen: np.ndarray, g: float):
        self.cavity = cavity
        self.g = g
        self.gen = gen

    def rhs(self, y: np.ndarray) -> np.ndarray:
        alpha = complex(y[0], y[1])
        v = np.array(
            [y[2], y[3] - 1j * y[4], y[3] + 1j * y[4], y[5]], dtype=complex
        )  # column-stacked rho
        sx_mean = y[3]
        dalpha = -(1j * self.cavity.omega0 + self.cavity.kappa) * alpha - 2j * self.g * sx_mean
        dv = self.gen @ v + (2.0 * self.g * 2.0 * y[0]) * (_DRIVE @ v)
        return np.array(
            [dalpha.real, dalpha.imag, dv[0].real, dv[2].real, dv[2].imag, dv[3].real]
        )


def mf_derivative(
    state: MeanFieldState, cavity: CavityParams, model: SpinModel, g: float
) -> MeanFieldDerivative:
    """Time derivative of (alpha, rho)."""
    sys = _System(cavity, model.generator(), g)
    dy = sys.rhs(pack(state))
    d = unpack(dy)
    return MeanFieldDerivative(dalpha=d.alpha, drho=d.rho)


def normal_fixed_point(model: SpinModel) -> MeanFieldState:
    return MeanFieldState(alpha=0.0 + 0.0j, rho=steady_state(model).rho)


def jacobian(
    cavity: CavityParams,
    model: SpinModel,
    g: float,
    state: MeanFieldState | None = None,
    step: float = JACOBIAN_STEP,
) -> np.ndarray:
    """6x6 real Jacobian at the given state (normal fixed point by default)."""
    if state is None:
        state = normal_fixed_point(model)
    return _central_jacobian(_System(cavity, model.generator(), g), pack(state), step)


def _central_jacobian(sys: _System, y0: np.ndarray, step: float) -> np.ndarray:
    jac = np.empty((6, 6))
    for j in range(6):
        e = np.zeros(6)
        e[j] = step
        jac[:, j] = (sys.rhs(y0 + e) - sys.rhs(y0 - e)) / (2.0 * step)
    return jac


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
    small scale-aware threshold. The normal fixed point and the atomic
    generator do not depend on g: they are built once and reused at every
    bisection step, which evaluates the same growth_rate arithmetic.
    """
    if not 0 <= g_lo < g_hi:
        raise PreconditionError(f"need 0 <= g_lo < g_hi, got ({g_lo}, {g_hi})")
    scale = max(cavity.omega0, abs(model.omega_z), cavity.kappa, 1e-12)
    eps = GROWTH_EPS_FACTOR * scale
    y0 = pack(normal_fixed_point(model))
    gen = model.generator()

    def unstable(g: float) -> bool:
        jac = _central_jacobian(_System(cavity, gen, g), y0, JACOBIAN_STEP)
        return _max_real_eigenvalue(jac) > eps

    if unstable(g_lo) or not unstable(g_hi):
        raise NoThresholdError(
            f"no stability change in bracket ({g_lo}, {g_hi}); "
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


def simulate(
    state0: MeanFieldState,
    cavity: CavityParams,
    model: SpinModel,
    g: float,
    duration: float,
    dt: float,
) -> Trajectory:
    """Integrate the full nonlinear mean-field equations (adaptive RK45)."""
    if dt <= 0:
        raise PreconditionError(f"dt = {dt} must be positive")
    sys = _System(cavity, model.generator(), g)
    t_eval = np.arange(0.0, duration + 0.5 * dt, dt)
    sol = solve_ivp(
        lambda _t, y: sys.rhs(y),
        (0.0, float(t_eval[-1])),
        pack(state0),
        method="RK45",
        t_eval=t_eval,
        rtol=1e-10,
        atol=1e-10,
    )
    if not sol.success:
        raise ConvergenceError(f"mean-field integration failed: {sol.message}")
    ys = sol.y.T
    alphas = ys[:, 0] + 1j * ys[:, 1]
    rhos = np.empty((ys.shape[0], 2, 2), dtype=complex)
    rhos[:, 0, 0] = ys[:, 2]
    rhos[:, 0, 1] = ys[:, 3] + 1j * ys[:, 4]
    rhos[:, 1, 0] = ys[:, 3] - 1j * ys[:, 4]
    rhos[:, 1, 1] = ys[:, 5]
    return Trajectory(times=sol.t, alphas=alphas, rhos=rhos)
