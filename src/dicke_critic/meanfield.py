"""Mean-field oracle: cavity amplitude plus one representative atom.

With the cavity amplitude rescaled per atom, alpha = <a>/sqrt(N), the
mean-field equations close on (alpha, rho):

    d alpha/dt = -(i omega0 + kappa) alpha - 2 i g Tr[sx rho]
    d rho/dt   = L_atom(rho) - i [2 g (alpha + conj(alpha)) sx, rho]

The threshold and the superradiant branch read one flow on the complex state
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
so ``growth_rate`` sees the spectrum of the real flow (less the conserved
directions, so that it reads below 0 where the state is stable), and its
eigenvalues lambda are the polariton roots omega = i lambda of
``response.cavity_det``. The static self-consistency reproduces the
zero-frequency determinant condition, g*^2 = -(omega0^2 + kappa^2) /
(2 omega0 chi0), so ``stability_threshold``, the exact root of the
deflated det J(g), is an independent check on the closed forms.

Past the threshold the flow has a fixed point with alpha != 0, the
superradiant branch (Kirton & Keeling, PRL 118, 123602 (2017)), where
alpha = -2 i g <sx> / (i omega0 + kappa). The field h = 2 g (alpha +
conj(alpha)) on the atom then solves F(h) = h + K <sx>(h) = 0, with
K = 8 g^2 omega0 / (omega0^2 + kappa^2) and <sx>(h) from the steady state of
L_atom + h D; ``superradiant_state`` finds the root h* > 0 (-h* is its Z2
mirror) with the threshold's root finder. Its Jacobian there is a + g b
again, from the same builder (``_linearization``): L_atom + h* D on the rho
block and 2 D vec rho* in the kick columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import qops
from .baths import CavityParams, _cavity_scale
from .errors import DegenerateSteadyStateError, NoThresholdError, PreconditionError
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
    top_eigenvalue: complex  # of the Jacobian there, trace left out: stable where Re < 0


def _linearization(cavity: CavityParams, model: SpinModel, vec: np.ndarray | None = None,
                   h: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) with the Jacobian exactly a + g b at the fixed point whose atom, in the field
    h = 2 g (alpha + conj(alpha)), is in the state vec; by default the normal state."""
    if vec is None:
        vec = qops.vectorize(steady_state(model).rho)
    a = np.zeros((6, 6), dtype=complex)
    a[0, 0] = -(1j * cavity.omega0 + cavity.kappa)
    a[1, 1] = np.conj(a[0, 0])
    a[2:, 2:] = model.generator() + h * _DRIVE
    b = np.zeros((6, 6), dtype=complex)
    b[0, 2:], b[1, 2:] = -2j * _SX_ROW, 2j * _SX_ROW
    b[2:, 0] = b[2:, 1] = 2.0 * _DRIVE @ vec
    return a, b


def jacobian(cavity: CavityParams, model: SpinModel, g: float) -> np.ndarray:
    """Complex 6x6 Jacobian on (alpha, conj(alpha), vec rho) at the normal fixed point."""
    a, b = _linearization(cavity, model)
    return a + g * b


def growth_rate(cavity: CavityParams, model: SpinModel, g: float) -> float:
    """Largest real part of the linearization spectrum at the normal state, the directions
    conserved for every g (``_deflate``) left out: negative where the normal state is stable."""
    a, b = _deflate(*_linearization(cavity, model))
    return _top_mode(a + g * b)[0].real


def _deflate(*mats: np.ndarray) -> tuple[np.ndarray, ...]:
    """The 6 x 6 mats restricted to their common range, as r x r matrices.

    Every J(g) = a + g b maps into the range of [a b], so on an orthonormal
    basis q of it J(g) has the eigenvalues of J(g) less 6 - r zeros: the
    directions conserved for every g (the trace, and <sz> for dephasing-only
    baths). The rank is counted as numpy's matrix_rank counts it for the
    stacked [a b].
    """
    stacked = np.hstack(mats)
    u, s, _ = np.linalg.svd(stacked)
    q = u[:, s > s[0] * max(stacked.shape) * np.finfo(float).eps]
    return tuple(q.conj().T @ m @ q for m in mats)


def _top_mode(jac: np.ndarray) -> tuple[complex, bool, bool]:
    """The eigenvalue of jac with the largest real part; whether it grows and oscillates.

    Both are judged against roundoff, ROUNDOFF times the norm of jac.
    """
    lams = np.linalg.eigvals(jac)
    top = complex(lams[np.argmax(lams.real)])
    noise = ROUNDOFF * float(np.linalg.norm(jac))
    return top, top.real > noise, abs(top.imag) > noise


def _illinois(f, lo: float, hi: float, f_lo: float, f_hi: float) -> float:
    """Root of f in (lo, hi) by Illinois false position, f_lo = f(lo) and f_hi = f(hi) of
    opposite sign: a midpoint step where the secant leaves the bracket, to a few ulps."""
    side = 0
    while hi - lo > 4 * np.spacing(hi):
        mid = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        if not lo < mid < hi:
            mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if (f_mid > 0) == (f_hi > 0):  # Illinois: halve the end that stays twice
            hi, f_hi, f_lo, side = mid, f_mid, f_lo * (0.5 if side > 0 else 1.0), 1
        else:
            lo, f_lo, f_hi, side = mid, f_mid, f_hi * (0.5 if side < 0 else 1.0), -1
    return 0.5 * (lo + hi)


def stability_threshold(cavity: CavityParams, model: SpinModel, g_lo: float, g_hi: float) -> float:
    """The coupling in (g_lo, g_hi) at which the normal state goes statically unstable.

    On the deflated Jacobian (``_deflate``) det J(g) is real, since the
    spectrum is closed under conjugation, and it changes sign exactly where
    a real eigenvalue crosses 0. ``_illinois`` finds that root g*, one
    determinant per step. Two eigenvalue solves confirm it: no mode grows
    at (1 - BELOW) g*, and one does at g_hi.

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

    f_lo, f_hi = det(g_lo), det(g_hi)
    if (f_lo > 0) == (f_hi > 0):
        (mode_lo, *_), (mode_hi, grows, oscillates) = (_top_mode(a + g * b) for g in (g_lo, g_hi))
        lasing = f"; the oscillating mode {mode_hi!r} grows at g_hi" if grows and oscillates else ""
        raise NoThresholdError(
            f"no static instability in bracket ({g_lo}, {g_hi}): largest real eigenvalue "
            f"{mode_lo.real!r} at g_lo and {mode_hi.real!r} at g_hi{lasing}; "
            "the normal state may be stable (or unstable) throughout"
        )
    root = _illinois(det, g_lo, g_hi, f_lo, f_hi)
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


def _field_state(model: SpinModel, h: float) -> np.ndarray:
    """vec rho of the steady state of L_atom + h D: one solve, bordered by ``qops.trace_border``."""
    return np.linalg.solve(*qops.trace_border(model.generator() + h * _DRIVE, np.zeros(4), 1.0))


def _unique_in_field(model: SpinModel, h: float, g: float) -> None:
    """Raise DegenerateSteadyStateError where L_atom + h D has more than one zero mode, by the
    zero-mode rule of ``qops.null_space``, which ``steady_state`` applies."""
    dim = qops.null_space(model.generator() + h * _DRIVE)[1].shape[1]
    if dim > 1:
        raise DegenerateSteadyStateError(
            f"no superradiant fixed point at g = {g!r}: the atom in the field h = {h!r} has no "
            f"unique steady state (null dimension {dim})")


def superradiant_state(cavity: CavityParams, model: SpinModel, g: float) -> MeanFieldState:
    """The fixed point with alpha != 0 at coupling g: the root h* > 0 of F.

    F is bracketed on (1e-8 K/2, (1 + 1e-9) K/2]: |<sx>| <= 1/2 makes it
    positive at the top, and it is negative near 0 where the normal state is
    statically unstable; ``NoThresholdError`` names g where it keeps its sign
    (below the threshold, and under pure dephasing, where <sx>(h) = 0).
    ``DegenerateSteadyStateError`` where the atom has no unique steady state
    in the field (``_unique_in_field``) at the top of the bracket or at the
    root. The bottom, a field of 1e-8 the top, is not judged: there pure
    dephasing mixes the populations at about h^2 gamma / (omega_z^2 +
    gamma^2), below the rule, though its steady state 1/2 is unique.
    """
    k = 8.0 * g**2 * cavity.omega0 / _cavity_scale(cavity, "K")

    def f(h: float) -> float:
        return h + k * float((_SX_ROW @ _field_state(model, h)).real)

    lo, hi = 1e-8 * k / 2, (1 + 1e-9) * k / 2
    _unique_in_field(model, hi, g)
    try:
        f_lo, f_hi = f(lo), f(hi)
    except np.linalg.LinAlgError:
        raise DegenerateSteadyStateError(
            f"no superradiant fixed point at g = {g!r}: the atom in a field sx has no unique "
            "steady state") from None
    if (f_lo > 0) == (f_hi > 0):
        raise NoThresholdError(
            f"no superradiant fixed point at g = {g!r}: F(h) = h + K <sx>(h) keeps its "
            f"sign on ({lo!r}, {hi!r}]")
    h = _illinois(f, lo, hi, f_lo, f_hi)
    _unique_in_field(model, h, g)
    vec = _field_state(model, h)
    a, b = _linearization(cavity, model, vec, h)
    top, *_ = _top_mode(*_deflate(a + g * b))
    alpha = -2j * g * float((_SX_ROW @ vec).real) / (1j * cavity.omega0 + cavity.kappa)
    return MeanFieldState(alpha=alpha, rho=qops.devectorize(vec), top_eigenvalue=top)
