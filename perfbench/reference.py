"""Reference values written apart from dicke_critic, used to check its outputs.

Nothing here imports the package. The closed forms are the ones the paper
reduces the problem to:

    chi(omega) = 4 <sz> omega_z / ((gamma_x - i omega)(gamma_y - i omega) + omega_z^2)
    g_c        = sqrt((omega0^2 + kappa^2) / (-2 omega0 chi0))
    g0         = (1/2) sqrt(omega_z (omega0^2 + kappa^2) / omega0)

with <sz>, gamma_x and gamma_y written out per bath. The dense N = 1
Liouvillian uses row-stacked density matrices, the opposite convention to
the package, so that a shared slip in vectorization cannot hide.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class CheckFailed(Exception):
    """An output of the program disagrees with the reference or a property."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Bath:
    """kind is dephasing (p = sz), thermal (p = T) or generalized (p = t)."""

    KEYS = {"dephasing": "sz", "thermal": "T", "generalized": "t"}

    kind: str
    gamma: float
    p: float

    def text(self) -> str:
        return f"{self.kind}(gamma={self.gamma!r}, {self.KEYS[self.kind]}={self.p!r})"


def _coth_half(omega_z, temperature):
    """1 + 2 n_Bose(omega_z, T) = coth(omega_z / 2T); 1 at T = 0."""
    with np.errstate(divide="ignore"):
        return np.where(temperature == 0.0, 1.0, 1.0 / np.tanh(omega_z / (2.0 * temperature)))


def steady_sz(kind: str, p, omega_z):
    """Steady <sz>; p is sz, T or t by bath kind. Arrays broadcast."""
    p = np.asarray(p, dtype=float)
    if kind == "dephasing":
        return p
    if kind == "thermal":
        with np.errstate(divide="ignore"):
            return np.where(p == 0.0, -0.5, -0.5 * np.tanh(omega_z / (2.0 * p)))
    return -0.5 * (1.0 - p * p) / (1.0 + p * p)


def transverse_rates(kind: str, gamma, p, omega_z):
    """Decay rates (gamma_x, gamma_y) of the sx and sy coherences."""
    gamma = np.asarray(gamma, dtype=float)
    if kind == "dephasing":
        return gamma, gamma
    if kind == "thermal":
        r = gamma * _coth_half(omega_z, np.asarray(p, dtype=float))
        return r, r
    return gamma * (1.0 - p) ** 2, gamma * (1.0 + p) ** 2


def slowest_rate(kind: str, gamma: float, p: float, omega_z: float) -> float:
    """Decay rate of the transverse coherence, the slowest mode of S_x(t)
    while the coherence oscillates (2 t gamma < omega_z for generalized)."""
    gx, gy = transverse_rates(kind, gamma, p, omega_z)
    return float(0.5 * (gx + gy))


def chi(kind: str, gamma, p, omega_z, omega):
    gx, gy = transverse_rates(kind, gamma, p, omega_z)
    sz = steady_sz(kind, p, omega_z)
    return 4.0 * sz * omega_z / ((gx - 1j * omega) * (gy - 1j * omega) + omega_z**2)


def chi0(kind: str, gamma, p, omega_z):
    gx, gy = transverse_rates(kind, gamma, p, omega_z)
    return 4.0 * steady_sz(kind, p, omega_z) * omega_z / (omega_z**2 + gx * gy)


def critical_coupling(chi_0, omega0, kappa):
    """g_c where chi0 < 0; nan elsewhere."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.sqrt((omega0**2 + kappa**2) / (-2.0 * omega0 * chi_0))


def polarized_coupling(omega_z, omega0, kappa):
    return 0.5 * np.sqrt(omega_z * (omega0**2 + kappa**2) / omega0)


def status(chi_0):
    """Outcome set by the sign of chi0 alone (array of str)."""
    chi_0 = np.asarray(chi_0)
    return np.where(
        chi_0 < 0.0, "ok",
        np.where(chi_0 > 0.0, "no-transition:inverted", "no-transition:unpolarized"),
    )


def max_rel_dev(a, b, floor: float = 1e-300) -> float:
    """max |a - b| / (|b| + floor) over the arrays (0 for empty arrays).

    The tiny default floor makes an exact zero match only an exact zero."""
    a, b = np.asarray(a), np.asarray(b)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - b) / (np.abs(b) + floor)))


# --- dense single-atom Liouvillian ------------------------------------------

_SX = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
_SZ = np.array([[0.5, 0.0], [0.0, -0.5]], dtype=complex)
_SM = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)


def single_atom_steady_state(
    omega0: float, kappa: float, omega_z: float, gamma: float, t: float, g: float, n_fock: int
) -> tuple[float, float]:
    """Steady (photon number, <sz>) for one atom with jump s- + t s+ at rate gamma.

    H = omega0 a+a + omega_z sz + 2 g sx (a + a+); dissipators in the doubled
    form rate (2 L rho L+ - L+L rho - rho L+L). Row-stacked vec(rho), so
    vec(A rho B) = kron(A, B.T) vec(rho). One row of the generator is replaced
    by the trace condition and the dense system solved directly.
    """
    a = np.diag(np.sqrt(np.arange(1, n_fock)), 1).astype(complex)
    eye_c, eye_2 = np.eye(n_fock), np.eye(2)
    big_a = np.kron(a, eye_2)
    sx, sz = np.kron(eye_c, _SX), np.kron(eye_c, _SZ)
    jump = np.kron(eye_c, _SM + t * _SM.conj().T)
    dim = 2 * n_fock
    eye = np.eye(dim)
    h = omega0 * big_a.conj().T @ big_a + omega_z * sz + 2.0 * g * sx @ (big_a + big_a.conj().T)
    gen = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for op, rate in ((big_a, kappa), (jump, gamma)):
        ldl = op.conj().T @ op
        gen += rate * (2.0 * np.kron(op, op.conj()) - np.kron(ldl, eye) - np.kron(eye, ldl.T))
    rhs = np.zeros(dim * dim, dtype=complex)
    gen[0] = 0.0
    gen[0, np.arange(dim) * (dim + 1)] = 1.0
    rhs[0] = 1.0
    rho = np.linalg.solve(gen, rhs).reshape(dim, dim)
    photons = float(np.real(np.trace(big_a.conj().T @ big_a @ rho)))
    return photons, float(np.real(np.trace(sz @ rho)))
