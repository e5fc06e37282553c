"""Operator algebra for few-level systems.

The superoperator builders (``hamiltonian_superop``, ``dissipator``,
``lindblad_generator``) take numpy arrays or ``Triplets``, the package's
sparse form (numpy coordinate triplets), and return the generator in the
same representation: the dense 4x4 single-spin generator and the sparse
exact-N generator come from the same code, and neither loads scipy.

Conventions used throughout the package:

* spin operators carry the 1/2: ``sigma('x') = X/2`` etc., so that
  ``sigma('z')`` has eigenvalues +-1/2 and ``[sx, sy] = i sz``;
* raising/lowering are the full matrices, ``sigma('plus') = [[0,1],[0,0]]``;
* density matrices are vectorized by stacking columns (column-major), so
  ``vec(A rho B) = kron(B.T, A) @ vec(rho)``;
* Lindblad generators use the doubled normalization

      drho/dt = -i[h, rho] + sum_a rate_a * (2 L rho L+ - L+L rho - rho L+L)

  chosen so a ``sigma('z')`` channel with rate ``r`` decays coherences at
  exactly ``r``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError, InvalidModelError, PreconditionError, UnknownOperatorError,
)

HERMITICITY_TOL = 1e-12
# a density matrix's trace, Hermiticity and eigenvalues may miss by this much
DENSITY_MATRIX_TOL = 1e-9
# |lambda + i omega| within this share of the spectral radius of L is a resonance with an
# undamped mode lambda, a null mode at omega = 0: null_space, the correlator window, the
# resolvent (and its residual) and the closed-form chi(omega) (of |omega_z|) all read it here
RESONANCE_TOL = 1e-12

_SIGMA = {
    "x": np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex),
    "y": np.array([[0.0, -0.5j], [0.5j, 0.0]], dtype=complex),
    "z": np.array([[0.5, 0.0], [0.0, -0.5]], dtype=complex),
    "plus": np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
    "minus": np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex),
}


def sigma(which: str) -> np.ndarray:
    """Spin-1/2 operator for a label in {x, y, z, plus, minus}."""
    try:
        return _SIGMA[which].copy()
    except KeyError:
        raise UnknownOperatorError(
            f"unknown spin operator {which!r}; expected one of {sorted(_SIGMA)}"
        ) from None


def is_hermitian(a, tol: float = HERMITICITY_TOL) -> bool:
    """Hermiticity test for numpy arrays or Triplets."""
    return bool(abs(_entries(a - a.conj().T)).max(initial=0.0) <= tol)


def validate_density_matrix(rho: np.ndarray) -> None:
    """Raise InvalidModelError unless rho is a density matrix to DENSITY_MATRIX_TOL."""
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise InvalidModelError(f"density matrix must be square, got shape {rho.shape}")
    if not np.all(np.isfinite(rho)):
        raise InvalidModelError("density matrix has non-finite entries")
    if abs(np.trace(rho) - 1.0) > DENSITY_MATRIX_TOL:
        raise InvalidModelError(f"density matrix trace {np.trace(rho)} != 1")
    if not is_hermitian(rho, DENSITY_MATRIX_TOL):
        raise InvalidModelError("density matrix is not Hermitian")
    if np.min(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))) < -DENSITY_MATRIX_TOL:
        raise InvalidModelError("density matrix has a negative eigenvalue")


def vectorize(rho: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(rho, dtype=complex).reshape(-1, order="F")


def devectorize(v: np.ndarray) -> np.ndarray:
    d = int(round(np.sqrt(v.size)))
    return np.asarray(v, dtype=complex).reshape(d, d, order="F")


def trace_functional(d: int) -> np.ndarray:
    """Row vector r with r @ vec(rho) = Tr[rho]."""
    return vectorize(np.eye(d, dtype=complex))


def observable_row(a: np.ndarray) -> np.ndarray:
    """Row vector r with r @ vec(rho) = Tr[a rho]."""
    return vectorize(a.T)


@dataclass(frozen=True, eq=False)
class Triplets:
    """Sparse matrix as numpy coordinate triplets: data[i] sits at (row[i], col[i]).

    Entries at one position add up, in the order given. Sums, the adjoint
    and Kronecker products keep every triplet; canonical() sums duplicates
    and sorts by row, then column. Scalar multiples and products of two
    Triplets start from the canonical form, so each entry rounds as in the
    dense product. Only what the generator builders and the exact-N solve
    use is defined.
    """

    row: np.ndarray
    col: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    __array_ufunc__ = None  # numpy defers `vector @ triplets` to __rmatmul__

    @classmethod
    def identity(cls, d: int) -> Triplets:
        diagonal = np.arange(d)
        return cls(diagonal, diagonal, np.ones(d, dtype=complex), (d, d))

    @property
    def T(self) -> Triplets:
        return Triplets(self.col, self.row, self.data, self.shape[::-1])

    def conj(self) -> Triplets:
        return Triplets(self.row, self.col, self.data.conj(), self.shape)

    def __add__(self, other: Triplets) -> Triplets:
        if other.shape != self.shape:
            raise DimensionMismatchError(f"cannot add shapes {self.shape} and {other.shape}")
        return Triplets(np.concatenate([self.row, other.row]), np.concatenate([self.col, other.col]),
                        np.concatenate([self.data, other.data]), self.shape)

    def __neg__(self) -> Triplets:
        return Triplets(self.row, self.col, -self.data, self.shape)

    def __sub__(self, other: Triplets) -> Triplets:
        return self + -other

    def __mul__(self, scalar) -> Triplets:
        a = self.canonical()
        return Triplets(a.row, a.col, a.data * scalar, a.shape)

    __rmul__ = __mul__

    def __matmul__(self, other: Triplets) -> Triplets:
        """Product: entry (i, k) of self meets each entry (k, j) of other."""
        if self.shape[1] != other.shape[0]:
            raise DimensionMismatchError(f"cannot multiply shapes {self.shape} and {other.shape}")
        other = other.canonical()
        lo = np.searchsorted(other.row, self.col)
        n = np.searchsorted(other.row, self.col, side="right") - lo
        left = np.repeat(np.arange(len(self.data)), n)
        right = np.arange(n.sum()) + np.repeat(lo - np.cumsum(n) + n, n)
        return Triplets(self.row[left], other.col[right], self.data[left] * other.data[right],
                        (self.shape[0], other.shape[1])).canonical()

    def __rmatmul__(self, vector: np.ndarray) -> np.ndarray:
        """vector @ self, for a 1-d vector."""
        out = np.zeros(self.shape[1], dtype=np.result_type(vector, self.data))
        np.add.at(out, self.col, vector[self.row] * self.data)
        return out

    def kron(self, other: Triplets) -> Triplets:
        """Kronecker product: every pair of entries, as np.kron pairs them."""
        (m, n), (p, q) = self.shape, other.shape
        row = self.row.astype(np.int64)[:, None] * p + other.row
        col = self.col.astype(np.int64)[:, None] * q + other.col
        return Triplets(row.ravel(), col.ravel(), (self.data[:, None] * other.data).ravel(),
                        (m * p, n * q))

    def canonical(self) -> Triplets:
        """One entry per position, duplicates summed, sorted by row and then column."""
        key, slot = np.unique(self.row.astype(np.int64) * self.shape[1] + self.col,
                              return_inverse=True)
        data = np.zeros(len(key), dtype=self.data.dtype)
        np.add.at(data, slot, self.data)  # left to right, unlike np.add.reduceat
        row, col = np.divmod(key, self.shape[1])
        return Triplets(row, col, data, self.shape)

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.data.dtype)
        np.add.at(out, (self.row, self.col), self.data)
        return out


def _entries(a):
    """The entries of a numpy array, or the summed entries of Triplets."""
    return a.canonical().data if isinstance(a, Triplets) else a


@dataclass(frozen=True, eq=False)
class LindbladChannel:
    """Jump operator plus rate, in the doubled dissipator normalization."""

    op: np.ndarray = field(repr=False)  # numpy or Triplets
    rate: float

    def __post_init__(self):
        if not np.isfinite(self.rate):
            raise InvalidModelError(f"channel rate {self.rate} is not finite")
        if self.rate < 0:
            raise InvalidModelError(f"channel rate {self.rate} < 0")
        if not np.all(np.isfinite(_entries(self.op))):
            raise InvalidModelError("jump operator has non-finite entries")


def _dense_kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron(a, b) of 2-d arrays: the same products, without its any-rank set-up."""
    (m, n), (p, q) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * p, n * q)


def _kron_and_eye(a):
    """Kronecker product and identity in the representation of a."""
    if isinstance(a, Triplets):
        return Triplets.kron, Triplets.identity(a.shape[0])
    return _dense_kron, np.eye(a.shape[0], dtype=complex)


def dissipator(op, rate: float):
    """Superoperator of a single channel, doubled convention."""
    kron, eye = _kron_and_eye(op)
    ldl = op.conj().T @ op
    return rate * (2.0 * kron(op.conj(), op) - kron(eye, ldl) - kron(ldl.T, eye))


def hamiltonian_superop(h):
    """-i[h, .] on vec(rho), in the representation of h."""
    kron, eye = _kron_and_eye(h)
    return -1j * (kron(eye, h) - kron(h.T, eye))


def lindblad_generator(h, channels: list[LindbladChannel] | tuple):
    """Generator acting on vec(rho); a numpy array or Triplets like h, every entry finite."""
    if not is_hermitian(h):
        raise InvalidModelError("Hamiltonian must be Hermitian within 1e-12")
    gen = hamiltonian_superop(h)
    with np.errstate(over="ignore", invalid="ignore"):  # checked once, below
        for ch in channels:
            if ch.op.shape != h.shape:
                raise DimensionMismatchError(
                    f"channel operator shape {ch.op.shape} != Hamiltonian shape {h.shape}"
                )
            gen += dissipator(ch.op, ch.rate)
    if not np.isfinite(gen.data if isinstance(gen, Triplets) else gen).all():
        raise PreconditionError("the generator overflows the float range")
    return gen


def null_space(gen: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvectors of the generator with |eigenvalue| <= RESONANCE_TOL * spectral radius.

    Returns (eigenvalues, columns): the resonances at omega = 0, the same in any unit of L.
    """
    vals, vecs = np.linalg.eig(gen)
    mask = np.abs(vals) <= RESONANCE_TOL * float(np.max(np.abs(vals)))
    return vals[mask], vecs[:, mask]


def trace_border(mat: np.ndarray, rhs: np.ndarray, trace: complex):
    """Copies of mat and rhs with row 0 the trace row and rhs[0] the trace wanted of x.

    The border of each singular solve mat x = rhs, mat a generator L or L + i omega, Tr rhs = 0:
    Tr o L = 0, so row 0 follows from the others once Tr x is fixed (to 0 at omega != 0)."""
    mat, rhs = mat.copy(), rhs.astype(complex)
    mat[0], rhs[0] = trace_functional(math.isqrt(rhs.size)), trace
    return mat, rhs
