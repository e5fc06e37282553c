"""Operator algebra for few-level systems.

The superoperator builders (``hamiltonian_superop``, ``dissipator``,
``lindblad_generator``) take numpy or scipy.sparse operators and return
the generator in the same representation: the dense 4x4 single-spin
generator and the sparse exact-N generator come from the same code.

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

import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, InvalidModelError, UnknownOperatorError

HERMITICITY_TOL = 1e-12

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


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"incompatible shapes {a.shape} and {b.shape}")
    return a @ b - b @ a


def is_hermitian(a, tol: float = HERMITICITY_TOL) -> bool:
    """Hermiticity test for numpy or scipy.sparse operators."""
    return bool(abs(a - a.conj().T).max() <= tol)


def is_unitary(a: np.ndarray, tol: float = HERMITICITY_TOL) -> bool:
    return bool(np.max(np.abs(a @ a.conj().T - np.eye(a.shape[0]))) <= tol)


def is_positive_semidefinite(a: np.ndarray, tol: float = HERMITICITY_TOL) -> bool:
    if not is_hermitian(a, tol):
        return False
    return bool(np.min(np.linalg.eigvalsh(0.5 * (a + a.conj().T))) >= -tol)


def validate_density_matrix(rho: np.ndarray, tol: float = HERMITICITY_TOL) -> None:
    """Raise InvalidModelError unless rho is a valid density matrix."""
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise InvalidModelError(f"density matrix must be square, got shape {rho.shape}")
    if not np.all(np.isfinite(rho)):
        raise InvalidModelError("density matrix has non-finite entries")
    if abs(np.trace(rho) - 1.0) > tol:
        raise InvalidModelError(f"density matrix trace {np.trace(rho)} != 1")
    if not is_hermitian(rho, tol):
        raise InvalidModelError("density matrix is not Hermitian")
    if np.min(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))) < -tol:
        raise InvalidModelError("density matrix has a negative eigenvalue")


def vectorize(rho: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(rho, dtype=complex).reshape(-1, order="F")


def devectorize(v: np.ndarray, d: int | None = None) -> np.ndarray:
    if d is None:
        d = int(round(np.sqrt(v.size)))
    return np.asarray(v, dtype=complex).reshape(d, d, order="F")


def trace_functional(d: int) -> np.ndarray:
    """Row vector r with r @ vec(rho) = Tr[rho]."""
    return vectorize(np.eye(d, dtype=complex))


def observable_row(a: np.ndarray) -> np.ndarray:
    """Row vector r with r @ vec(rho) = Tr[a rho]."""
    return vectorize(a.T)


@dataclass(frozen=True, eq=False)
class LindbladChannel:
    """Jump operator plus rate, in the doubled dissipator normalization."""

    op: np.ndarray = field(repr=False)  # numpy or scipy.sparse
    rate: float

    def __post_init__(self):
        if not np.isfinite(self.rate):
            raise InvalidModelError(f"channel rate {self.rate} is not finite")
        if self.rate < 0:
            raise InvalidModelError(f"channel rate {self.rate} < 0")
        entries = self.op.data if _issparse(self.op) else self.op
        if not np.all(np.isfinite(entries)):
            raise InvalidModelError("jump operator has non-finite entries")


def _issparse(a) -> bool:
    """sp.issparse(a), without importing scipy.sparse: no sparse a exists before it is loaded."""
    sp = sys.modules.get("scipy.sparse")
    return sp is not None and sp.issparse(a)


def _dense_kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron(a, b) of 2-d arrays: the same products, without its any-rank set-up."""
    (m, n), (p, q) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * p, n * q)


def _sparse_kron(a, b):
    """sp.kron(a, b, format="csr"): the same entries and CSR structure, from COO indices."""
    import scipy.sparse as sp

    a, b = a.tocoo(), b.tocoo()
    (m, n), (p, q) = a.shape, b.shape
    row = a.row.astype(np.int64)[:, None] * p + b.row
    col = a.col.astype(np.int64)[:, None] * q + b.col
    data = a.data[:, None] * b.data
    return sp.csr_matrix((data.ravel(), (row.ravel(), col.ravel())), shape=(m * p, n * q))


def _kron_and_eye(a):
    """Kronecker product and identity in the representation of a."""
    d = a.shape[0]
    if _issparse(a):
        import scipy.sparse as sp

        return _sparse_kron, sp.identity(d, dtype=complex, format="csr")
    return _dense_kron, np.eye(d, dtype=complex)


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
    """Generator acting on vec(rho); numpy or scipy.sparse like h."""
    if not is_hermitian(h):
        raise InvalidModelError("Hamiltonian must be Hermitian within 1e-12")
    gen = hamiltonian_superop(h)
    for ch in channels:
        if ch.op.shape != h.shape:
            raise DimensionMismatchError(
                f"channel operator shape {ch.op.shape} != Hamiltonian shape {h.shape}"
            )
        if ch.rate < 0:
            raise InvalidModelError(f"channel rate {ch.rate} < 0")
        gen += dissipator(ch.op, ch.rate)
    return gen


def trace_preservation_defect(gen) -> float:
    """Sup-norm of the trace functional composed with the generator."""
    d = int(round(np.sqrt(gen.shape[0])))
    return float(np.max(np.abs(trace_functional(d) @ gen)))


def null_space(gen: np.ndarray, tol: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvectors of the generator with |eigenvalue| below tol * scale.

    Returns (eigenvalues, columns). tol is absolute when the spectrum is
    O(1); it is scaled by max(1, spectral radius) otherwise.
    """
    vals, vecs = np.linalg.eig(gen)
    scale = max(1.0, float(np.max(np.abs(vals))))
    mask = np.abs(vals) < tol * scale
    return vals[mask], vecs[:, mask]
