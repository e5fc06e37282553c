"""Exact Liouvillian of the full model at small atom number.

Builds the complete generator for N atoms (N <= 4) coupled to one cavity
mode truncated at n_fock photon states, with the cavity decay channel and
the per-atom channels all in the doubled dissipator convention. Serves as
an end-to-end oracle: at g = 0 the embedded single-atom correlator must
reproduce the single-spin engine, and the steady photon number exhibits
the finite-size superradiance onset around the infinite-N critical
coupling.

Tensor order is cavity (x) atom_1 (x) ... (x) atom_N.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import qops
from .baths import CavityParams
from .errors import (
    ConvergenceError,
    DegenerateSteadyStateError,
    InvalidModelError,
    PreconditionError,
)
from .lindblad import CorrelationSeries, SpinModel, correlation_series_from_generator, steady_state

MAX_HILBERT_DIM = 128
_DENSE_EIG_DIM = 64  # dense spectral correlator up to this Hilbert dimension
_DEGENERACY_CHECK_DIM = 32  # full null-space count is affordable below this


@dataclass(frozen=True)
class FullSystemSpec:
    n_atoms: int
    n_fock: int
    g: float
    cavity: CavityParams
    model: SpinModel

    def __post_init__(self):
        if not 1 <= self.n_atoms <= 4:
            raise InvalidModelError(f"n_atoms = {self.n_atoms} outside 1..4")
        if self.n_fock < 2:
            raise InvalidModelError(f"n_fock = {self.n_fock} must be >= 2")
        if self.hilbert_dim > MAX_HILBERT_DIM:
            raise InvalidModelError(
                f"Hilbert dimension {self.hilbert_dim} exceeds the desk-scale "
                f"guard {MAX_HILBERT_DIM}"
            )

    @property
    def hilbert_dim(self) -> int:
        return 2**self.n_atoms * self.n_fock


def _kron_chain(mats) -> sp.csr_matrix:
    out = mats[0]
    for m in mats[1:]:
        out = sp.kron(out, m, format="csr")
    return out.tocsr()


def annihilation(n_fock: int) -> sp.csr_matrix:
    return sp.diags(np.sqrt(np.arange(1, n_fock)), 1).astype(complex).tocsr()


def embedded_ops(spec: FullSystemSpec) -> dict[str, sp.csr_matrix]:
    """Cavity and per-atom operators lifted to the full Hilbert space."""
    n, nc = spec.n_atoms, spec.n_fock
    eye_c = sp.identity(nc, dtype=complex, format="csr")
    eye_2 = sp.identity(2, dtype=complex, format="csr")
    ops = {"a": _kron_chain([annihilation(nc)] + [eye_2] * n)}
    for j in range(n):
        for label in ("x", "y", "z", "plus", "minus"):
            chain = [eye_c] + [eye_2] * n
            chain[1 + j] = sp.csr_matrix(qops.sigma(label))
            ops[f"{label}{j}"] = _kron_chain(chain)
    return ops


def full_hamiltonian(spec: FullSystemSpec, ops: dict[str, sp.csr_matrix]) -> sp.csr_matrix:
    a = ops["a"]
    h = spec.cavity.omega0 * (a.conj().T @ a)
    drive = a + a.conj().T
    coupling = 2.0 * spec.g / np.sqrt(spec.n_atoms)
    for j in range(spec.n_atoms):
        h = h + spec.model.omega_z * ops[f"z{j}"]
        h = h + coupling * (ops[f"x{j}"] @ drive)
    return h.tocsr()


def _sparse_dissipator(op: sp.csr_matrix, rate: float, dim: int) -> sp.csr_matrix:
    eye = sp.identity(dim, dtype=complex, format="csr")
    ldl = (op.conj().T @ op).tocsr()
    return rate * (
        2.0 * sp.kron(op.conj(), op) - sp.kron(eye, ldl) - sp.kron(ldl.T, eye)
    )


def build_full_generator(
    spec: FullSystemSpec, ops: dict[str, sp.csr_matrix] | None = None
) -> sp.csr_matrix:
    """Sparse generator on vec(rho), cavity channel plus per-atom channels.

    ops are the embedded operators of spec, built here when not given.
    """
    if ops is None:
        ops = embedded_ops(spec)
    dim = spec.hilbert_dim
    h = full_hamiltonian(spec, ops)
    eye = sp.identity(dim, dtype=complex, format="csr")
    gen = -1j * (sp.kron(eye, h) - sp.kron(h.T, eye))
    if spec.cavity.kappa > 0:
        gen = gen + _sparse_dissipator(ops["a"], spec.cavity.kappa, dim)
    for ch in spec.model.channels:
        for j in range(spec.n_atoms):
            chain = [sp.identity(spec.n_fock, dtype=complex, format="csr")]
            chain += [sp.identity(2, dtype=complex, format="csr")] * spec.n_atoms
            chain[1 + j] = sp.csr_matrix(ch.op)
            gen = gen + _sparse_dissipator(_kron_chain(chain), ch.rate, dim)
    return gen.tocsr()


def trace_preservation_defect(gen: sp.csr_matrix) -> float:
    dim = int(round(np.sqrt(gen.shape[0])))
    tr_row = np.zeros(dim * dim)
    tr_row[np.arange(dim) * (dim + 1)] = 1.0
    return float(np.max(np.abs(tr_row @ gen)))


def steady_full(
    spec: FullSystemSpec, method: str = "auto", ops: dict[str, sp.csr_matrix] | None = None
) -> np.ndarray:
    """Steady density matrix of the full system (must be unique).

    method "dense" counts the null space by full eigendecomposition and can
    type a degeneracy exactly; "direct" replaces one generator row by the
    trace functional and solves the bordered sparse system, which is far
    cheaper and fails with a residual diagnostic if the steady state is not
    unique. "auto" picks dense only at small dimension. ops are passed on
    to build_full_generator.
    """
    gen = build_full_generator(spec, ops)
    dim = spec.hilbert_dim
    if method == "auto":
        method = "dense" if dim <= _DEGENERACY_CHECK_DIM else "direct"
    if method == "dense":
        vals, vecs = np.linalg.eig(gen.toarray())
        scale = max(1.0, float(np.max(np.abs(vals))))
        null = np.flatnonzero(np.abs(vals) < 1e-9 * scale)
        if null.size == 0:
            raise ConvergenceError("no zero eigenvalue found in the full generator")
        if null.size > 1:
            raise DegenerateSteadyStateError(
                f"full steady state is degenerate (null dimension {null.size})"
            )
        rho = vecs[:, null[0]].reshape(dim, dim, order="F")
    elif method == "direct":
        a = gen.tolil()
        tr_row = np.zeros(dim * dim)
        tr_row[np.arange(dim) * (dim + 1)] = 1.0
        a[0] = tr_row
        b = np.zeros(dim * dim, dtype=complex)
        b[0] = 1.0
        x = spla.spsolve(a.tocsc(), b)
        residual = np.max(np.abs(gen @ x)) if np.all(np.isfinite(x)) else np.inf
        if not np.isfinite(residual) or residual > 1e-8:
            raise ConvergenceError(
                f"direct steady-state solve left residual {residual}; "
                "the steady state may be degenerate"
            )
        rho = x.reshape(dim, dim, order="F")
    else:
        raise PreconditionError(f"unknown method {method!r}")
    rho = rho / np.trace(rho)
    return 0.5 * (rho + rho.conj().T)


@dataclass(frozen=True)
class Observables:
    photon_number: float
    sz_mean: float
    sx_mean: float


def full_steady_observables(spec: FullSystemSpec) -> Observables:
    ops = embedded_ops(spec)
    rho = steady_full(spec, ops=ops)
    number = (ops["a"].conj().T @ ops["a"]).tocsr()

    def expect(op: sp.csr_matrix) -> float:
        return float(np.real(np.trace(op @ rho)))

    n = spec.n_atoms
    return Observables(
        photon_number=expect(number),
        sz_mean=sum(expect(ops[f"z{j}"]) for j in range(n)) / n,
        sx_mean=sum(expect(ops[f"x{j}"]) for j in range(n)) / n,
    )


def observables_csv(rows: list[tuple[float, Observables]]) -> str:
    """CSV text with columns g, photon_number, sz_mean."""
    lines = ["g,photon_number,sz_mean"]
    for g, obs in rows:
        lines.append(
            ",".join(format(v + 0.0, ".17g") for v in (g, obs.photon_number, obs.sz_mean))
        )
    return "\n".join(lines) + "\n"


def cutoff_stability(spec: FullSystemSpec, extra: int = 4) -> float:
    """Relative photon-number change when the Fock cutoff grows by `extra`."""
    wider = dataclasses.replace(spec, n_fock=spec.n_fock + extra)
    n0 = full_steady_observables(spec).photon_number
    n1 = full_steady_observables(wider).photon_number
    return abs(n1 - n0) / max(abs(n0), 1e-300)


def full_regression_sx(
    spec: FullSystemSpec,
    tmax: float | None = None,
    dt: float | None = None,
    times: np.ndarray | None = None,
) -> CorrelationSeries:
    """Atomic S_x(t) evaluated inside the full Hilbert space at g = 0.

    Validates the embedding against the single-spin engine: the atoms are
    decoupled from the cavity, so the full-space correlator of atom 0 must
    match the single-spin result. The cavity factor of the initial state
    is the vacuum (the g = 0 steady state for any kappa >= 0).
    """
    if spec.n_atoms != 1:
        raise PreconditionError("the regression validation runs with exactly one atom")
    if spec.g != 0.0:
        raise PreconditionError("the regression validation requires g = 0")
    if spec.hilbert_dim > _DENSE_EIG_DIM:
        raise PreconditionError(
            f"regression correlator needs Hilbert dimension <= {_DENSE_EIG_DIM}"
        )
    atom = steady_state(spec.model).rho
    vac = np.zeros((spec.n_fock, spec.n_fock), dtype=complex)
    vac[0, 0] = 1.0
    rho_full = np.kron(vac, atom)
    ops = embedded_ops(spec)
    sx_full = ops["x0"].toarray()
    gen = build_full_generator(spec).toarray()
    return correlation_series_from_generator(
        gen,
        rho_full @ sx_full,
        sx_full,
        omega_scale=spec.model.omega_z,
        tmax=tmax,
        dt=dt,
        times=times,
    )
