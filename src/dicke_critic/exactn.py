"""Exact Liouvillian of the full model at small atom number.

Builds the complete generator for N atoms (N <= 4) coupled to one cavity
mode truncated at n_fock photon states, with the cavity decay channel and
the per-atom channels all in the doubled dissipator convention. The
operators are lifted to the full space as scipy.sparse matrices and handed
to the same builder as the single-spin engine, ``qops.lindblad_generator``;
the steady state is one bordered sparse LU solve. Serves as
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
# the regression correlator steps a dense expm propagator of dimension dim^2
_DENSE_PROPAGATOR_DIM = 64


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


def annihilation(n_fock: int) -> sp.csr_matrix:
    return sp.diags(np.sqrt(np.arange(1, n_fock)), 1).astype(complex).tocsr()


def _embed(spec: FullSystemSpec, factor, slot: int) -> sp.csr_matrix:
    """factor at tensor slot `slot` (0 = cavity, 1 + j = atom j), identities elsewhere."""
    chain = [sp.identity(spec.n_fock, dtype=complex, format="csr")]
    chain += [sp.identity(2, dtype=complex, format="csr")] * spec.n_atoms
    chain[slot] = sp.csr_matrix(factor)
    out = chain[0]
    for m in chain[1:]:
        out = sp.kron(out, m, format="csr")
    return out


def embedded_ops(spec: FullSystemSpec) -> dict[str, sp.csr_matrix]:
    """The cavity a and the per-atom sx, sz lifted to the full Hilbert space."""
    ops = {"a": _embed(spec, annihilation(spec.n_fock), 0)}
    for j in range(spec.n_atoms):
        for label in ("x", "z"):
            ops[f"{label}{j}"] = _embed(spec, qops.sigma(label), 1 + j)
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


def build_full_generator(
    spec: FullSystemSpec, ops: dict[str, sp.csr_matrix] | None = None
) -> sp.csr_matrix:
    """Sparse generator on vec(rho), cavity channel plus per-atom channels.

    ops are the embedded operators of spec, built here when not given.
    """
    if ops is None:
        ops = embedded_ops(spec)
    channels = []
    if spec.cavity.kappa > 0:
        channels.append(qops.LindbladChannel(ops["a"], spec.cavity.kappa))
    for ch in spec.model.channels:
        for j in range(spec.n_atoms):
            channels.append(qops.LindbladChannel(_embed(spec, ch.op, 1 + j), ch.rate))
    return qops.lindblad_generator(full_hamiltonian(spec, ops), channels)


def steady_full(spec: FullSystemSpec, ops: dict[str, sp.csr_matrix] | None = None) -> np.ndarray:
    """Steady density matrix of the full system (must be unique).

    Replaces row 0 of the generator by the trace functional and solves the
    bordered system L' x = e_0 by sparse LU. Tr o L = 0 makes row 0 of L a
    combination of the others, so L' is singular exactly when the null
    space of L has dimension > 1: a singular factorization is reported as
    DegenerateSteadyStateError, a solution that leaves L x != 0 as
    ConvergenceError. ops are passed on to build_full_generator.
    """
    gen = build_full_generator(spec, ops)
    dim = spec.hilbert_dim
    bordered = gen.tolil()
    bordered[0] = qops.trace_functional(dim)
    rhs = np.zeros(dim * dim, dtype=complex)
    rhs[0] = 1.0
    try:
        x = spla.splu(bordered.tocsc()).solve(rhs)
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise DegenerateSteadyStateError(
            f"full steady state is degenerate: bordered generator is singular ({exc})"
        ) from None
    residual = np.max(np.abs(gen @ x))
    if not residual <= 1e-8:  # also catches a non-finite solution
        raise ConvergenceError(f"direct steady-state solve left residual {residual}")
    rho = x.reshape(dim, dim, order="F")
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
    is the vacuum (the g = 0 steady state for any kappa >= 0). The series
    is stepped by the dense propagator of the full generator, and its tail
    is closed without a full-space steady state.
    """
    if spec.n_atoms != 1:
        raise PreconditionError("the regression validation runs with exactly one atom")
    if spec.g != 0.0:
        raise PreconditionError("the regression validation requires g = 0")
    if spec.hilbert_dim > _DENSE_PROPAGATOR_DIM:
        raise PreconditionError(
            f"regression correlator steps a dense propagator: Hilbert dimension "
            f"{spec.hilbert_dim} > {_DENSE_PROPAGATOR_DIM}"
        )
    atom = steady_state(spec.model).rho
    vac = np.zeros((spec.n_fock, spec.n_fock), dtype=complex)
    vac[0, 0] = 1.0
    rho_full = np.kron(vac, atom)
    ops = embedded_ops(spec)
    sx_full = ops["x0"].toarray()
    gen = build_full_generator(spec, ops).toarray()
    return correlation_series_from_generator(
        gen,
        rho_full @ sx_full,
        sx_full,
        omega_scale=spec.model.omega_z,
        tmax=tmax,
        dt=dt,
        times=times,
    )
