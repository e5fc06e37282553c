"""Exact Liouvillian of the full model at small atom number.

N identical atoms with the same local channels (doubled dissipator
convention) couple collectively to one cavity mode truncated at n_fock
photon states. The steady state is permutation symmetric and is solved in
the count basis (Shammah et al., PRA 98, 063815 (2018)): an atomic operator
is a vector over the C(N+3, 3) count tuples n of the single-atom matrix
units u = |i><j|, entry n weighting the sum over all arrangements of those
units. A sum over the atoms of a single-atom superoperator S moves one
unit u -> v with weight S[v, u] (n_v + 1), and keeps S[u, u] n_u on the
diagonal. Each generator term is a ``qops`` cavity superoperator (x) such
a lift; the steady state is one bordered sparse LU solve. As an oracle,
the single-atom correlator at g = 0 must match the single-spin engine, and
the photon number shows the finite-size onset near the infinite-N g_c.

The generator is linear in the coupling, L(g) = A - (2i g/sqrt(N)) B: A is
the cavity generator (x) 1 + 1 (x) the lifted atomic generator, B the
coupling commutator. A, B, the solved block of both, the trace row and the
observable rows depend only on the family (N, n_fock, omega0, kappa, the
bytes of the single-atom generator), so ``generator_family`` builds them
once per family and keeps the last MAX_FAMILIES families by value, their
arrays read-only; each coupling then costs one sparse A - s B per matrix
and the LU.

The unknowns form an n_fock x n_fock grid of cavity elements |k><m|, each
node holding a count vector, and every generator term moves k and m by at
most one. The family orders the solved unknowns by nested dissection of
that grid (George, SIAM J. Numer. Anal. 10, 345 (1973)), counts in order
within a node, and the LU factors in that order: at N = 5, n_fock = 12 its
fill is 1.84M against 2.4-3.3M with minimum degree on A + A^T.

Parity: Pi = exp(i pi (a+a + sum (sz + 1/2))) commutes with omega0 a+a, the
kappa a channel, the coupling (a + a+) sx and every catalog channel (sz;
s- and s+; s- + t s+), so the generator never couples unknowns of even
parity (k - m) + n_10 + n_01 (cavity element |k><m|) to odd ones, and a
unique steady state is even; it is solved on the even block whenever the
single-atom generator has no entry between diagonal and coherence units.

State vectors are vec(cavity) (x) count vector, in the column-stacking
order of ``qops``: the units are |0><0|, |1><0|, |0><1|, |1><1|, so at
N = 1 the count tuples are the four units in that order.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import qops
from .baths import CavityParams
from .errors import (ConvergenceError, DegenerateSteadyStateError, InvalidModelError,
                     PreconditionError)
from .lindblad import CorrelationSeries, SpinModel, correlation_series_from_generator, steady_state

# 128^2, vec(rho) at Hilbert dimension 128: every N <= 4 system up to that dimension fits
MAX_UNKNOWNS = 16384
# the regression correlator steps a dense propagator exp(L dt) of dimension dim^2
_DENSE_PROPAGATOR_DIM = 64
# families kept by generator_family: N = 1..6 interleaved at each coupling never evict each other
MAX_FAMILIES = 8
Ops = Mapping[str, sp.csr_matrix | np.ndarray]  # what embedded_ops returns


@dataclass(frozen=True)
class FullSystemSpec:
    n_atoms: int
    n_fock: int
    g: float
    cavity: CavityParams
    model: SpinModel

    def __post_init__(self):
        if self.n_atoms < 1:
            raise InvalidModelError(f"n_atoms = {self.n_atoms} must be >= 1")
        if self.n_fock < 2:
            raise InvalidModelError(f"n_fock = {self.n_fock} must be >= 2")
        if self.unknowns > MAX_UNKNOWNS:
            raise InvalidModelError(f"{self.unknowns} unknowns (C(N+3, 3) n_fock^2 at N = "
                                    f"{self.n_atoms}, n_fock = {self.n_fock}) > {MAX_UNKNOWNS}")

    @property
    def hilbert_dim(self) -> int:
        return 2**self.n_atoms * self.n_fock

    @property
    def unknowns(self) -> int:
        """Length of the count-basis state vector."""
        return math.comb(self.n_atoms + 3, 3) * self.n_fock**2


def annihilation(n_fock: int) -> sp.csr_matrix:
    return sp.diags(np.sqrt(np.arange(1, n_fock)), 1).astype(complex).tocsr()


def _lift(s: np.ndarray, counts: np.ndarray) -> sp.csr_matrix:
    """Sum over the atoms of the single-atom 4x4 superoperator s, on the count basis.

    Each atom maps unit u to sum_v s[v, u] unit v, so the sum takes tuple n
    to m = n - e_u + e_v with weight s[v, u] m_v (m_v = n_v when v = u).
    """
    index = np.zeros((counts[0].sum() + 1,) * 4, dtype=int)
    index[tuple(counts.T)] = np.arange(len(counts))
    v, u = np.nonzero(s)
    dest = counts + (np.eye(4, dtype=int)[v] - np.eye(4, dtype=int)[u])[:, None, :]
    weight = s[v, u][:, None] * (counts[:, v].T + (v != u)[:, None])
    moved = counts[:, u].T > 0  # (pair, tuple): the tuple holds a unit u to move
    entries = (weight[moved], (index[tuple(dest[moved].T)], np.nonzero(moved)[1]))
    return sp.csr_matrix(entries, shape=(len(counts),) * 2)


def embedded_ops(spec: FullSystemSpec) -> Ops:
    """The count-basis atomic operators that the generator and the observables share.

    Sums over the atoms of the single-atom generator ("atoms"), of left and
    right multiplication by sx ("left_x", "right_x") and of left
    multiplication by sz ("left_z"); the trace row ("trace"): the
    multinomial C(N, n_00) on tuples of diagonal units, 0 elsewhere; and the
    coherence units n_10 + n_01 of each tuple ("coherences").
    """
    units = np.array(list(itertools.combinations_with_replacement(range(4), spec.n_atoms)))
    counts = np.stack([np.count_nonzero(units == u, axis=1) for u in range(4)], axis=1)
    eye, sx, sz = np.eye(2), qops.sigma("x"), qops.sigma("z")
    weights = [math.comb(spec.n_atoms, int(n)) for n in counts[:, 0]]
    return {
        "atoms": _lift(spec.model.generator(), counts),
        "left_x": _lift(np.kron(eye, sx), counts),
        "right_x": _lift(np.kron(sx.T, eye), counts),
        "left_z": _lift(np.kron(eye, sz), counts),
        "trace": np.where(counts[:, 1] + counts[:, 2] == 0, weights, 0).astype(float),
        "coherences": counts[:, 1] + counts[:, 2],
    }


@dataclass(frozen=True)
class GeneratorFamily:
    """The parts of the generator and of its solve that do not depend on g (read-only).

    base = cavity generator (x) 1 + 1 (x) ops["atoms"]; interaction = L (x)
    ops["left_x"] - R (x) ops["right_x"], L and R the left and right
    multiplication by a + a+. keep lists the unknowns solved for in the
    order of the LU, unknown 0 last; trace is the trace row r of
    steady_full, and the bordered matrices are rows keep[:-1] of base over
    r and those of interaction over a zero row, on columns keep. rows are
    the photon-number, <sz> and <sx> rows of Observables.
    """

    ops: Ops
    base: sp.csr_matrix
    interaction: sp.csr_matrix
    keep: np.ndarray
    trace: np.ndarray
    bordered_base: sp.csc_matrix
    bordered_interaction: sp.csc_matrix
    rows: tuple[np.ndarray, np.ndarray, np.ndarray]


def _read_only(a):
    for array in (a.data, a.indices, a.indptr) if sp.issparse(a) else (a,):
        array.flags.writeable = False
    return a


def _dissection(k: range, m: range) -> list[tuple[int, int]]:
    """The photon pairs (k, m) of a box of the grid in nested-dissection order.

    The wider span splits at its middle row or column, which follows both
    halves; a box of at most 4 nodes keeps vec order.
    """
    if len(k) * len(m) <= 4:
        return [(i, j) for j in m for i in k]
    if len(k) >= len(m):
        h = len(k) // 2
        return _dissection(k[:h], m) + _dissection(k[h + 1:], m) + [(k[h], j) for j in m]
    h = len(m) // 2
    return _dissection(k, m[:h]) + _dissection(k, m[h + 1:]) + [(i, m[h]) for i in k]


def _build_family(spec: FullSystemSpec) -> GeneratorFamily:
    ops = embedded_ops(spec)
    a = annihilation(spec.n_fock)
    channels = [qops.LindbladChannel(a, spec.cavity.kappa)] if spec.cavity.kappa > 0 else []
    cavity = qops.lindblad_generator(spec.cavity.omega0 * (a.conj().T @ a), channels)
    eye, drive = sp.identity(spec.n_fock), a + a.conj().T
    interaction = (sp.kron(sp.kron(eye, drive), ops["left_x"])
                   - sp.kron(sp.kron(drive.T, eye), ops["right_x"])).tocsr()
    base = (sp.kron(cavity, sp.identity(ops["atoms"].shape[0]))
            + sp.kron(sp.identity(cavity.shape[0]), ops["atoms"])).tocsr()
    cavity_trace = qops.trace_functional(spec.n_fock)
    trace = np.kron(cavity_trace, ops["trace"])
    coherences, atoms = ops["coherences"], ops["atoms"].tocoo()
    k, m = np.array(_dissection(range(spec.n_fock), range(spec.n_fock))).T
    keep = ((k + spec.n_fock * m)[:, None] * len(coherences) + np.arange(len(coherences))).ravel()
    if not np.any((coherences[atoms.row] - coherences[atoms.col]) % 2):
        keep = keep[np.add.outer(k + m, coherences).ravel() % 2 == 0]
    keep = np.append(keep[keep != 0], 0)  # the trace row stands in for the row of unknown 0

    def bordered(op, bottom):
        return _read_only(sp.vstack([op[keep[:-1]][:, keep], bottom], format="csc"))

    number = qops.observable_row(np.diag(np.arange(spec.n_fock, dtype=complex)))
    rows = (np.kron(number, ops["trace"]),
            np.kron(cavity_trace, ops["trace"] @ ops["left_z"]) / spec.n_atoms,
            np.kron(cavity_trace, ops["trace"] @ ops["left_x"]) / spec.n_atoms)
    return GeneratorFamily(
        ops=MappingProxyType({k: _read_only(v) for k, v in ops.items()}),
        base=_read_only(base),
        interaction=_read_only(interaction),
        keep=_read_only(keep),
        trace=_read_only(trace),
        bordered_base=bordered(base, sp.csr_matrix(trace[keep])),
        bordered_interaction=bordered(interaction, sp.csr_matrix((1, len(keep)), dtype=complex)),
        rows=tuple(_read_only(row) for row in rows),
    )


_FAMILIES: dict[tuple, GeneratorFamily] = {}  # least recently used first


def generator_family(spec: FullSystemSpec) -> GeneratorFamily:
    """The g-independent parts for spec, built on the first call for its family.

    Keyed by value, since callers build a fresh SpinModel per point; the
    last MAX_FAMILIES families used are kept.
    """
    key = (spec.n_atoms, spec.n_fock, spec.cavity.omega0, spec.cavity.kappa,
           spec.model.generator().tobytes())
    family = _FAMILIES.pop(key, None)
    if family is None:
        family = _build_family(spec)
        if len(_FAMILIES) >= MAX_FAMILIES:
            del _FAMILIES[next(iter(_FAMILIES))]
    _FAMILIES[key] = family
    return family


def _coupling(spec: FullSystemSpec) -> complex:
    """s in L(g) = A - s B."""
    return 2j * spec.g / np.sqrt(spec.n_atoms)


def build_full_generator(spec: FullSystemSpec) -> sp.csr_matrix:
    """Sparse generator on the count-basis state vector: base - (2i g/sqrt(N)) interaction."""
    family = generator_family(spec)
    return family.base - _coupling(spec) * family.interaction


def steady_full(spec: FullSystemSpec) -> np.ndarray:
    """Unique steady state as a count-basis vector x, with r @ x = 1 for the trace row r.

    The even-parity unknowns are solved for when ops["atoms"] never moves
    n_10 + n_01 by an odd number (module docstring), all of them otherwise;
    unknown 0 is even. r = kron(qops.trace_functional(n_fock), ops["trace"])
    replaces the row of unknown 0 in that block L, and sparse LU solves
    L' x = e for e the unit vector of that row, last in the order of
    family.keep. Tr o L = 0 makes that row of L a combination of the
    others, so L' is singular exactly when the null space of L has dimension > 1
    (DegenerateSteadyStateError); a solution that leaves the full generator
    times x != 0 is a ConvergenceError. The block solve cannot see a null
    vector that lives only in the odd block; the kernel of a Lindbladian is
    spanned by steady density matrices, so that would be a second steady
    state, which only the zero pivot and the checks here guard against.
    Without an atomic channel of positive rate the collective coupling
    conserves total spin, so for N >= 2 every total-spin sector holds a
    steady state; that case is rejected before the solve, since LU pivots
    need not vanish exactly.
    """
    point = (f"n_atoms = {spec.n_atoms}, n_fock = {spec.n_fock}, g = {spec.g}, omega_z = "
             f"{spec.model.omega_z}, omega0 = {spec.cavity.omega0}, kappa = {spec.cavity.kappa}")
    if spec.n_atoms > 1 and not any(ch.rate > 0 for ch in spec.model.channels):
        raise DegenerateSteadyStateError(f"total spin is conserved at {point}: no atomic "
                                         "channel has a positive rate")
    family = generator_family(spec)
    gen = build_full_generator(spec)
    bordered = family.bordered_base - _coupling(spec) * family.bordered_interaction
    rhs = np.zeros(len(family.keep), dtype=complex)
    rhs[-1] = 1.0
    x = np.zeros(gen.shape[0], dtype=complex)
    try:
        # factored in the nested-dissection order of keep; the diagonal pivot stands unless it
        # is below 0.1 of its column (with 1.0, N = 3 fill drifts from 245k to 352k with g)
        lu = spla.splu(bordered, permc_spec="NATURAL", diag_pivot_thresh=0.1,
                       options={"SymmetricMode": True})
        x[family.keep] = lu.solve(rhs)
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise DegenerateSteadyStateError(
            f"full steady state is degenerate at {point}: bordered generator is singular ({exc})"
        ) from None
    residual = np.max(np.abs(gen @ x))
    if not residual <= 1e-8:  # also catches a non-finite solution
        raise ConvergenceError(f"direct steady-state solve left residual {residual} at {point}")
    return x / (family.trace @ x)


@dataclass(frozen=True)
class Observables:
    photon_number: float
    sz_mean: float
    sx_mean: float


def full_steady_observables(spec: FullSystemSpec) -> Observables:
    x = steady_full(spec)
    return Observables(*(float(np.real(row @ x)) for row in generator_family(spec).rows))


def cutoff_stability(spec: FullSystemSpec, extra: int = 4,
                     observables: Observables | None = None) -> float:
    """Relative photon-number change when the Fock cutoff grows by `extra`.

    observables, when given, are those of spec, which is then not solved again.
    """
    if observables is None:
        observables = full_steady_observables(spec)
    wider = dataclasses.replace(spec, n_fock=spec.n_fock + extra)
    n0, n1 = observables.photon_number, full_steady_observables(wider).photon_number
    return abs(n1 - n0) / max(abs(n0), 1e-300)


def full_regression_sx(
    spec: FullSystemSpec,
    tmax: float | None = None,
    dt: float | None = None,
    times: np.ndarray | None = None,
) -> CorrelationSeries:
    """Atomic S_x(t) evaluated inside the full Hilbert space at g = 0.

    Validates the full generator against the single-spin engine, which the
    decoupled atom must reproduce. The cavity starts in the vacuum (the
    g = 0 steady state for any kappa >= 0); the series is stepped by the
    dense propagator of the full generator, its tail closed without a
    full-space steady state.
    """
    if spec.n_atoms != 1:
        raise PreconditionError("the regression validation runs with exactly one atom")
    if spec.g != 0.0:
        raise PreconditionError("the regression validation requires g = 0")
    if spec.hilbert_dim > _DENSE_PROPAGATOR_DIM:
        raise PreconditionError(f"regression correlator steps a dense propagator: Hilbert "
                                f"dimension {spec.hilbert_dim} > {_DENSE_PROPAGATOR_DIM}")
    atom = steady_state(spec.model).rho
    rho_full = np.kron(np.diag(np.eye(spec.n_fock, dtype=complex)[0]), atom)  # cavity vacuum
    sx_full = np.kron(np.eye(spec.n_fock), qops.sigma("x"))
    # at N = 1 the generator acts on vec(A) (x) vec(B) for rho = A (x) B;
    # entry f of vec(A (x) B) is entry perm[f] of that product
    n = spec.n_fock
    perm = np.arange(4 * n * n).reshape(n, n, 2, 2).transpose(0, 2, 1, 3).ravel()
    gen = build_full_generator(spec).toarray()[np.ix_(perm, perm)]
    return correlation_series_from_generator(
        gen, rho_full @ sx_full, sx_full, omega_scale=spec.model.omega_z, tmax=tmax, dt=dt,
        times=times)
