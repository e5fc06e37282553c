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
a lift; the steady state is one bordered solve by dense fronts. As an oracle,
the single-atom correlator at g = 0 must match the single-spin engine, and
the photon number shows the finite-size onset near the infinite-N g_c.

The generator is linear in the coupling, L(g) = A - (2i g/sqrt(N)) B: A is
the cavity generator (x) 1 + 1 (x) the lifted atomic generator, B the
coupling commutator. A, B, the entries of the solved block of both, its
fronts, the trace row and the observable rows depend only on the family
(N, n_fock, omega0, kappa, the bytes of the single-atom generator), so
``generator_family`` builds them once per family and keeps the last
MAX_FAMILIES families by value, their arrays read-only; each coupling then
costs one A - s B over those entries, one scatter per front and LAPACK.

The unknowns form an n_fock x n_fock grid of cavity elements |k><m|, each
node holding a count vector, and no generator term moves the diagonal
d = m - k by more than one: the Hamiltonian keeps (k, m), the kappa jump
a rho a+ lowers k and m together, and the coupling moves k alone or m
alone. Grouped by diagonal, the unknowns thus form a chain, and the block
tridiagonal system is solved by block Thomas elimination: each diagonal of
the k < m side, d = n_fock - 1 down to 1, is a dense front that LAPACK
eliminates, its Schur complement added onto the next diagonal, and the
diagonal d = 0 is the root, solved last. The diagonal nodes must wait for
the root: their cavity part -2 kappa k vanishes at k = 0 and, at kappa = 0,
at every k, which leaves a node's block the lifted atomic generator,
singular at g = 0 and nearly so at small kappa; the trace row, which lives
on those nodes, is solved last in the root.

Hermiticity: a Lindbladian maps rho+ to (L rho)+ (Minganti, Biella, Bartolo
& Ciuti, PRA 98, 042118 (2018)). On the count basis the adjoint J takes
unknown (k, m, n) to (m, k, n with n_10 and n_01 swapped) and conjugates
it, so P^T L P = conj(L) for the permutation P of J, for every SpinModel.
The k > m side is thus the mirror image of the k < m side, and only the
k < m fronts are eliminated: the root adds the Schur complement of d = 1
and its mirror image, that of d = -1, and each k > m unknown is the
conjugate of its k < m image.
The steady state is Hermitian, x[J i] = conj(x[i]), exactly off the
diagonal nodes and to rounding on them (~1e-16 of max|x|).

Parity: Pi = exp(i pi (a+a + sum (sz + 1/2))) commutes with omega0 a+a, the
kappa a channel, the coupling (a + a+) sx and every catalog channel (sz;
s- and s+; s- + t s+), so the generator never couples unknowns of even
parity (k - m) + n_10 + n_01 (cavity element |k><m|) to odd ones, and a
unique steady state is even; it is solved on the even block whenever the
single-atom generator has no entry between diagonal and coherence units.
J keeps the parity, so it maps the even block onto itself.

State vectors are vec(cavity) (x) count vector, in the column-stacking
order of ``qops``: the units are |0><0|, |1><0|, |0><1|, |1><1|, so at
N = 1 the count tuples are the four units in that order.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np
import scipy.sparse as sp

from . import qops
from .baths import CavityParams
from .errors import (ConvergenceError, DegenerateSteadyStateError, InvalidModelError,
                     PreconditionError)
from .lindblad import CorrelationSeries, SpinModel, correlation_series_from_generator, steady_state

# 128^2 count-basis unknowns C(N+3, 3) n_fock^2: N <= 6 at n_fock = 12 (12096), not N = 7 (17280)
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
        for name in ("n_atoms", "n_fock"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise InvalidModelError(f"{name} = {getattr(self, name)!r} must be an integer")
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


def _tuple_index(counts: np.ndarray) -> np.ndarray:
    """index[n] = the position of count tuple n in counts."""
    index = np.zeros((counts[0].sum() + 1,) * 4, dtype=int)
    index[tuple(counts.T)] = np.arange(len(counts))
    return index


def _lift(s: np.ndarray, counts: np.ndarray) -> sp.csr_matrix:
    """Sum over the atoms of the single-atom 4x4 superoperator s, on the count basis.

    Each atom maps unit u to sum_v s[v, u] unit v, so the sum takes tuple n
    to m = n - e_u + e_v with weight s[v, u] m_v (m_v = n_v when v = u).
    """
    index = _tuple_index(counts)
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
    multinomial C(N, n_00) on tuples of diagonal units, 0 elsewhere; the
    coherence units n_10 + n_01 of each tuple ("coherences"); and the index
    of each tuple's adjoint, n_10 and n_01 swapped ("adjoint").
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
        "adjoint": _tuple_index(counts)[tuple(counts[:, [0, 2, 1, 3]].T)],
    }


@dataclass(frozen=True)
class GeneratorFamily:
    """The parts of the generator and of its solve that do not depend on g (read-only).

    base = cavity generator (x) 1 + 1 (x) ops["atoms"]; interaction = L (x)
    ops["left_x"] - R (x) ops["right_x"], L and R the left and right
    multiplication by a + a+. J maps unknown (k, m, n) to (m, k, n with n_10
    and n_01 swapped), the count-basis image of rho -> rho+, and the steady
    state x obeys x[J i] = conj(x[i]) (steady_full). keep lists the
    unknowns solved for, in the order of elimination: diagonal by diagonal
    of the photon grid, d = m - k = n_fock - 1 down to 1, then the root d =
    0, unknown 0 last. Positions bounds[f]..bounds[f + 1]-1 hold diagonal
    n_fock - 1 - f; bounds ends in len(keep) twice, so front f is the square
    block on positions bounds[f]..bounds[f + 2]-1, its own diagonal then the
    next one, and the root's is its own. mirror holds J(keep[i]) for each
    k < m position i < bounds[-3], and root_mirror the permutation of the
    root's positions that J makes: J(keep[lo + p]) = keep[lo + root_mirror[p]]
    for lo = bounds[-3]; unknown 0 is its own image. trace is the trace row
    r of steady_full. The bordered block M is rows keep[:-1] of base - s
    interaction over r, on columns keep; front_base and front_interaction
    hold the entries of M's two parts, front by front: those of front f,
    whose earlier position, row or column, it eliminates, are
    starts[f]..starts[f + 1]-1, at the flat positions index in its block.
    rows are the photon-number, <sz> and <sx> rows of Observables.
    """

    ops: Ops
    base: sp.csr_matrix
    interaction: sp.csr_matrix
    keep: np.ndarray
    mirror: np.ndarray
    root_mirror: np.ndarray
    trace: np.ndarray
    bounds: np.ndarray
    starts: np.ndarray
    index: np.ndarray
    front_base: np.ndarray
    front_interaction: np.ndarray
    rows: tuple[np.ndarray, np.ndarray, np.ndarray]


def _read_only(a):
    for array in (a.data, a.indices, a.indptr) if sp.issparse(a) else (a,):
        array.flags.writeable = False
    return a


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

    n, coherences, atoms = spec.n_fock, ops["coherences"], ops["atoms"].tocoo()
    per_node = len(coherences)  # count tuples
    m, k = np.divmod(np.arange(n * n), n)  # node k + n m of vec order is |k><m|
    solved = np.ones((n * n, per_node), dtype=bool)
    if not np.any((coherences[atoms.row] - coherences[atoms.col]) % 2):
        solved = np.add.outer(k + m, coherences) % 2 == 0
    diagonals = (np.arange(n - d) * (n + 1) + n * d for d in range(n - 1, -1, -1))  # (k, k + d)
    nodes = [(node[:, None] * per_node + np.arange(per_node))[solved[node]] for node in diagonals]
    bounds = np.cumsum([0] + [len(unknowns) for unknowns in nodes] + [0])
    keep = np.concatenate(nodes)
    keep = np.append(keep[keep != 0], 0)  # the trace row stands in for the row of unknown 0

    def image(unknowns):  # J: (k, m, n) -> (m, k, n with n_10 and n_01 swapped)
        node, tuples = np.divmod(unknowns, per_node)
        m, k = np.divmod(node, n)
        return (m + n * k) * per_node + ops["adjoint"][tuples]

    root = keep[bounds[-3]:]
    order = np.argsort(root)
    root_mirror = order[np.searchsorted(root, image(root), sorter=order)]

    def positions(op, bottom):  # flat positions in M, and values, of op's entries over bottom
        block = sp.vstack([op[keep[:-1]][:, keep], bottom]).tocoo()
        return block.row.astype(np.int64) * len(keep) + block.col, block.data

    key_a, a_values = positions(base, sp.csr_matrix(trace[keep]))
    key_b, b_values = positions(interaction, sp.csr_matrix((1, len(keep)), dtype=complex))
    key = np.union1d(key_a, key_b)
    front_base, front_interaction = (np.zeros(len(key), dtype=complex) for _ in range(2))
    front_base[np.searchsorted(key, key_a)] = a_values
    front_interaction[np.searchsorted(key, key_b)] = b_values
    row, col = np.divmod(key, len(keep))
    owner = np.searchsorted(bounds, np.minimum(row, col), side="right") - 1  # eliminated there
    order = np.argsort(owner, kind="stable")
    lo, size = bounds[owner], bounds[owner + 2] - bounds[owner]
    index = ((row - lo) * size + col - lo)[order]

    number = qops.observable_row(np.diag(np.arange(spec.n_fock, dtype=complex)))
    rows = (np.kron(number, ops["trace"]),
            np.kron(cavity_trace, ops["trace"] @ ops["left_z"]) / spec.n_atoms,
            np.kron(cavity_trace, ops["trace"] @ ops["left_x"]) / spec.n_atoms)
    return GeneratorFamily(
        ops=MappingProxyType({k: _read_only(v) for k, v in ops.items()}),
        base=_read_only(base),
        interaction=_read_only(interaction),
        keep=_read_only(keep),
        mirror=_read_only(image(keep[:bounds[-3]])),
        root_mirror=_read_only(root_mirror),
        trace=_read_only(trace),
        bounds=_read_only(bounds),
        starts=_read_only(np.searchsorted(owner[order], np.arange(len(bounds) - 1))),
        index=_read_only(index),
        front_base=_read_only(front_base[order]),
        front_interaction=_read_only(front_interaction[order]),
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


def _eliminate(family: GeneratorFamily, values: np.ndarray) -> np.ndarray:
    """The count-basis x with M y = e_last, for the entries `values` of M (front_base's order).

    No generator term moves the diagonal d = m - k of |k><m| by more than
    one, so M is block tridiagonal over the diagonals, and they are
    eliminated in turn, d = n_fock - 1 first (block Thomas elimination).
    Front f = [[F_EE, F_EU], [F_UE, F_UU]], E its diagonal and U the next,
    takes its entries and, on F_EE, the Schur complement S of the front
    before it, and hands S = F_UU - F_UE X, X = F_EE^-1 F_EU, to the next.
    The root d = 0 collects S of d = 1. J conjugates M (P^T M P = conj(M),
    P the permutation of J), so the mirrored k > m side, d = -1 up to
    -(n_fock - 1), would add conj(S[pi][:, pi]) for pi = family.root_mirror,
    and exactly that: conjugation commutes with IEEE arithmetic and with
    LAPACK's pivoting by |re| + |im|. The root solves for its unknowns with
    its entries and both complements, the trace row last; back substitution
    sets y_E = -X y_U up the chain. x is y at family.keep and conj(y) of the
    k < m positions at their images family.mirror. A singular block raises
    np.linalg.LinAlgError.
    """
    bounds, starts, root = family.bounds, family.starts, len(family.bounds) - 3
    schur, factors = np.zeros((0, 0), dtype=complex), []
    for f in range(root + 1):
        lo, mid, hi = bounds[f:f + 3]
        block = np.zeros((hi - lo) ** 2, dtype=complex)
        block[family.index[starts[f]:starts[f + 1]]] = values[starts[f]:starts[f + 1]]
        block = block.reshape(hi - lo, hi - lo)
        block[:len(schur), :len(schur)] += schur  # extend-add onto this front's own diagonal
        if f == root:
            break
        e = mid - lo
        x = np.linalg.solve(block[:e, :e], block[:e, e:])
        schur = block[e:, e:] - block[e:, :e] @ x
        factors.append(x)
    pi = family.root_mirror
    block += schur[pi][:, pi].conj()
    y = np.empty(len(family.keep), dtype=complex)
    rhs = np.zeros(len(block), dtype=complex)
    rhs[-1] = 1.0
    y[bounds[root]:] = np.linalg.solve(block, rhs)
    for f in reversed(range(root)):
        lo, mid, hi = bounds[f:f + 3]
        y[lo:mid] = -(factors[f] @ y[mid:hi])
    x = np.zeros(family.base.shape[0], dtype=complex)
    x[family.keep] = y
    x[family.mirror] = y[:bounds[root]].conj()
    return x


def steady_full(spec: FullSystemSpec) -> np.ndarray:
    """Unique steady state as a count-basis vector x, with r @ x = 1 for the trace row r.

    The even-parity unknowns are solved for when ops["atoms"] never moves
    n_10 + n_01 by an odd number (module docstring), all of them otherwise;
    unknown 0 is even. r = kron(qops.trace_functional(n_fock), ops["trace"])
    replaces the row of unknown 0 in that block L, and _eliminate solves
    L' x = e for e the unit vector of that row, last in the order of
    family.keep: the k < m half and the diagonal nodes by elimination, the
    k > m half as their mirror image (module docstring), which the residual
    check below covers too. Tr o L = 0 makes that row of L a combination of
    the others, so L' is singular exactly when the null space of L has
    dimension > 1; a zero pivot of a front (np.linalg.LinAlgError) is a
    DegenerateSteadyStateError, and a solution with max |L x| > 1e-8 is a
    ConvergenceError. The block solve cannot see a null vector that lives
    only in the odd block; the kernel of a Lindbladian is spanned by steady
    density matrices, so that would be a second steady state, which only
    the zero pivot and the checks here guard against. Three degenerate
    cases are rejected before the solve, since pivots need not vanish
    exactly: without an atomic channel of positive rate, for N >= 2, the
    collective coupling conserves total spin and every total-spin sector
    holds a steady state; with kappa = 0 and g = 0 every photon number does;
    with kappa = 0 and no atomic jump that flips sz, the maximally mixed
    states of both parity sectors Pi = +-1 are steady.
    """
    point = (f"n_atoms = {spec.n_atoms}, n_fock = {spec.n_fock}, g = {spec.g}, omega_z = "
             f"{spec.model.omega_z}, omega0 = {spec.cavity.omega0}, kappa = {spec.cavity.kappa}")
    if spec.n_atoms > 1 and not any(ch.rate > 0 for ch in spec.model.channels):
        raise DegenerateSteadyStateError(f"total spin is conserved at {point}: no atomic "
                                         "channel has a positive rate")
    if spec.cavity.kappa == 0 and spec.g == 0:
        raise DegenerateSteadyStateError(f"photon number is conserved at {point}: the cavity "
                                         "is undamped and uncoupled")
    if spec.cavity.kappa == 0 and not any(ch.rate > 0 and np.any(ch.op[[0, 1], [1, 0]])
                                          for ch in spec.model.channels):
        raise DegenerateSteadyStateError(f"parity is conserved at {point}: the cavity is "
                                         "undamped and no atomic jump flips sz")
    family, s = generator_family(spec), _coupling(spec)
    try:
        x = _eliminate(family, family.front_base - s * family.front_interaction)
    except np.linalg.LinAlgError as exc:  # LAPACK: "Singular matrix"
        raise DegenerateSteadyStateError(
            f"full steady state is degenerate at {point}: bordered generator is singular ({exc})"
        ) from None
    residual = np.max(np.abs(family.base @ x - s * (family.interaction @ x)))
    if not residual <= 1e-8:  # also catches a non-finite solution
        raise ConvergenceError(f"direct steady-state solve left residual {residual} at {point}")
    return x / (family.trace @ x).real  # the trace of a Hermitian x is real


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
