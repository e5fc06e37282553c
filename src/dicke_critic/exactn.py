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
coupling commutator. A, B, the entries of the solved block of both, the
elimination tree, the trace row and the observable rows depend only on the
family (N, n_fock, omega0, kappa, the bytes of the single-atom generator),
so ``generator_family`` builds them once per family and keeps the last
MAX_FAMILIES families by value, their arrays read-only; each coupling then
costs one A - s B over those entries, one scatter per front and LAPACK.

The unknowns form an n_fock x n_fock grid of cavity elements |k><m|, each
node holding a count vector, and every generator term moves k and m by at
most one: a row or column of the grid separates the nodes on either side
of it, and the diagonal k = m separates k < m from k > m. The diagonal is
the root of the elimination tree, and each side is split by nested
dissection (George, SIAM J. Numer. Anal. 10, 345 (1973)). Each tree node
is a dense front: in post-order, LAPACK eliminates its unknowns and its
Schur complement is added into its parent's front, a multifrontal
elimination (Duff & Reid, ACM TOMS 9, 302 (1983)). The diagonal nodes must
wait for the root: their cavity part -2 kappa k vanishes at k = 0 and, at
kappa = 0, at every k, which leaves a node's block the lifted atomic
generator, singular at g = 0 and nearly so at small kappa; the trace row,
which lives on those nodes, is solved last in the root.

Hermiticity: a Lindbladian maps rho+ to (L rho)+ (Minganti, Biella, Bartolo
& Ciuti, PRA 98, 042118 (2018)). On the count basis the adjoint J takes
unknown (k, m, n) to (m, k, n with n_10 and n_01 swapped) and conjugates
it, so P^T L P = conj(L) for the permutation P of J, for every SpinModel.
The k > m side is thus the mirror image of the k < m side, and only the
k < m fronts are eliminated: the root adds their Schur complement and its
mirror image, and each k > m unknown is the conjugate of its k < m image.
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
class Front:
    """One node of the dissection tree: a dense block eliminated by LAPACK (read-only).

    Positions lo..hi-1 of family.keep are eliminated here; update holds the
    later positions they couple to, ascending, and the front is the square
    block on positions lo..hi-1 then update. index are the flat positions in
    it of the entries family.front_base[entries] (and front_interaction) that
    are assembled here: those whose earlier position, row or column, is
    eliminated here. into pairs each run of consecutive update positions
    with the rows (and columns) of the parent front that it falls on. The
    fronts cover the k < m side of the photon grid and the root; the k > m
    side is the mirror of the k < m side (GeneratorFamily) and has none.
    """

    lo: int
    hi: int
    update: np.ndarray
    entries: slice
    index: np.ndarray
    parent: int
    into: tuple[tuple[slice, slice], ...]


@dataclass(frozen=True)
class GeneratorFamily:
    """The parts of the generator and of its solve that do not depend on g (read-only).

    base = cavity generator (x) 1 + 1 (x) ops["atoms"]; interaction = L (x)
    ops["left_x"] - R (x) ops["right_x"], L and R the left and right
    multiplication by a + a+. J maps unknown (k, m, n) to (m, k, n with n_10
    and n_01 swapped), the count-basis image of rho -> rho+, and the steady
    state x obeys x[J i] = conj(x[i]) (steady_full). keep lists the
    unknowns solved for, in the order of elimination: those with k < m,
    then those of the diagonal nodes (k, k), unknown 0 last. mirror holds
    J(keep[i]) for each k < m position i < fronts[-1].lo, and root_mirror
    the permutation of the root's positions that J makes: J(keep[lo + p]) =
    keep[lo + root_mirror[p]] for lo = fronts[-1].lo; unknown 0 is its own
    image. trace is the trace row r of steady_full. The bordered block M is
    rows keep[:-1] of base - s interaction over r, on columns keep; fronts
    are the nodes of its elimination tree in post-order, root last, and
    front_base and front_interaction the entries of M's two parts, front by
    front. rows are the photon-number, <sz> and <sx> rows of Observables.
    """

    ops: Ops
    base: sp.csr_matrix
    interaction: sp.csr_matrix
    keep: np.ndarray
    mirror: np.ndarray
    root_mirror: np.ndarray
    trace: np.ndarray
    fronts: tuple[Front, ...]
    front_base: np.ndarray
    front_interaction: np.ndarray
    rows: tuple[np.ndarray, np.ndarray, np.ndarray]


def _read_only(a):
    for array in (a.data, a.indices, a.indptr) if sp.issparse(a) else (a,):
        array.flags.writeable = False
    return a


Tree = tuple[np.ndarray, list["Tree"]]


def _dissection(pairs: np.ndarray, leaf: int) -> Tree:
    """Nested dissection of photon pairs, rows (k, m): (separator, its subtrees).

    No generator term moves k or m by more than one, so any row or column
    of the grid separates the pairs on either side of it. The set splits at
    the row or column across the wider span of its bounding box that leaves
    the two sides closest in size; a set of at most `leaf` pairs is a leaf.
    """
    if len(pairs) <= leaf:
        return pairs, []
    k, m = pairs.T
    line = k if np.ptp(k) >= np.ptp(m) else m
    on = np.bincount(line - line.min())  # pairs on each row (or column) of the span
    h = line.min() + np.argmin(np.abs(2 * np.cumsum(on) - on - len(pairs)))  # |below - above|
    sides = (pairs[line < h], pairs[line > h])
    return pairs[line == h], [_dissection(side, leaf) for side in sides if len(side)]


def _post_order(n_fock: int, leaf: int) -> tuple[list[np.ndarray], list[int]]:
    """The photon pairs of each front, children first, and the index of each front's parent.

    The pairs k < m, in vec order, are dissected; the diagonal pairs (k, k)
    form the root, last: no generator term moves k - m by more than one, so
    they separate k < m from k > m, whose fronts are the mirror images of
    these. An empty separator is skipped, its subtrees going to the next
    front up.
    """
    fronts: list[np.ndarray] = []
    parents: list[int] = []

    def visit(tree: Tree) -> list[int]:
        separator, subtrees = tree
        tops = [top for subtree in subtrees for top in visit(subtree)]
        if not len(separator):
            return tops
        for top in tops:
            parents[top] = len(fronts)
        fronts.append(separator)
        parents.append(-1)
        return [len(fronts) - 1]

    m, k = np.divmod(np.arange(n_fock**2), n_fock)
    for top in visit(_dissection(np.column_stack([k, m])[k < m], leaf)):
        parents[top] = len(fronts)
    fronts.append(np.column_stack([np.arange(n_fock)] * 2))
    parents.append(-1)
    return fronts, parents


def _fronts(base: sp.csr_matrix, interaction: sp.csr_matrix, trace: np.ndarray,
            keep: np.ndarray, bounds: np.ndarray,
            parents: list[int]) -> tuple[tuple[Front, ...], np.ndarray, np.ndarray]:
    """The fronts of the bordered block M on keep, and the entries of base and of interaction in M.

    Front f eliminates positions bounds[f]..bounds[f + 1]-1 and hands its
    Schur complement to parents[f]. Each entry of M is assembled in the
    front that eliminates the earlier of its row and column; the trace row
    is the last row of M.
    """

    def positions(op, bottom):
        block = sp.vstack([op[keep[:-1]][:, keep], bottom]).tocoo()
        return block.row.astype(np.int64) * len(keep) + block.col, block.data

    key_a, a_values = positions(base, sp.csr_matrix(trace[keep]))
    key_b, b_values = positions(interaction, sp.csr_matrix((1, len(keep)), dtype=complex))
    key = np.union1d(key_a, key_b)
    row, col = np.divmod(key, len(keep))
    owner = np.searchsorted(bounds, np.minimum(row, col), side="right") - 1
    order = np.argsort(owner, kind="stable")
    front_base, front_interaction = (np.zeros(len(key), dtype=complex) for _ in range(2))
    front_base[np.searchsorted(key, key_a)] = a_values
    front_interaction[np.searchsorted(key, key_b)] = b_values
    row, col, front_base, front_interaction = (v[order] for v in
                                               (row, col, front_base, front_interaction))
    starts = np.searchsorted(owner[order], np.arange(len(parents) + 1))

    coupled = sp.csr_matrix((np.ones(2 * len(key)), (np.r_[row, col], np.r_[col, row])),
                            shape=(len(keep),) * 2)
    # a front's update: what its positions couple to, with its children's updates, past hi
    linked = [[coupled.indices[coupled.indptr[lo]:coupled.indptr[hi]]]
              for lo, hi in zip(bounds[:-1], bounds[1:])]
    updates: list[np.ndarray] = []
    for f, hi in enumerate(bounds[1:]):
        update = np.unique(np.concatenate(linked[f]))
        updates.append(update[update >= hi])
        linked[parents[f]].append(updates[f])
    spans = [np.r_[lo:hi, update] for lo, hi, update in zip(bounds[:-1], bounds[1:], updates)]
    fronts = []
    for f, span in enumerate(spans):
        entries = slice(starts[f], starts[f + 1])
        index = (np.searchsorted(span, row[entries]) * len(span)
                 + np.searchsorted(span, col[entries]))
        into = np.searchsorted(spans[parents[f]], updates[f])  # empty for the root, the last front
        runs = np.split(np.arange(len(into)), np.flatnonzero(np.diff(into) != 1) + 1)
        into = tuple((slice(r[0], r[-1] + 1), slice(into[r[0]], into[r[-1]] + 1))
                     for r in runs if len(r))
        fronts.append(Front(int(bounds[f]), int(bounds[f + 1]), _read_only(updates[f]), entries,
                            _read_only(index), parents[f], into))
    return tuple(fronts), _read_only(front_base), _read_only(front_interaction)


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
    leaf = max(4, 40 * n * n // np.count_nonzero(solved))
    pairs, parents = _post_order(n, leaf)
    nodes = [(node[:, None] * per_node + np.arange(per_node))[solved[node]]
             for node in (front @ [1, n] for front in pairs)]
    bounds = np.cumsum([0] + [len(unknowns) for unknowns in nodes])
    keep = np.concatenate(nodes)
    keep = np.append(keep[keep != 0], 0)  # the trace row stands in for the row of unknown 0

    def image(unknowns):  # J: (k, m, n) -> (m, k, n with n_10 and n_01 swapped)
        node, tuples = np.divmod(unknowns, per_node)
        m, k = np.divmod(node, n)
        return (m + n * k) * per_node + ops["adjoint"][tuples]

    root = keep[bounds[-2]:]
    order = np.argsort(root)
    root_mirror = order[np.searchsorted(root, image(root), sorter=order)]

    fronts, front_base, front_interaction = _fronts(base, interaction, trace, keep, bounds, parents)

    number = qops.observable_row(np.diag(np.arange(spec.n_fock, dtype=complex)))
    rows = (np.kron(number, ops["trace"]),
            np.kron(cavity_trace, ops["trace"] @ ops["left_z"]) / spec.n_atoms,
            np.kron(cavity_trace, ops["trace"] @ ops["left_x"]) / spec.n_atoms)
    return GeneratorFamily(
        ops=MappingProxyType({k: _read_only(v) for k, v in ops.items()}),
        base=_read_only(base),
        interaction=_read_only(interaction),
        keep=_read_only(keep),
        mirror=_read_only(image(keep[:bounds[-2]])),
        root_mirror=_read_only(root_mirror),
        trace=_read_only(trace),
        fronts=fronts,
        front_base=front_base,
        front_interaction=front_interaction,
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

    Each front F = [[F_EE, F_EU], [F_UE, F_UU]] of the k < m side takes its
    entries and the Schur complements of its children, and gives its parent
    F_UU - F_UE X with X = F_EE^-1 F_EU. The root collects the k < m side's
    Schur complement S. J conjugates M (P^T M P = conj(M), P the permutation
    of J), so the mirrored k > m side would add conj(S[pi][:, pi]) for pi =
    family.root_mirror, and exactly that: conjugation commutes with IEEE
    arithmetic and with LAPACK's pivoting by |re| + |im|. The root solves
    for its unknowns with its entries and both complements, the trace row
    last; back substitution sets y_E = -X y_U down the tree. x is y at
    family.keep and conj(y) of the k < m positions at their images
    family.mirror. A singular block raises np.linalg.LinAlgError.
    """
    fronts, root = family.fronts, len(family.fronts) - 1
    lo, size = fronts[root].lo, fronts[root].hi - fronts[root].lo
    blocks = {root: np.zeros((size, size), dtype=complex)}  # S, added in by the root's children
    factors = []

    def assembled(f: int) -> np.ndarray:  # front f with its own entries, built on first use
        if f not in blocks:
            front = fronts[f]
            size = front.hi - front.lo + len(front.update)
            blocks[f] = np.zeros(size * size, dtype=complex)
            blocks[f][front.index] = values[front.entries]
            blocks[f] = blocks[f].reshape(size, size)
        return blocks[f]

    for f, front in enumerate(fronts[:-1]):
        block, e = assembled(f), front.hi - front.lo
        del blocks[f]
        x = np.linalg.solve(block[:e, :e], block[:e, e:])
        update, parent = block[e:, e:], assembled(front.parent)
        update -= block[e:, :e] @ x
        for rows, parent_rows in front.into:  # extend-add, run by run of contiguous positions
            for cols, parent_cols in front.into:
                parent[parent_rows, parent_cols] += update[rows, cols]
        factors.append(x)
    schur, pi = blocks.pop(root), family.root_mirror
    block = assembled(root)
    block += schur
    block += schur[pi][:, pi].conj()
    y = np.empty(len(family.keep), dtype=complex)
    rhs = np.zeros(size, dtype=complex)
    rhs[-1] = 1.0
    y[lo:] = np.linalg.solve(block, rhs)
    for front, x in zip(reversed(fronts[:-1]), reversed(factors)):
        y[front.lo:front.hi] = -(x @ y[front.update])
    x = np.zeros(family.base.shape[0], dtype=complex)
    x[family.keep] = y
    x[family.mirror] = y[:lo].conj()
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
