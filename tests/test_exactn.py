import itertools

import numpy as np
import pytest
import scipy.sparse as sp

from dicke_critic import baths, critical, exactn, qops, response
from dicke_critic.baths import CavityParams, Custom, Dephasing, Generalized, Thermal
from dicke_critic.errors import (
    DegenerateSteadyStateError,
    InvalidModelError,
    PreconditionError,
)
from dicke_critic.exactn import (
    FullSystemSpec,
    build_full_generator,
    cutoff_stability,
    full_regression_sx,
    full_steady_observables,
    generator_family,
    steady_full,
)
from dicke_critic.lindblad import SpinModel, steady_state, two_time_sx
from dicke_critic.qops import trace_functional
from dicke_critic.response import chi_from_correlator


def spec_for(bath, n_atoms=1, n_fock=6, g=0.0, kappa=0.4, omega_z=1.0, omega0=1.0):
    return FullSystemSpec(
        n_atoms=n_atoms,
        n_fock=n_fock,
        g=g,
        cavity=CavityParams(omega0, kappa),
        model=baths.spin_model(bath, omega_z),
    )


@pytest.fixture
def fresh_families():
    exactn._FAMILIES.clear()


CATALOG = [
    Generalized(gamma=0.2, t=0.3),
    Thermal(gamma=0.2, temperature=0.4),
    Dephasing(gamma=0.3, sz=-0.4),
]
CATALOG_IDS = ["generalized", "thermal", "dephasing"]
# s- + 0.3 sz couples diagonal and coherence units: no parity block, every unknown is solved for
PARITY_BREAKING = Custom((qops.LindbladChannel(qops.sigma("minus") + 0.3 * qops.sigma("z"), 0.2),))


class TestConstruction:
    def test_dimension_guard(self):
        # the guard bounds the count-basis unknowns C(N+3, 3) n_fock^2 by 128^2
        bath = Thermal(gamma=0.1, temperature=0.5)
        assert spec_for(bath, n_atoms=1, n_fock=64).unknowns == exactn.MAX_UNKNOWNS == 128**2
        assert spec_for(bath, n_atoms=4, n_fock=21).unknowns == 35 * 21**2
        for n_atoms, n_fock in ((1, 65), (4, 22)):
            with pytest.raises(InvalidModelError):
                spec_for(bath, n_atoms=n_atoms, n_fock=n_fock)

    def test_atom_count_guard(self):
        bath = Thermal(gamma=0.1, temperature=0.5)
        assert spec_for(bath, n_atoms=27, n_fock=2).unknowns == 4060 * 4
        for n_atoms in (0, 28):
            with pytest.raises(InvalidModelError):
                spec_for(bath, n_atoms=n_atoms, n_fock=2)

    @pytest.mark.parametrize("field, value", [("n_atoms", 2.0), ("n_fock", 6.5)])
    def test_non_integer_size_is_typed_error(self, field, value):
        sizes = {"n_atoms": 2, "n_fock": 6, field: value}
        with pytest.raises(InvalidModelError, match=f"{field} = {value} must be an integer"):
            FullSystemSpec(**sizes, g=0.3, cavity=CavityParams(1.0, 0.4),
                           model=baths.spin_model(Thermal(gamma=0.1, temperature=0.5), 1.0))

    def test_trace_preservation(self):
        # the count-basis trace row annihilates the generator: Tr o L = 0
        spec = spec_for(Generalized(gamma=0.2, t=0.3), n_atoms=2, n_fock=5, g=0.4)
        ops = generator_family(spec).ops
        gen = build_full_generator(spec)
        trace = np.kron(trace_functional(spec.n_fock), ops["trace"])
        assert np.max(np.abs(trace @ gen)) < 1e-10

    @pytest.mark.parametrize("bath", [*CATALOG, PARITY_BREAKING],
                             ids=[*CATALOG_IDS, "parity-breaking"])
    def test_adjoint_conjugates_the_generator(self, bath):
        # L maps rho+ to (L rho)+: P^T L P = conj(L) exactly, for P the permutation of J
        for n_atoms in (1, 2, 3):
            spec = spec_for(bath, n_atoms=n_atoms, n_fock=5, g=0.37)
            gen = build_full_generator(spec)
            image = adjoint_image(spec)[0]
            p = sp.csr_matrix((np.ones(image.size), (image, np.arange(image.size))))
            assert abs(p.T @ gen @ p - gen.conj()).max() == 0

    def test_unique_zero_eigenvalue(self):
        spec = spec_for(Generalized(gamma=0.2, t=0.0), n_atoms=1, n_fock=4, g=0.3)
        gen = build_full_generator(spec).toarray()
        vals = np.linalg.eigvals(gen)
        assert np.sum(np.abs(vals) < 1e-9 * max(1.0, np.max(np.abs(vals)))) == 1


class TestSteadyObservables:
    @pytest.mark.parametrize("entry", [full_steady_observables, full_regression_sx],
                             ids=["full_steady_observables", "full_regression_sx"])
    def test_embedded_ops_built_once_per_family(self, monkeypatch, fresh_families, entry):
        # the entry at g = 0, then a 3-coupling scan of the same family, each
        # with a fresh SpinModel: one build of the count-basis operators
        calls = []
        build = exactn.embedded_ops

        def counted(spec):
            calls.append(spec)
            return build(spec)

        monkeypatch.setattr(exactn, "embedded_ops", counted)
        entry(spec_for(Thermal(gamma=0.2, temperature=0.4), n_fock=4, g=0.0))
        for g in (0.15, 0.3, 0.45):
            full_steady_observables(spec_for(Thermal(gamma=0.2, temperature=0.4), n_fock=4, g=g))
        assert len(calls) == 1

    def test_decoupled_cavity_is_empty(self):
        spec = spec_for(Thermal(gamma=0.2, temperature=0.4), g=0.0)
        obs = full_steady_observables(spec)
        assert obs.photon_number == pytest.approx(0.0, abs=1e-12)
        assert obs.sz_mean == pytest.approx(
            baths.steady_sz(Thermal(gamma=0.2, temperature=0.4), 1.0), abs=1e-10
        )

    def test_two_atoms_pure_decay_fully_polarized(self):
        spec = spec_for(Generalized(gamma=0.2, t=0.0), n_atoms=2, n_fock=5, g=0.0)
        obs = full_steady_observables(spec)
        assert obs.sz_mean == pytest.approx(-0.5, abs=1e-10)
        assert obs.sx_mean == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_phase_has_zero_sx(self):
        spec = spec_for(Generalized(gamma=0.2, t=0.0), n_atoms=2, n_fock=8, g=0.4)
        obs = full_steady_observables(spec)
        assert abs(obs.sx_mean) < 1e-10
        assert obs.photon_number > 0

    def test_degenerate_dephasing_rejected(self):
        spec = spec_for(Dephasing(gamma=0.3, sz=-0.5), n_fock=4, g=0.0)
        with pytest.raises(DegenerateSteadyStateError):
            steady_full(spec)

    def test_degenerate_dephasing_rejected_at_larger_dimension(self):
        # same physical defect, same error type, whatever the Hilbert dimension
        spec = spec_for(Dephasing(gamma=0.3, sz=-0.5), n_atoms=2, n_fock=10, g=0.0)
        assert spec.hilbert_dim == 40
        with pytest.raises(DegenerateSteadyStateError):
            steady_full(spec)

    @pytest.mark.parametrize("model", [
        baths.spin_model(Dephasing(gamma=0.0, sz=-0.5), 1.0),
        SpinModel(omega_z=0.0),
    ], ids=["zero-rate-dephasing", "no-channels"])
    @pytest.mark.parametrize("n_atoms", [2, 3, 4])
    @pytest.mark.parametrize("g", [0.1, 0.5])
    def test_conserved_total_spin_rejected(self, model, n_atoms, g):
        # no positive-rate atomic channel: every total-spin sector holds a steady state
        spec = FullSystemSpec(n_atoms, 4, g, CavityParams(1.0, 0.4), model)
        with pytest.raises(DegenerateSteadyStateError,
                           match=f"total spin is conserved at n_atoms = {n_atoms}, n_fock = 4"):
            steady_full(spec)

    def test_weak_dephasing_and_single_atom_still_solve(self):
        for n_atoms in (2, 3, 4):
            obs = full_steady_observables(
                spec_for(Dephasing(gamma=1e-3, sz=-0.5), n_atoms=n_atoms, n_fock=4, g=0.5))
            assert 0.0 < obs.photon_number < 1.0
            assert -0.5 <= obs.sz_mean <= 0.5
        for model in (baths.spin_model(Dephasing(gamma=0.0, sz=-0.5), 1.0),
                      SpinModel(omega_z=0.0)):
            x = steady_full(FullSystemSpec(1, 4, 0.5, CavityParams(1.0, 0.4), model))
            assert np.all(np.isfinite(x))

    @pytest.mark.parametrize("bath", [
        Generalized(gamma=0.2, t=0.0),
        Thermal(gamma=0.2, temperature=0.4),
        Dephasing(gamma=0.3, sz=-0.4),
    ], ids=["generalized", "thermal", "dephasing"])
    def test_dense_and_direct_solvers_agree(self, bath):
        # the front elimination on the even block, its k > m half mirrored from
        # the k < m half, against the null vector of the dense eigendecomposition
        # of the full generator, normalized by the trace row; the odd entries
        # (k + m + n_10 + n_01 odd) are never solved for
        spec = spec_for(bath, n_atoms=2, n_fock=8, g=0.45)
        ops = generator_family(spec).ops
        vals, vecs = np.linalg.eig(build_full_generator(spec).toarray())
        null = np.flatnonzero(np.abs(vals) < 1e-9 * np.max(np.abs(vals)))
        assert null.size == 1
        dense = vecs[:, null[0]]
        dense = dense / (np.kron(trace_functional(spec.n_fock), ops["trace"]) @ dense)
        x = steady_full(spec)
        assert np.max(np.abs(dense - x)) < 1e-10
        coherences = [sum(u in (1, 2) for u in units) for units in
                      itertools.combinations_with_replacement(range(4), spec.n_atoms)]
        cavity = [k + m for m in range(spec.n_fock) for k in range(spec.n_fock)]
        odd = np.add.outer(cavity, coherences).ravel() % 2 == 1
        assert np.all(x[odd] == 0)

    @pytest.mark.parametrize("bath", [
        Generalized(gamma=0.2, t=0.3),
        Thermal(gamma=0.2, temperature=0.4),
        Dephasing(gamma=0.3, sz=-0.4),
        PARITY_BREAKING,
    ], ids=["generalized", "thermal", "dephasing", "parity-breaking"])
    def test_block_lu_matches_dense_solve(self, bath):
        # the front elimination of the bordered block against np.linalg.solve of the
        # same block in vec order, to 1e-13 of max|x|, below and above g_c: at N = 3
        # with kappa = 0.4, the even block (1000 unknowns) for catalog baths, all 2000
        # for the parity-breaking jump; and at N = 1..3 with kappa = 0, where every
        # diagonal node (k, k) is undamped, and where g = 0 leaves a steady state
        # at every photon number
        cases = []
        for kappa, atom_counts in ((0.4, (3,)), (0.0, (1, 2, 3))):
            cavity = CavityParams(1.0, kappa)
            if bath is PARITY_BREAKING:  # no closed form: chi0 from the single-spin resolvent
                chi0 = response.resolvent_chi(baths.spin_model(bath, 1.0))(0.0).real
                gc = critical.solve_gc(float(chi0), cavity).g_c
            else:
                gc = baths.closed_form_gc(bath, 1.0, cavity).g_c
            cases += [(n_atoms, kappa, float(g)) for n_atoms in atom_counts
                      for g in (0.5 * gc, 1.5 * gc)]
        for n_atoms in (1, 2, 3):
            with pytest.raises(DegenerateSteadyStateError, match="photon number is conserved"):
                steady_full(spec_for(bath, n_atoms=n_atoms, n_fock=10, kappa=0.0))
        for n_atoms, kappa, g in cases:
            spec = spec_for(bath, n_atoms=n_atoms, n_fock=10, g=g, kappa=kappa)
            if isinstance(bath, Dephasing) and kappa == 0:
                # no loss and sz-conserving jumps: each parity sector holds a steady state
                with pytest.raises(DegenerateSteadyStateError, match="parity is conserved"):
                    steady_full(spec)
                continue
            ops = generator_family(spec).ops
            gen = build_full_generator(spec)
            trace = np.kron(trace_functional(spec.n_fock), ops["trace"])
            cavity = np.add.outer(np.arange(spec.n_fock), np.arange(spec.n_fock)).ravel()
            solved = np.flatnonzero(np.add.outer(cavity, ops["coherences"]).ravel() % 2 == 0)
            if bath is PARITY_BREAKING:
                solved = np.arange(gen.shape[0])
            block = np.vstack([trace[solved], gen[solved[1:]][:, solved].toarray()])
            rhs = np.zeros(solved.size, dtype=complex)
            rhs[0] = 1.0
            dense = np.zeros(gen.shape[0], dtype=complex)
            dense[solved] = np.linalg.solve(block, rhs)
            x = steady_full(spec)
            assert np.max(np.abs(x - dense)) <= 1e-13 * np.max(np.abs(dense))

    def test_errors_name_the_point(self):
        spec = spec_for(Dephasing(gamma=0.3, sz=-0.5), n_atoms=2, n_fock=3, g=0.0, kappa=0.25,
                        omega_z=1.5, omega0=0.75)
        point = "n_atoms = 2, n_fock = 3, g = 0.0, omega_z = 1.5, omega0 = 0.75, kappa = 0.25"
        with pytest.raises(DegenerateSteadyStateError, match=point):
            steady_full(spec)


def per_coupling_generator(spec):
    """The generator assembled with sp.kron at this g alone."""
    ops = exactn.embedded_ops(spec)
    a = exactn.annihilation(spec.n_fock)
    channels = [qops.LindbladChannel(a, spec.cavity.kappa)] if spec.cavity.kappa > 0 else []
    cavity = qops.lindblad_generator(spec.cavity.omega0 * (a.conj().T @ a), channels)
    eye, drive = sp.identity(spec.n_fock), a + a.conj().T
    interaction = (sp.kron(sp.kron(eye, drive), ops["left_x"])
                   - sp.kron(sp.kron(drive.T, eye), ops["right_x"]))
    gen = (sp.kron(cavity, sp.identity(ops["atoms"].shape[0]))
           + sp.kron(sp.identity(cavity.shape[0]), ops["atoms"])
           - 2j * spec.g / np.sqrt(spec.n_atoms) * interaction).tocsr()
    return gen, ops


def adjoint_image(spec):
    """J by hand: unknown (k, m, n) -> (m, k, n with the units |1><0| and |0><1| swapped)."""
    tuples = list(itertools.combinations_with_replacement(range(4), spec.n_atoms))
    swapped = [tuples.index(tuple(sorted({1: 2, 2: 1}.get(u, u) for u in t))) for t in tuples]
    n = spec.n_fock
    m, k, n_tuple = np.unravel_index(np.arange(n * n * len(tuples)), (n, n, len(tuples)))
    return (m + n * k) * len(tuples) + np.array(swapped)[n_tuple], k, m


def front_entries(family):
    """Row and column, in positions of family.keep, of each entry family.front_base holds.

    Front f is the square block on positions bounds[f]..bounds[f + 2]-1, and
    its entries sit at the flat offsets index[starts[f]:starts[f + 1]] in it.
    """
    bounds, starts = family.bounds, family.starts
    f = np.repeat(np.arange(len(starts) - 1), np.diff(starts))
    lo, size = bounds[f], bounds[f + 2] - bounds[f]
    return lo + family.index // size, lo + family.index % size


def per_coupling_steady_state(spec):
    """The front elimination of the bordered block of per_coupling_generator.

    Rows keep[:-1] of the generator over the trace row, on columns keep (the
    k < m diagonals and the root), read at the family's entries and eliminated
    on its fronts; the k > m half is the mirror image.
    """
    gen, ops = per_coupling_generator(spec)
    family = generator_family(spec)
    keep = family.keep
    trace = np.kron(trace_functional(spec.n_fock), ops["trace"])
    bordered = sp.vstack([gen[keep[:-1]][:, keep], sp.csr_matrix(trace[keep])], format="csr")
    x = exactn._eliminate(family, np.asarray(bordered[front_entries(family)]).ravel())
    return x / (trace @ x).real


def same_bytes(a, b) -> bool:
    if sp.issparse(a):
        return all(same_bytes(*pair) for pair in
                   ((a.indptr, b.indptr), (a.indices, b.indices), (a.data, b.data)))
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestGeneratorFamily:
    @pytest.mark.parametrize("bath", CATALOG, ids=CATALOG_IDS)
    def test_cached_solve_is_bitwise_per_coupling_solve(self, bath):
        # warm cache, cleared cache and the per-coupling sp.kron assembly give
        # the same bytes, g = 0 included
        gc = baths.closed_form_gc(bath, 1.0, CavityParams(1.0, 0.4)).g_c
        for n_atoms in (1, 2, 3):
            for g in (0.0, 0.5 * gc, 1.5 * gc):
                spec = spec_for(bath, n_atoms=n_atoms, n_fock=6, g=float(g))
                build_full_generator(spec)
                assert same_bytes(build_full_generator(spec), per_coupling_generator(spec)[0])
                if isinstance(bath, Dephasing) and g == 0.0:
                    # sz is conserved: every route meets the exact zero pivot
                    with pytest.raises(DegenerateSteadyStateError, match="singular"):
                        steady_full(spec)
                    with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
                        per_coupling_steady_state(spec)
                    continue
                cached = steady_full(spec)
                exactn._FAMILIES.clear()
                assert same_bytes(cached, steady_full(spec))
                assert same_bytes(cached, per_coupling_steady_state(spec))

    @pytest.mark.parametrize("bath", [*CATALOG, PARITY_BREAKING],
                             ids=[*CATALOG_IDS, "parity-breaking"])
    @pytest.mark.parametrize("n_atoms, n_fock", [(1, 2), (1, 5), (2, 6), (3, 12)])
    def test_keep_orders_the_solved_block(self, bath, n_atoms, n_fock):
        # keep holds the k < m unknowns, then the root's diagonal nodes (k, k),
        # unknown 0 last; with the J images of its k < m positions it is a
        # permutation of the even unknowns (of all of them for the
        # parity-breaking jump); J permutes the root's positions, unknown 0's
        # fixed; each photon pair's unknowns are consecutive and in count order
        spec = spec_for(bath, n_atoms=n_atoms, n_fock=n_fock, g=0.3)
        family = generator_family(spec)
        counts = family.ops["atoms"].shape[0]
        cavity = np.add.outer(np.arange(n_fock), np.arange(n_fock)).ravel()
        even = np.flatnonzero(np.add.outer(cavity, family.ops["coherences"]).ravel() % 2 == 0)
        solved = np.arange(n_fock**2 * counts) if bath is PARITY_BREAKING else even
        bounds, (image, k, m) = family.bounds, adjoint_image(spec)
        lo, keep = bounds[-3], family.keep
        assert keep[-1] == 0
        assert np.all((k < m)[keep[:lo]]) and np.all((k == m)[keep[lo:]])
        assert np.array_equal(family.mirror, image[keep[:lo]])
        assert np.array_equal(np.sort(np.r_[keep, family.mirror]), solved)
        pi = family.root_mirror
        assert np.array_equal(np.sort(pi), np.arange(len(keep) - lo))
        assert np.array_equal(keep[lo:][pi], image[keep[lo:]])
        assert pi[-1] == len(pi) - 1
        rest = keep[:-1]
        nodes = rest // counts
        changes = np.flatnonzero(np.diff(nodes)) + 1
        assert len(np.unique(nodes)) == len(changes) + 1
        assert all(np.all(np.diff(run) > 0) for run in np.split(rest, changes))
        # the fronts tile keep one diagonal d = m - k each, d = n_fock - 1 down to 1,
        # the root d = 0 last, (0, 0) first in it; bounds repeats len(keep), so the
        # root's update is empty
        assert len(bounds) == n_fock + 2 and bounds[0] == 0
        assert np.all(np.diff(bounds[:-1]) > 0) and bounds[-2] == bounds[-1] == len(keep)
        for f in range(n_fock):
            assert np.all((m - k)[keep[bounds[f]:bounds[f + 1]]] == n_fock - 1 - f)
        assert k[keep[lo]] == m[keep[lo]] == 0
        # each entry of the bordered block is held once, by the front that eliminates
        # the earlier of its row and column, and lies on that front's two diagonals
        rows, cols = front_entries(family)
        assert len(np.unique(rows * len(keep) + cols)) == len(rows)
        starts = family.starts
        assert starts[0] == 0 and starts[-1] == len(rows) and np.all(np.diff(starts) >= 0)
        for f in range(n_fock):
            entries = slice(starts[f], starts[f + 1])
            first = np.minimum(rows[entries], cols[entries])
            assert np.all((bounds[f] <= first) & (first < bounds[f + 1]))
            assert np.all(np.maximum(rows[entries], cols[entries]) < bounds[f + 2])

    @pytest.mark.parametrize("bath", [*CATALOG, PARITY_BREAKING],
                             ids=[*CATALOG_IDS, "parity-breaking"])
    @pytest.mark.parametrize("kappa", [0.4, 0.0])
    def test_generator_moves_the_diagonal_by_at_most_one(self, bath, kappa):
        # the premise of the chain: every entry of base and of interaction links
        # cavity elements |k><m| whose diagonals d = m - k differ by at most one
        for n_atoms in (1, 2, 3):
            family = generator_family(spec_for(bath, n_atoms=n_atoms, n_fock=7, kappa=kappa))
            counts = family.ops["atoms"].shape[0]
            for op in (family.base, family.interaction):
                op = op.tocoo()
                assert op.nnz
                m, k = np.divmod(np.r_[op.row, op.col] // counts, 7)
                d_row, d_col = np.split(m - k, 2)
                assert np.max(np.abs(d_row - d_col)) <= 1

    @pytest.mark.parametrize("bath", [*CATALOG, PARITY_BREAKING],
                             ids=[*CATALOG_IDS, "parity-breaking"])
    def test_steady_state_is_hermitian(self, bath):
        # x[J i] = conj(x[i]): exactly off the diagonal nodes, where the k > m
        # half is the k < m half mirrored; within 1e-14 of max|x| on the
        # diagonal nodes, which the root solves without imposing the symmetry
        for kappa in (0.4, 0.0):
            for n_atoms in (1, 2, 3):
                spec = spec_for(bath, n_atoms=n_atoms, n_fock=8, g=0.5, kappa=kappa)
                if isinstance(bath, Dephasing) and kappa == 0:
                    with pytest.raises(DegenerateSteadyStateError, match="parity is conserved"):
                        steady_full(spec)
                    continue
                x = steady_full(spec)
                image, k, m = adjoint_image(spec)
                assert np.array_equal(x[image[k != m]], x[k != m].conj())
                diagonal = k == m
                assert (np.max(np.abs(x[image[diagonal]] - x[diagonal].conj()))
                        <= 1e-14 * np.max(np.abs(x)))

    def test_families_are_kept_apart(self, fresh_families):
        # specs that differ only in kappa, omega0, n_fock, N or the bath,
        # interleaved, each against its own fresh-cache solve
        specs = [
            spec_for(Generalized(gamma=0.2, t=0.3), n_atoms=2, n_fock=6, g=0.3),
            spec_for(Generalized(gamma=0.2, t=0.3), n_atoms=2, n_fock=6, g=0.3, kappa=0.3),
            spec_for(Generalized(gamma=0.2, t=0.3), n_atoms=2, n_fock=6, g=0.3, omega0=1.2),
            spec_for(Generalized(gamma=0.2, t=0.3), n_atoms=2, n_fock=7, g=0.3),
            spec_for(Generalized(gamma=0.2, t=0.3), n_atoms=3, n_fock=6, g=0.3),
            spec_for(Thermal(gamma=0.2, temperature=0.4), n_atoms=2, n_fock=6, g=0.3),
        ]
        fresh = []
        for spec in specs:
            exactn._FAMILIES.clear()
            fresh.append((steady_full(spec), full_steady_observables(spec)))
        exactn._FAMILIES.clear()
        for i in [*range(len(specs)), *reversed(range(len(specs)))]:
            x, obs = steady_full(specs[i]), full_steady_observables(specs[i])
            assert same_bytes(x, fresh[i][0])
            assert obs == fresh[i][1]
        assert len(exactn._FAMILIES) == len(specs)

    def test_cache_is_bounded_and_holds_six_atom_counts(self, monkeypatch, fresh_families):
        # N = 1..6 interleaved at each coupling: each family is built once;
        # more families than MAX_FAMILIES evict the least recently used
        calls = []
        build = exactn.embedded_ops
        monkeypatch.setattr(exactn, "embedded_ops", lambda spec: calls.append(spec) or build(spec))
        bath = Generalized(gamma=0.2, t=0.0)
        for g in (0.2, 0.4, 0.6):
            for n_atoms in range(1, 7):
                full_steady_observables(spec_for(bath, n_atoms=n_atoms, n_fock=2, g=g))
        assert exactn.MAX_FAMILIES >= 6
        assert len(calls) == 6
        for kappa in np.linspace(0.1, 0.5, exactn.MAX_FAMILIES):
            full_steady_observables(spec_for(bath, n_fock=2, g=0.2, kappa=float(kappa)))
        assert len(exactn._FAMILIES) == exactn.MAX_FAMILIES
        assert len(calls) == 6 + exactn.MAX_FAMILIES

    def test_cached_arrays_are_read_only(self):
        family = generator_family(spec_for(Thermal(gamma=0.2, temperature=0.4), n_atoms=2,
                                           n_fock=4, g=0.3))
        arrays = [family.keep, family.mirror, family.root_mirror, family.trace, family.bounds,
                  family.starts, family.index, family.front_base, family.front_interaction,
                  *family.rows]
        for m in (family.base, family.interaction, *family.ops.values()):
            arrays += [m.data, m.indices, m.indptr] if sp.issparse(m) else [m]
        for array in arrays:
            if array.size:
                with pytest.raises(ValueError):
                    array[0] = array[0]
            assert not array.flags.writeable
        with pytest.raises(TypeError):
            family.ops["atoms"] = None


class TestCountBasisAgreement:
    @pytest.mark.parametrize("bath", [
        Thermal(gamma=0.2, temperature=0.4),
        Generalized(gamma=0.2, t=0.3),
        Dephasing(gamma=0.3, sz=-0.4),
    ], ids=["thermal", "generalized", "dephasing"])
    def test_matches_tensor_reference(self, bath, tensor_reference):
        cavity = CavityParams(1.0, 0.4)
        gc = baths.closed_form_gc(bath, 1.0, cavity).g_c
        for n_atoms in (1, 2, 3):
            for g in (0.5 * gc, 1.5 * gc):
                spec = spec_for(bath, n_atoms=n_atoms, n_fock=12, g=float(g), kappa=0.4)
                obs = full_steady_observables(spec)
                photons, sz, sx = tensor_reference.observables(spec)
                assert abs(obs.photon_number - photons) < 1e-10 * photons
                assert abs(obs.sz_mean - sz) < 1e-10
                assert abs(obs.sx_mean - sx) < 1e-10

    @pytest.mark.parametrize("bath", [
        Thermal(gamma=0.2, temperature=0.4),
        Generalized(gamma=0.2, t=0.3),
        Dephasing(gamma=0.3, sz=-0.4),
    ], ids=["thermal", "generalized", "dephasing"])
    def test_tensor_steady_state_is_even(self, bath, tensor_reference):
        # the parity assumption, pinned without exactn: the steady state of the
        # whole tensor space carries nothing on the odd entries of vec(rho)
        gc = baths.closed_form_gc(bath, 1.0, CavityParams(1.0, 0.4)).g_c
        for n_atoms in (1, 2):
            for g in (0.5 * gc, 1.5 * gc):
                spec = spec_for(bath, n_atoms=n_atoms, n_fock=12, g=float(g), kappa=0.4)
                rho = tensor_reference.steady_rho(spec, block=False)
                odd = tensor_reference.parity(spec).reshape(rho.shape, order="F") == 1
                assert np.all(rho[odd] == 0)
                assert np.max(np.abs(tensor_reference.steady_rho(spec) - rho)) < 1e-12

    def test_parity_breaking_jump_solves_every_unknown(self, tensor_reference):
        # the steady state is not even, and <sx> = 0 would be the signature of
        # a blind block solve
        model = baths.spin_model(PARITY_BREAKING, 1.0)
        for n_atoms in (1, 2, 3):
            spec = FullSystemSpec(n_atoms, 8, 0.5, CavityParams(1.0, 0.4), model)
            obs = full_steady_observables(spec)
            photons, sz, sx = tensor_reference.observables(spec)
            assert abs(obs.photon_number - photons) < 1e-10 * photons
            assert abs(obs.sz_mean - sz) < 1e-10
            assert abs(obs.sx_mean - sx) < 1e-10
            assert abs(obs.sx_mean) > 1e-3


class TestRegressionCorrelator:
    @pytest.mark.parametrize("bath", [
        Dephasing(gamma=0.3, sz=-0.5),
        Thermal(gamma=0.1, temperature=0.5),
        Generalized(gamma=0.2, t=0.4),
    ])
    def test_matches_single_spin_engine(self, bath, transverse_sx):
        model = baths.spin_model(bath, 1.0)
        single = two_time_sx(model, steady_state(model).rho)
        full = full_regression_sx(spec_for(bath, n_fock=6, kappa=0.37), times=single.times)
        assert np.max(np.abs(single.values - full.values)) < 1e-10
        assert np.max(np.abs(full.values - transverse_sx(bath, 1.0, full.times))) < 1e-10
        # the tail past the window, closed in the full space without a steady state
        assert chi_from_correlator(full, 0.0).real == pytest.approx(
            chi_from_correlator(single, 0.0).real, rel=1e-10
        )

    def test_thermal_envelope_rate(self):
        bath = Thermal(gamma=0.1, temperature=0.5)
        series = full_regression_sx(spec_for(bath, n_fock=5))
        n = baths.bose_occupation(1.0, 0.5)
        sz = baths.steady_sz(bath, 1.0)
        ts = series.times
        expected = 0.25 * np.exp(-(1 + 2 * n) * 0.1 * ts) * (np.cos(ts) - 2j * sz * np.sin(ts))
        assert np.max(np.abs(series.values - expected)) < 1e-10
        assert chi_from_correlator(series, 0.0).real == pytest.approx(
            baths.closed_form_chi0(bath, 1.0), rel=1e-8
        )

    def test_undamped_cavity_modes_are_not_resonances(self):
        # kappa = 0: the cavity coherences are undamped modes at omega = k omega0
        # that atom 0's sx does not excite, so chi stays finite there
        bath = Dephasing(gamma=0.3, sz=-0.5)
        series = full_regression_sx(spec_for(bath, n_fock=4, kappa=0.0))
        chi = baths.closed_form_chi(bath, 1.0)
        for w in (0.0, 1.0, 2.0):
            assert abs(chi_from_correlator(series, w) - chi(w)) < 1e-9 * abs(chi(w))

    def test_requires_single_atom_and_zero_g(self):
        with pytest.raises(PreconditionError):
            full_regression_sx(spec_for(Thermal(gamma=0.1, temperature=0.5), n_atoms=2, n_fock=4))
        with pytest.raises(PreconditionError):
            full_regression_sx(spec_for(Thermal(gamma=0.1, temperature=0.5), g=0.2))


class TestFiniteSizeOnset:
    def test_photon_number_slope_sharpens_with_n(self):
        # the onset around g_c steepens from N=1 to N=3
        bath = Generalized(gamma=0.2, t=0.0)
        cavity_kappa = 0.4
        gc = baths.closed_form_gc(bath, 1.0, CavityParams(1.0, cavity_kappa)).g_c
        gs = np.linspace(0.4 * gc, 1.6 * gc, 5)
        slopes = []
        for n_atoms, n_fock in ((1, 10), (2, 10), (3, 10)):
            photons = [
                full_steady_observables(
                    spec_for(bath, n_atoms=n_atoms, n_fock=n_fock, g=float(g), kappa=cavity_kappa)
                ).photon_number
                for g in gs
            ]
            slopes.append(np.max(np.gradient(photons, gs)))
        assert slopes[0] < slopes[1] < slopes[2]

    def test_onset_sharpens_through_four_atoms(self):
        # the count basis reaches N = 4; the cutoff holds at c10's n_fock = 12
        bath = Generalized(gamma=0.2, t=0.0)
        gc = baths.closed_form_gc(bath, 1.0, CavityParams(1.0, 0.4)).g_c
        gs = np.linspace(0.4 * gc, 1.6 * gc, 5)
        slopes = []
        for n_atoms in (1, 2, 3, 4):
            photons = [
                full_steady_observables(
                    spec_for(bath, n_atoms=n_atoms, n_fock=10, g=float(g))
                ).photon_number
                for g in gs
            ]
            slopes.append(np.max(np.gradient(photons, gs)))
        assert np.all(np.diff(slopes) > 0)
        assert cutoff_stability(spec_for(bath, n_atoms=4, n_fock=12, g=1.5 * gc)) < 0.01

    def test_cutoff_stability_metric(self):
        spec = spec_for(Generalized(gamma=0.2, t=0.0), n_atoms=1, n_fock=8, g=0.6)
        assert cutoff_stability(spec) < 0.01
        # the caller's observables of spec stand in for a second solve of it
        drift = cutoff_stability(spec, observables=full_steady_observables(spec))
        assert drift == cutoff_stability(spec)
