import itertools

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from dicke_critic import baths, exactn, qops
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

    def test_trace_preservation(self):
        # the count-basis trace row annihilates the generator: Tr o L = 0
        spec = spec_for(Generalized(gamma=0.2, t=0.3), n_atoms=2, n_fock=5, g=0.4)
        ops = generator_family(spec).ops
        gen = build_full_generator(spec)
        trace = np.kron(trace_functional(spec.n_fock), ops["trace"])
        assert np.max(np.abs(trace @ gen)) < 1e-10

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
        # the sparse LU solve on the even block against the null vector of the
        # dense eigendecomposition of the full generator, normalized by the
        # trace row; the odd entries (k + m + n_10 + n_01 odd) are never solved for
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
    ], ids=["generalized", "thermal", "dephasing"])
    def test_block_lu_matches_dense_solve(self, bath):
        # the sparse LU of the bordered even block against np.linalg.solve of
        # the same block, to 1e-13 of max|x|, below and above g_c at N = 3 (1000 unknowns)
        gc = baths.closed_form_gc(bath, 1.0, CavityParams(1.0, 0.4)).g_c
        for g in (0.5 * gc, 1.5 * gc):
            spec = spec_for(bath, n_atoms=3, n_fock=10, g=float(g))
            ops = generator_family(spec).ops
            gen = build_full_generator(spec)
            trace = np.kron(trace_functional(spec.n_fock), ops["trace"])
            cavity = np.add.outer(np.arange(spec.n_fock), np.arange(spec.n_fock)).ravel()
            even = np.flatnonzero(np.add.outer(cavity, ops["coherences"]).ravel() % 2 == 0)
            block = np.vstack([trace[even], gen[even[1:]][:, even].toarray()])
            rhs = np.zeros(even.size, dtype=complex)
            rhs[0] = 1.0
            dense = np.zeros(gen.shape[0], dtype=complex)
            dense[even] = np.linalg.solve(block, rhs)
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


def per_coupling_steady_state(spec):
    """The LU of the bordered even block of per_coupling_generator."""
    gen, ops = per_coupling_generator(spec)
    trace = np.kron(trace_functional(spec.n_fock), ops["trace"])
    photons = np.add.outer(np.arange(spec.n_fock), np.arange(spec.n_fock)).ravel()
    keep = np.flatnonzero(np.add.outer(photons, ops["coherences"]).ravel() % 2 == 0)
    bordered = sp.vstack([sp.csr_matrix(trace[keep]), gen[keep[1:]][:, keep]], format="csc")
    lu = spla.splu(bordered, permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})
    rhs = np.zeros(keep.size, dtype=complex)
    rhs[0] = 1.0
    x = np.zeros(gen.shape[0], dtype=complex)
    x[keep] = lu.solve(rhs)
    return x / (trace @ x)


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
                    with pytest.raises(RuntimeError, match="singular"):
                        per_coupling_steady_state(spec)
                    continue
                cached = steady_full(spec)
                exactn._FAMILIES.clear()
                assert same_bytes(cached, steady_full(spec))
                assert same_bytes(cached, per_coupling_steady_state(spec))

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
        arrays = [family.keep, family.trace, *family.rows]
        for m in (family.base, family.interaction, family.bordered_base,
                  family.bordered_interaction, *family.ops.values()):
            arrays += [m.data, m.indices, m.indptr] if sp.issparse(m) else [m]
        for array in arrays:
            with pytest.raises(ValueError):
                array[0] = array[0]
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
        # s- + 0.3 sz couples diagonal and coherence units: the steady state is
        # not even, and <sx> = 0 would be the signature of a blind block solve
        jump = qops.sigma("minus") + 0.3 * qops.sigma("z")
        model = baths.spin_model(Custom((qops.LindbladChannel(jump, 0.2),)), 1.0)
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
