import itertools

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from dicke_critic import baths, qops
from dicke_critic.baths import Dephasing, Generalized, Thermal
from dicke_critic.errors import (
    DimensionMismatchError,
    InvalidModelError,
    UnknownOperatorError,
)

from conftest import random_density_matrix


def test_pauli_commutator():
    # [sx, sy] = i sz in the spin-1/2 normalization
    lhs = qops.commutator(qops.sigma("x"), qops.sigma("y"))
    assert np.allclose(lhs, 1j * qops.sigma("z"), atol=1e-15)


def test_pauli_squares_to_quarter_identity():
    sx = qops.sigma("x")
    assert np.allclose(sx @ sx, 0.25 * np.eye(2), atol=1e-15)


def test_raising_lowering_adjoint():
    assert np.array_equal(qops.sigma("plus"), qops.sigma("minus").conj().T)
    assert np.array_equal(qops.sigma("plus"), np.array([[0, 1], [0, 0]], dtype=complex))


def test_sz_commutator_with_raising():
    # [sz, s+] = s+
    lhs = qops.commutator(qops.sigma("z"), qops.sigma("plus"))
    assert np.allclose(lhs, qops.sigma("plus"), atol=1e-15)


def test_self_commutator_vanishes(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert np.allclose(qops.commutator(a, a), 0.0, atol=1e-15)


def test_unknown_label_raises():
    with pytest.raises(UnknownOperatorError):
        qops.sigma("w")


def test_commutator_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        qops.commutator(np.eye(2), np.eye(3))


def test_vectorization_is_column_stacking():
    rho = np.array([[1, 2], [3, 4]], dtype=complex)
    assert np.array_equal(qops.vectorize(rho), np.array([1, 3, 2, 4], dtype=complex))


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_vectorization_round_trip(seed):
    rng = np.random.default_rng(seed)
    rho = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert np.array_equal(qops.devectorize(qops.vectorize(rho)), rho)


def test_generator_rejects_non_hermitian_hamiltonian():
    with pytest.raises(InvalidModelError):
        qops.lindblad_generator(np.array([[0, 1], [0, 0]], dtype=complex), [])


def test_generator_rejects_negative_rate():
    with pytest.raises(InvalidModelError):
        qops.LindbladChannel(qops.sigma("z"), -0.1)


def test_sparse_checks_match_dense():
    with pytest.raises(InvalidModelError):
        qops.lindblad_generator(sp.csr_matrix(qops.sigma("plus")), [])
    with pytest.raises(InvalidModelError):
        qops.LindbladChannel(sp.csr_matrix(np.array([[0, np.nan], [0, 0]], dtype=complex)), 0.1)
    with pytest.raises(DimensionMismatchError):
        qops.lindblad_generator(
            sp.csr_matrix(qops.sigma("z")),
            [qops.LindbladChannel(sp.identity(3, dtype=complex, format="csr"), 0.1)],
        )


@pytest.mark.parametrize("bath", [
    Dephasing(gamma=0.3, sz=-0.4),
    Thermal(gamma=0.1, temperature=0.5),
    Generalized(gamma=0.2, t=0.4),
])
def test_sparse_generator_equals_dense(bath):
    # one builder for both representations: same entries, bit for bit
    model = baths.spin_model(bath, 1.3)
    dense = qops.lindblad_generator(model.hamiltonian(), model.channels)
    sparse = qops.lindblad_generator(
        sp.csr_matrix(model.hamiltonian()),
        [qops.LindbladChannel(sp.csr_matrix(ch.op), ch.rate) for ch in model.channels],
    )
    assert sp.issparse(sparse)
    assert np.array_equal(sparse.toarray(), dense)


def _operand(rng, shape, dtype):
    """Random entries of dtype, with exact zeros of both signs and one entry kept nonzero."""
    a = rng.normal(size=shape).astype(dtype)
    if dtype is complex:
        a += 1j * rng.normal(size=shape)
    a[rng.random(shape) < 0.3] = 0.0
    a[rng.random(shape) < 0.2] = -0.0
    a[0, 0] = 1.5
    return a


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("shapes", [((2, 2), (2, 2)), ((4, 4), (2, 2)), ((3, 2), (1, 4)),
                                    ((1, 3), (4, 2))])
def test_dense_kron_is_np_kron(rng, dtype, shapes):
    # the generator's Kronecker product forms np.kron's products, bit for bit
    a, b = (_operand(rng, shape, dtype) for shape in shapes)
    kron, _ = qops._kron_and_eye(a)
    out, ref = kron(a, b), np.kron(a, b)
    assert out.dtype == ref.dtype and out.shape == ref.shape
    assert out.tobytes() == ref.tobytes()


@pytest.mark.parametrize("fmt", ["csr", "coo"])
@pytest.mark.parametrize("dtype", [float, complex])
def test_sparse_kron_is_sp_kron(rng, fmt, dtype):
    # same entries and the same CSR structure as sp.kron, since SuperLU orders
    # by the structure; every operand has an entry (sp.kron gives float64 when one has none)
    ops = [sp.csr_matrix(_operand(rng, shape, dtype)).asformat(fmt)
           for shape in ((2, 2), (3, 2), (2, 4), (6, 6))]
    a = sp.diags(np.sqrt(np.arange(1, 6)), 1).astype(complex).asformat(fmt)
    ops += [a, a.T, 0.0 * a, sp.identity(6, dtype=complex, format=fmt)]  # 0.0 * a stores zeros
    for x, y in itertools.product(ops, repeat=2):
        kron, _ = qops._kron_and_eye(x)
        out, ref = kron(x, y), sp.kron(x, y, format="csr")
        assert type(out) is type(ref) and out.shape == ref.shape and out.dtype == ref.dtype
        assert np.array_equal(out.indptr, ref.indptr) and out.indptr.dtype == ref.indptr.dtype
        assert np.array_equal(out.indices, ref.indices) and out.indices.dtype == ref.indices.dtype
        assert out.data.tobytes() == ref.data.tobytes()
        assert out.has_sorted_indices == ref.has_sorted_indices


def test_bare_precession_spectrum():
    # eigenvalues {0, 0, +i wz, -i wz} for h = wz sz and no channels
    wz = 1.3
    gen = qops.lindblad_generator(wz * qops.sigma("z"), [])
    vals = np.sort_complex(np.linalg.eigvals(gen))
    expected = np.sort_complex(np.array([0, 0, 1j * wz, -1j * wz]))
    assert np.allclose(vals, expected, atol=1e-12)


def test_dephasing_coherence_eigenvalues():
    # coherences decay at exactly gamma in the doubled convention
    wz, gphi = 1.0, 0.4
    gen = qops.lindblad_generator(
        wz * qops.sigma("z"), [qops.LindbladChannel(qops.sigma("z"), gphi)]
    )
    vals = np.linalg.eigvals(gen)
    coh = sorted(v for v in vals if abs(v.imag) > 1e-10)
    assert np.allclose(coh, [-gphi - 1j * wz, -gphi + 1j * wz], atol=1e-12)


def test_sx_noise_channel_conserves_sx():
    # L = s- + s+ (t=1) with no Hamiltonian annihilates vec(sx)
    op = qops.sigma("minus") + qops.sigma("plus")
    gen = qops.lindblad_generator(np.zeros((2, 2), dtype=complex), [qops.LindbladChannel(op, 0.7)])
    image = gen @ qops.vectorize(qops.sigma("x"))
    assert np.max(np.abs(image)) < 1e-14


@pytest.mark.parametrize("bath_channels", [
    [],
    [("z", 0.4)],
    [("minus", 0.25), ("plus", 0.1)],
])
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=34, deadline=None)
def test_generator_annihilates_trace(bath_channels, seed):
    rng = np.random.default_rng(seed)
    gen = qops.lindblad_generator(
        qops.sigma("z"), [qops.LindbladChannel(qops.sigma(l), r) for l, r in bath_channels]
    )
    rho = random_density_matrix(rng)
    assert abs(np.trace(qops.devectorize(gen @ qops.vectorize(rho)))) < 1e-12
    assert qops.trace_preservation_defect(gen) < 1e-10


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_generator_preserves_hermiticity(seed):
    rng = np.random.default_rng(seed)
    op = qops.sigma("minus") + 0.3 * qops.sigma("plus")
    gen = qops.lindblad_generator(1.1 * qops.sigma("z"), [qops.LindbladChannel(op, 0.2)])
    rho = random_density_matrix(rng)
    image = qops.devectorize(gen @ qops.vectorize(rho))
    assert np.max(np.abs(image - image.conj().T)) < 1e-12


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    t=st.floats(min_value=0.0, max_value=10.0),
)
@settings(max_examples=20, deadline=None)
def test_evolution_preserves_positivity(seed, t):
    import scipy.linalg

    rng = np.random.default_rng(seed)
    gen = qops.lindblad_generator(
        qops.sigma("z"),
        [qops.LindbladChannel(qops.sigma("minus"), 0.3),
         qops.LindbladChannel(qops.sigma("z"), 0.1)],
    )
    rho = random_density_matrix(rng)
    evolved = qops.devectorize(scipy.linalg.expm(gen * t) @ qops.vectorize(rho))
    assert np.min(np.linalg.eigvalsh(0.5 * (evolved + evolved.conj().T))) > -1e-9


def test_unique_steady_state_spectrum():
    # exactly one eigenvalue at zero when a polarizing channel is present
    gen = qops.lindblad_generator(
        qops.sigma("z"), [qops.LindbladChannel(qops.sigma("minus"), 0.2)]
    )
    vals, vecs = qops.null_space(gen)
    assert vecs.shape[1] == 1


def test_density_matrix_validation():
    qops.validate_density_matrix(np.diag([0.25, 0.75]).astype(complex))
    with pytest.raises(InvalidModelError):
        qops.validate_density_matrix(np.diag([0.5, 0.6]).astype(complex))
    with pytest.raises(InvalidModelError):
        qops.validate_density_matrix(np.array([[1.2, 0], [0, -0.2]], dtype=complex))


def test_predicates():
    assert qops.is_hermitian(qops.sigma("x"))
    assert not qops.is_hermitian(qops.sigma("plus"))
    assert qops.is_unitary(np.eye(2, dtype=complex))
    assert qops.is_positive_semidefinite(np.diag([0.3, 0.7]).astype(complex))
    assert not qops.is_positive_semidefinite(np.diag([1.3, -0.3]).astype(complex))
