import os

# One BLAS thread, set before numpy loads BLAS: the exact-N outputs differ in
# their last digits between thread counts, and the dense eigendecompositions
# slow down sharply when the threads share busy cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402
import scipy.sparse as sp  # noqa: E402
import scipy.sparse.linalg as spla  # noqa: E402


def to_scipy(t):
    """A qops.Triplets as a scipy CSR matrix, duplicates summed."""
    return sp.csr_matrix((t.data, (t.row, t.col)), shape=t.shape)


def to_triplets(m):
    """A scipy sparse matrix as qops.Triplets."""
    from dicke_critic import qops

    m = m.tocoo()
    return qops.Triplets(m.row, m.col, m.data, m.shape)


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


def random_density_matrix(rng, d=2):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


@pytest.fixture
def polariton_residuals():
    """|det(omega)| at omega = i lambda for the 6 eigenvalues lambda of J(g), ascending.

    The roots of the cavity determinant are i times eigenvalues of the
    mean-field Jacobian at the normal state; chi is a callable chi(omega).
    """
    from dicke_critic.meanfield import jacobian
    from dicke_critic.response import cavity_det

    def residuals(cavity, model, g, chi):
        lams = np.linalg.eigvals(jacobian(cavity, model, g))
        return np.sort([abs(cavity_det(1j * lam, cavity, g, chi(1j * lam))) for lam in lams])

    return residuals


@pytest.fixture
def transverse_sx():
    """Exact S_x(tau) of a catalog bath from its 2x2 transverse block.

    S_x = [expm(M tau) (1/4, i sz/2)]_0 with M = [[-gx, -wz], [wz, -gy]],
    rates and polarization from baths; no eigenvectors, so it also holds
    at the exceptional points 2 t gamma = omega_z of the mixed channel.
    """
    import scipy.linalg

    from dicke_critic import baths

    def sx(bath, omega_z, ts):
        gx, gy = baths.transverse_rates(bath, omega_z)
        block = np.array([[-gx, -omega_z], [omega_z, -gy]])
        start = np.array([0.25, 0.5j * baths.steady_sz(bath, omega_z)])
        return np.array([(scipy.linalg.expm(block * t) @ start)[0] for t in np.atleast_1d(ts)])

    return sx


class TensorReference:
    """The exact-N model on the full 2^N n_fock Hilbert space.

    Tensor order is cavity (x) atom_1 (x) ... (x) atom_N; the generator acts
    on the column-stacked vec(rho) and is assembled from per-atom embedded
    operators in scipy.sparse, independently of the count basis of
    ``exactn``; ``qops.lindblad_generator`` builds it on Triplets. The solve
    runs on the even-parity entries of vec(rho) alone when no entry of that
    generator couples them to odd ones.
    """

    @staticmethod
    def parity(spec):
        """Parity of each vec(rho) entry: photons plus excited atoms on ket and bra, mod 2."""
        atoms = [bin(bits).count("1") for bits in range(2**spec.n_atoms)]
        state = np.add.outer(np.arange(spec.n_fock), atoms).ravel()
        return np.add.outer(state, state).ravel(order="F") % 2

    @staticmethod
    def embed(spec, factor, slot):
        """factor at tensor slot `slot` (0 = cavity, 1 + j = atom j), identities elsewhere."""
        chain = [sp.identity(spec.n_fock, dtype=complex, format="csr")]
        chain += [sp.identity(2, dtype=complex, format="csr")] * spec.n_atoms
        chain[slot] = sp.csr_matrix(factor) if isinstance(factor, np.ndarray) else to_scipy(factor)
        out = chain[0]
        for m in chain[1:]:
            out = sp.kron(out, m, format="csr")
        return out

    def generator(self, spec):
        from dicke_critic import exactn, qops

        a = self.embed(spec, exactn.annihilation(spec.n_fock), 0)
        h = spec.cavity.omega0 * (a.conj().T @ a)
        coupling = 2.0 * spec.g / np.sqrt(spec.n_atoms)
        channels = [(a, spec.cavity.kappa)] if spec.cavity.kappa > 0 else []
        for j in range(spec.n_atoms):
            sx = self.embed(spec, qops.sigma("x"), 1 + j)
            h = h + spec.model.omega_z * self.embed(spec, qops.sigma("z"), 1 + j)
            h = h + coupling * (sx @ (a + a.conj().T))
            channels += [(self.embed(spec, ch.op, 1 + j), ch.rate) for ch in spec.model.channels]
        channels = [qops.LindbladChannel(to_triplets(op), rate) for op, rate in channels]
        return to_scipy(qops.lindblad_generator(to_triplets(h), channels))

    def steady_rho(self, spec, block=True):
        """Steady density matrix by one bordered sparse LU, on the even block if `block`."""
        from dicke_critic import qops

        dim = spec.hilbert_dim
        gen = self.generator(spec).tocoo()
        parity = self.parity(spec)
        keep = np.arange(dim * dim)
        if block and not np.any((parity[gen.row] != parity[gen.col]) & (gen.data != 0)):
            keep = np.flatnonzero(parity == 0)
        bordered = gen.tocsr()[keep][:, keep].tolil()
        bordered[0] = qops.trace_functional(dim)[keep]
        rhs = np.zeros(len(keep), dtype=complex)
        rhs[0] = 1.0
        vec = np.zeros(dim * dim, dtype=complex)
        # minimum degree on A + A^T fills 3.1M against COLAMD's 4.2M at N = 3, n_fock = 12
        lu = spla.splu(bordered.tocsc(), permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})
        vec[keep] = lu.solve(rhs)
        rho = vec.reshape(dim, dim, order="F")
        return rho / np.trace(rho)

    def observables(self, spec):
        """(photon number, <sz>, <sx>) of the steady state, spins averaged over atoms."""
        from dicke_critic import exactn, qops

        rho = self.steady_rho(spec)

        def expect(op):
            return float(np.real(np.trace(op @ rho)))

        a = self.embed(spec, exactn.annihilation(spec.n_fock), 0)
        n = spec.n_atoms
        return (
            expect(a.conj().T @ a),
            sum(expect(self.embed(spec, qops.sigma("z"), 1 + j)) for j in range(n)) / n,
            sum(expect(self.embed(spec, qops.sigma("x"), 1 + j)) for j in range(n)) / n,
        )


@pytest.fixture
def tensor_reference():
    return TensorReference()
