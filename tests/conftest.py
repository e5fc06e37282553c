import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


def random_density_matrix(rng, d=2):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


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
