"""finite_size_onset: exact-N steady states on the grid of scripts/finite_size_onset.py.

N = 1, 2, 3 atoms at n_fock = 12 with the script's defaults (generalized
bath gamma = 0.2, t = 0; kappa = 0.4; omega0 = omega_z = 1), at g = 0 and at
the script's 13 couplings from 0.2 to 1.8 g_c: 42 steady states per pass.
The seed sets the order of the pass. The N = 3 sparse solve over 9216
unknowns does most of the work.
"""

from __future__ import annotations

import random

import numpy as np

import reference as ref
from common import Op
from reference import require

GAMMA, T_MIX, KAPPA, OMEGA0, OMEGA_Z = 0.2, 0.0, 0.4, 1.0, 1.0  # T_MIX: the bath's t
N_FOCK = 12
ATOMS = (1, 2, 3)
COUPLINGS = 13
SPAN = (0.2, 1.8)  # in units of the closed-form g_c
N1_TOL = 1e-8
CALIBRATION = ("format", "small_numpy", "vector", "large_vector")  # calibrate.PARTS that track this workload


def _steady_op(n_atoms: int, g: float, single_atom_cache: dict) -> Op:
    from dicke_critic import baths, exactn

    model = baths.spin_model(baths.Generalized(gamma=GAMMA, t=T_MIX), OMEGA_Z)
    cavity = baths.CavityParams(omega0=OMEGA0, kappa=KAPPA)

    def run():
        spec = exactn.FullSystemSpec(n_atoms=n_atoms, n_fock=N_FOCK, g=g, cavity=cavity,
                                     model=model)
        return exactn.full_steady_observables(spec)

    def check(obs) -> None:
        require(obs.photon_number >= -1e-12, f"photon number {obs.photon_number} < 0")
        require(abs(obs.sz_mean) <= 0.5 + 1e-12, f"|<sz>| = {abs(obs.sz_mean)} > 1/2")
        if g == 0.0:
            want = float(ref.steady_sz("generalized", T_MIX, OMEGA_Z))
            require(abs(obs.photon_number) <= 1e-12, f"{obs.photon_number} photons at g = 0")
            require(abs(obs.sz_mean - want) <= 1e-10, f"<sz> = {obs.sz_mean} at g = 0, want {want}")
        if n_atoms == 1:
            if g not in single_atom_cache:
                single_atom_cache[g] = ref.single_atom_steady_state(
                    OMEGA0, KAPPA, OMEGA_Z, GAMMA, T_MIX, g, N_FOCK)
            photons, sz = single_atom_cache[g]
            require(abs(obs.photon_number - photons) <= N1_TOL * max(photons, 1.0),
                    f"N = 1 photon number {obs.photon_number}, dense reference {photons}")
            require(abs(obs.sz_mean - sz) <= N1_TOL, f"N = 1 <sz> {obs.sz_mean}, dense reference {sz}")

    return Op(f"N={n_atoms}/g={g!r}", run, check)


def build(seed: int) -> tuple[list[Op], Op]:
    chi0 = float(ref.chi0("generalized", GAMMA, T_MIX, OMEGA_Z))
    gc = float(ref.critical_coupling(chi0, OMEGA0, KAPPA))
    lo, hi = SPAN
    couplings = [0.0] + [float(g) for g in np.linspace(lo * gc, hi * gc, COUPLINGS)]
    cache: dict = {}
    ops = [_steady_op(n, g, cache) for g in couplings for n in ATOMS]
    # the cost of an N = 3 solve varies with g by up to 1.6x, so the grid is
    # the script's own and the seed only sets the order of the pass
    random.Random(f"finite_size_onset:{seed}").shuffle(ops)
    warmup = _steady_op(2, gc, cache)
    return ops, warmup
