#!/usr/bin/env python3
"""Steady photon number vs coupling for N = 1..max-atoms atoms (exact Liouvillian).

The onset around the infinite-N critical coupling sharpens with atom
number. Writes one CSV: g, then a photon-number column per N, plus the
mean polarization of the largest system. --max-atoms (default 3) is
limited only by the exact-N size guard, C(N+3, 3) n_fock^2 <= 16384
unknowns: N = 6 at the default n_fock = 12. A bad input or an unwritable
--output is one error line and exit 1, and no file is written.
"""

import argparse
import os
import sys

# One BLAS thread unless the environment sets its own, before numpy loads BLAS:
# the photon numbers differ in their last digits between thread counts, and
# the small products of the exact-N front elimination gain nothing from more.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from dicke_critic import (  # noqa: E402
    CavityParams, DickeCriticError, Generalized, NoTransition, closed_form_gc, spin_model,
)
from dicke_critic.cli import csv_table, fmt, write  # noqa: E402
from dicke_critic.exactn import FullSystemSpec, full_steady_observables  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--gamma", type=float, default=0.2, help="atomic decay rate")
    ap.add_argument("--kappa", type=float, default=0.4)
    ap.add_argument("--n-fock", type=int, default=12)
    ap.add_argument("--points", type=int, default=13)
    ap.add_argument("--max-atoms", type=int, default=3)
    ap.add_argument("--output", default="finite_size_onset.csv")
    args = ap.parse_args()
    for flag, count in (("--points", args.points), ("--max-atoms", args.max_atoms)):
        if count < 1:
            sys.exit(f"{ap.prog}: error: {flag} = {count} must be >= 1")

    try:
        bath = Generalized(gamma=args.gamma, t=0.0)
        cavity = CavityParams(omega0=1.0, kappa=args.kappa)
        model = spin_model(bath, 1.0)
        # a --gamma so large that chi0 at unit scale (frequencies over gamma, to a power of
        # two) falls within critical.ZERO_TOL of 0 has no transition
        if isinstance(result := closed_form_gc(bath, 1.0, cavity), NoTransition):
            print(f"no transition at gamma = {args.gamma}: {result.reason.value}", file=sys.stderr)
            sys.exit(2)
        gc = result.g_c
        gs = np.linspace(0.2 * gc, 1.8 * gc, args.points)
        atom_counts = list(range(1, args.max_atoms + 1))

        photons = np.zeros((len(gs), len(atom_counts)))
        sz_last = np.zeros(len(gs))
        for i, g in enumerate(gs.tolist()):
            for j, n in enumerate(atom_counts):
                obs = full_steady_observables(FullSystemSpec(
                    n_atoms=n, n_fock=args.n_fock, g=g, cavity=cavity, model=model))
                photons[i, j], sz_last[i] = obs.photon_number, obs.sz_mean
    except DickeCriticError as exc:
        sys.exit(f"{ap.prog}: error: {exc}")

    header = "g_over_gc," + ",".join(f"photons_N{n}" for n in atom_counts) + ",sz_mean_largest"
    try:
        write(args.output, csv_table(header, [gs / gc, *photons.T, sz_last]))
    except DickeCriticError as exc:
        sys.exit(f"{ap.prog}: error: {exc}")
    print(f"wrote {args.output}: infinite-N threshold gc = {fmt(gc)}")


if __name__ == "__main__":
    main()
