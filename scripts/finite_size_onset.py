#!/usr/bin/env python3
"""Steady photon number vs coupling for N = 1..max-atoms atoms (exact Liouvillian).

The onset around the infinite-N critical coupling sharpens with atom
number. Writes one CSV: g, then a photon-number column per N, plus the
mean polarization of the largest system. --max-atoms (default 3) is
limited only by the exact-N size guard, C(N+3, 3) n_fock^2 <= 16384
unknowns: N = 6 at the default n_fock = 12.
"""

import argparse
from pathlib import Path

import numpy as np

from dicke_critic import CavityParams, Generalized, closed_form_gc, spin_model
from dicke_critic.cli import HEADER, fmt
from dicke_critic.exactn import FullSystemSpec, full_steady_observables


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--gamma", type=float, default=0.2, help="atomic decay rate")
    ap.add_argument("--kappa", type=float, default=0.4)
    ap.add_argument("--n-fock", type=int, default=12)
    ap.add_argument("--points", type=int, default=13)
    ap.add_argument("--max-atoms", type=int, default=3)
    ap.add_argument("--output", default="finite_size_onset.csv")
    args = ap.parse_args()

    bath = Generalized(gamma=args.gamma, t=0.0)
    cavity = CavityParams(omega0=1.0, kappa=args.kappa)
    model = spin_model(bath, 1.0)
    gc = closed_form_gc(bath, 1.0, cavity).g_c
    gs = np.linspace(0.2 * gc, 1.8 * gc, args.points)
    atom_counts = list(range(1, args.max_atoms + 1))

    lines = ["g_over_gc," + ",".join(f"photons_N{n}" for n in atom_counts) + ",sz_mean_largest"]
    for g in gs:
        row = [fmt(g / gc)]
        sz_last = 0.0
        for n in atom_counts:
            spec = FullSystemSpec(n_atoms=n, n_fock=args.n_fock, g=float(g),
                                  cavity=cavity, model=model)
            obs = full_steady_observables(spec)
            row.append(fmt(obs.photon_number))
            sz_last = obs.sz_mean
        row.append(fmt(sz_last))
        lines.append(",".join(row))

    out = Path(args.output)
    out.write_text("\n".join([HEADER, *lines]) + "\n", encoding="utf-8")
    print(f"wrote {out}: infinite-N threshold gc = {fmt(gc)}")


if __name__ == "__main__":
    main()
