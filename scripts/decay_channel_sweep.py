#!/usr/bin/env python3
"""Critical coupling vs the mixing parameter t of the channel s- + t s+.

Emits g_c(t)/g_0 for both closed-form variants at several damping
strengths, to visualize how the symmetric-decay approximation (the
"literature" mode) deviates from the exact susceptibility: the exact curve
is monotone in t for gamma <= (3 sqrt(3)/2) omega_z ~= 2.598 omega_z (every
default damping strength), while the approximation dips before diverging at
t -> 1. Above that damping the exact curve is non-monotone too.

Each curve is one critical.sweep over t, of at most config.MAX_GRID_POINTS
points. A bad input or an unwritable --output is one error line and exit 1.
"""

import argparse
import sys

import numpy as np

from dicke_critic import CavityParams, DickeCriticError, GcMode, Generalized, SweepPlan, sweep
from dicke_critic.cli import csv_table, write
from dicke_critic.config import MAX_GRID_POINTS, parse_float_list


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--gamma-ratios", type=parse_float_list, default="0.25,0.5,1.0",
                    help="comma list of gamma_t / omega_z values")
    ap.add_argument("--kappa", type=float, default=0.0)
    ap.add_argument("--points", type=int, default=100)
    ap.add_argument("--output", default="decay_channel_sweep.csv")
    args = ap.parse_args()

    if args.points > MAX_GRID_POINTS:
        sys.exit(f"{ap.prog}: error: --points = {args.points} must be <= {MAX_GRID_POINTS}")
    omega_z = 1.0
    # a --points below 1 gives an empty grid, which SweepPlan rejects in one error line
    ts = np.linspace(0.0, 0.99, max(args.points, 0))
    names, cols = ["t"], [ts]
    try:
        cavity = CavityParams(omega0=1.0, kappa=args.kappa)
        for r in args.gamma_ratios:
            names += [f"gc_exact_gamma{r}", f"gc_quoted_gamma{r}"]
            bath = Generalized(gamma=r * omega_z, t=0.0)
            for mode in (GcMode.SELF_CONSISTENT, GcMode.LITERATURE):
                table = sweep(SweepPlan(bath, omega_z, cavity, "t", ts, mode=mode))
                cols.append(np.where(table.code == 0, table.gc_over_g0, np.inf))
        write(args.output, csv_table(",".join(names), cols))
    except DickeCriticError as exc:
        sys.exit(f"{ap.prog}: error: {exc}")
    print(f"wrote {args.output} ({len(ts)} rows, {len(args.gamma_ratios)} damping strengths)")


if __name__ == "__main__":
    main()
