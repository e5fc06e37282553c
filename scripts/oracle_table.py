#!/usr/bin/env python3
"""Three-way check of the critical coupling on a bath parameter grid.

For each parameter set the table lists the closed-form g_c, the value
reconstructed from numerical quadrature of the correlator, and the
mean-field stability threshold, with relative deviations: a view of
``critical.agreement`` over ``cli.ORACLE_SUITE``. The first suite point
without a transition exits 2, and one with an error exits 1, each with one
stderr line that names the point and no table.
"""

import argparse
import sys

from dicke_critic.cli import ORACLE_SUITE, fmt, oracle_suite
from dicke_critic.critical import ROUTES
from dicke_critic.errors import DickeCriticError, NoTransitionError


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--omega-z", type=float, default=1.0)
    ap.add_argument("--omega0", type=float, default=1.0)
    args = ap.parse_args()
    try:
        points = oracle_suite(args.omega_z, args.omega0, ROUTES)
    except DickeCriticError as exc:
        print(f"oracle_table.py: error: {exc}", file=sys.stderr)
        sys.exit(2 if isinstance(exc, NoTransitionError) else 1)

    print(f"{'bath':38s} {'kappa':>6s} {'gc_closed':>12s} {'gc_quad':>12s} "
          f"{'g_star':>12s} {'dev_quad':>9s} {'dev_mf':>9s}")
    for (bath_text, kappa), point in zip(ORACLE_SUITE, points):
        gc, gc_quad, g_star = (point.results[route].g_c for route in ROUTES)
        print(f"{bath_text:38s} {kappa:6.2f} {fmt(gc)[:12]:>12s} {fmt(gc_quad)[:12]:>12s} "
              f"{fmt(g_star)[:12]:>12s} {abs(gc_quad-gc)/gc:9.1e} {abs(g_star-gc)/gc:9.1e}")


if __name__ == "__main__":
    main()
