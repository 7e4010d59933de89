#!/usr/bin/env python3
"""Track return-visit expectations and growth-rate agreement as order grows.

Two visit counts are scanned for the G(2,3) walk: v_n over identity-returning
words (winding zero) and v_n over all Schreier returns (q = 1 mass).  The
former settles at ~4.09 with an O(1/n) tail; the latter crawls to its limit
like c/sqrt(n), which is why short windows still show visible growth.  The
last block prints f_{n,0}^(1/n) against the mass rate, whose gap closes like
log(n)/n.
"""

import argparse

import numpy as np

from cogrowth.algebraic import trefoil_equation
from cogrowth.asymptotics import expected_returns, growth_rate_compare
from cogrowth.fastseries import high_order_rows


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--order", type=int, default=300, help="series order (default 300)")
    args = parser.parse_args()
    N = args.order

    print(f"expanding the G(2,3) return series to order {N} ...")
    rows = high_order_rows(trefoil_equation(), N)
    center = [rows.coeffs[n].coeff(0) for n in range(N + 1)]
    masses = [p.eval_at_one() for p in rows.coeffs]

    v0 = expected_returns(center)
    v1 = expected_returns(masses)
    print(f"\n{'n':>6s} {'v_n (winding 0)':>16s} {'v_n (q=1)':>12s}")
    for n in range(N // 6, N + 1, N // 6):
        print(f"{n:6d} {v0[n]:16.4f} {v1[n]:12.4f}")

    half, full = N // 2, N
    print(f"\nwindow growth: v_{full} - v_{half} = {v0[full] - v0[half]:+.4f} (winding 0), "
          f"{v1[full] - v1[half]:+.4f} (q=1)")

    ns = np.arange(max(50, N // 2), N + 1)
    A = np.column_stack([np.ones(ns.size), 1.0 / np.sqrt(ns)])
    sol, *_ = np.linalg.lstsq(A, np.array([v1[n] for n in ns]), rcond=None)
    print(f"q=1 tail fit on [{ns[0]}, {N}]: v_inf ~ {sol[0]:.3f}, slope {-sol[1]:.1f}/sqrt(n)")

    print(f"\n{'n':>6s} {'center rate':>12s} {'mass rate':>10s} {'gap':>8s}")
    for n in range(N // 4, N + 1, N // 4):
        a, b = growth_rate_compare(rows.coeffs, n)
        print(f"{n:6d} {a:12.4f} {b:10.4f} {abs(a - b):8.4f}")


if __name__ == "__main__":
    main()
