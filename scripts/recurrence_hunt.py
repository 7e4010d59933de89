#!/usr/bin/env python3
"""Map the polynomial-recurrence frontier of a cogrowth sequence.

For each recurrence order r, reports the smallest coefficient degree d at
which the (r, d) linear system acquires a nullvector modulo a 26-bit prime
(full modular rank proves no rational recurrence of that shape exists), or
that every degree up to --max-degree has full rank.  One elimination per
order decides every degree, over the rows of the largest degree the terms
can decide.  The smallest admissible shape is then reconstructed exactly and
verified on every available term.

G(2,3) winding-zero frontier starts at (14, 31)/(15, 23)/(16, 19): nothing
at order 13 or below, with full rank checked through degree 43.  The braid
sequence (even orders) admits a (5, 7).  The exact stage lifts modulo as many
primes as the relation needs, so the G(2,3) relations come out exactly and
are verified here: with --max-order 16 the smallest shape of order <= 16 is
(16, 19), with coefficients of up to 774 digits; with --max-order 15 it is
(15, 23), with coefficients of up to 886 digits.  Higher orders fit smaller
shapes: with --max-order 22 it is (22, 11), 276 unknowns against 340 for
(16, 19), with coefficients of up to 617 digits, lifted in about 4 s (7 s
for (16, 19)) on one core of a shared 2-core host.
"""

import argparse
import time

from cogrowth.algebraic import (
    _prefix_ranks,
    braid_equation,
    guess_recurrence,
    trefoil_equation,
    verify_recurrence,
)
from cogrowth.fastseries import high_order_rows


def frontier(seq, max_order, max_degree):
    best = None
    for r in range(1, max_order + 1):
        # the largest degree whose fitting matrix has 8 spare rows
        top = min(max_degree, (len(seq) - r - 8) // (r + 1) - 1)
        ranks = _prefix_ranks(seq, r, top) if top >= 0 else []
        hit = next((d for d, rank in enumerate(ranks) if rank < (r + 1) * (d + 1)), None)
        if hit is not None:
            print(f"  order {r:2d}: first admissible degree {hit}")
            if best is None or (r + 1) * (hit + 1) < best[2]:
                best = (r, hit, (r + 1) * (hit + 1))
        elif top < max_degree:
            print(f"  order {r:2d}: undecided beyond available terms")
        else:
            print(f"  order {r:2d}: full rank through degree {max_degree}")
    return best


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--group", choices=("trefoil", "braid"), default="braid")
    parser.add_argument("--order", type=int, default=400, help="series order (default 400)")
    parser.add_argument("--max-order", type=int, default=16)
    parser.add_argument("--max-degree", type=int, default=30)
    args = parser.parse_args()

    if args.group == "trefoil":
        rows = high_order_rows(trefoil_equation(), args.order)
        seq = [rows.coeffs[n].coeff(0) for n in range(args.order + 1)]
    else:
        rows = high_order_rows(braid_equation(), args.order)
        seq = [rows.coeffs[n].coeff(0) for n in range(0, args.order + 1, 2)]
    print(f"{args.group}: {len(seq)} terms")

    best = frontier(seq, args.max_order, args.max_degree)
    if best is None:
        print("no admissible shape in range")
        return
    r, d, _ = best
    print(f"reconstructing the smallest shape of order <= {args.max_order}, ({r}, {d}), exactly ...")
    t0 = time.monotonic()
    rec = guess_recurrence(seq, max_order=r, max_degree=d)
    took = time.monotonic() - t0
    if rec is None:
        print(f"no relation of shape within ({r}, {d}) annihilates all {len(seq)} "
              f"terms ({took:.1f}s): the rank defect above came from an unlucky prime or "
              f"holds only on the fitting window")
        return
    digits = max(len(str(abs(v))) for _, _, v in rec.coeffs)
    print(f"found ({rec.order}, {rec.degree}) with {len(rec.coeffs)} terms and coefficients "
          f"of up to {digits} digits in {took:.1f}s; "
          f"verifies on all {len(seq)} terms: {verify_recurrence(rec, seq)}")


if __name__ == "__main__":
    main()
