#!/usr/bin/env python3
"""Print the headline constants for every built-in presentation.

For each group: growth rate mu of the total return counts, winding drift
lambda, winding variance sigma^2 per step, and where a closed form or minimal
polynomial is known, the residual against it.
"""

import argparse
import math

from cogrowth.algebraic import braid_equation
from cogrowth.asymptotics import algebraic_moments, growth_and_moments, minimal_poly_check
from cogrowth.cli import AXA_GROWTH_POLY, TREFOIL_GROWTH_POLY, TREFOIL_VARIANCE_POLY
from cogrowth.groups import parse_group_spec
from cogrowth.systems import build_axa_system, build_star_system


def star_law(name):
    return growth_and_moments(build_star_system(parse_group_spec(name)))


def report(name, law, mu_target=None, sigma2_target=None, poly=None):
    line = f"{name:14s} mu = {law.mu:.12f}  lambda = {law.lam:+.2e}  sigma^2 = {law.sigma2:.12f}"
    if mu_target is not None:
        line += f"  |mu - target| = {abs(law.mu - mu_target):.2e}"
    if sigma2_target is not None:
        line += f"  |sigma^2 - target| = {abs(law.sigma2 - sigma2_target):.2e}"
    print(line)
    if poly is not None:
        chk = minimal_poly_check(law.mu, poly)
        print(f"{'':14s} minimal poly residual {chk.residual:+.2e}, "
              f"largest positive root {chk.largest_positive:.12f}, "
              f"mu is largest: {chk.is_largest_positive}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.parse_args()

    report("G(2,3)", star_law("G(2,3)"), mu_target=3.950630994, poly=TREFOIL_GROWTH_POLY)
    law = star_law("G(2,3)")
    roots = minimal_poly_check(0.18, TREFOIL_VARIANCE_POLY).real_roots
    target = min(r for r in roots if r > 0)
    print(f"{'':14s} sigma^2 vs smallest positive quartic root: {abs(law.sigma2 - target):.2e}")

    report("B3-standard", algebraic_moments(braid_equation()),
           mu_target=1 + 2 * math.sqrt(2), sigma2_target=(5 - 3 * math.sqrt(2)) / 7)
    print(f"{'':14s} (shares its winding-free column with G(3,3))")
    report("G(3,3)", star_law("G(3,3)"), mu_target=1 + 2 * math.sqrt(2))

    report("B3-axa", growth_and_moments(build_axa_system()),
           mu_target=3.9076667, poly=AXA_GROWTH_POLY)

    report("G(3,4)", star_law("G(3,4)"))
    for k in (2, 3, 4):
        name = "G(" + ",".join(["2"] * k) + ")"
        report(name, star_law(name), mu_target=4 * math.sqrt(k - 1))


if __name__ == "__main__":
    main()
