#!/usr/bin/env python3
"""Census of deformation sets of the trivial residual representation over
small groups and coefficient rings: lift counts, class counts, orbit shapes,
and the tangent dimension per group.  The tangent dimension t is solved for
as dim H^1(G, ad rhobar) by linear algebra over k, and the script aborts unless
the classes over k[eps], the last ring of each row, number q^t.  Both routes
solve the same Cayley-edge equations for the lifts, so this compares the orbit
count with dim Z^1 - dim B^1; the lifts themselves are checked against
brute-force enumeration in tests/test_lift_oracles.py and
tests/test_representation.py.
"""

from __future__ import annotations

import argparse

from defring.errors import InternalInconsistencyError
from defring.groups import cyclic, dihedral, direct_product, quaternion8, symmetric
from defring.local_ring import build_galois_ring, ring_from_truncated_presentation
from defring.presentations import IntegerPolynomialPresentation
from defring.representation import def_set, tangent_dimension, trivial_residual_rep


def rings_for(p: int):
    """Z/p^2, Z/p^3 and k[eps] = F_p[e]/(e^2), in that order."""
    eps = ring_from_truncated_presentation(
        IntegerPolynomialPresentation.parse(p, ["e"], ["e^2"]), 1)
    return [build_galois_ring(p, 2, 1), build_galois_ring(p, 3, 1), eps]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-group-order", type=int, default=8)
    args = parser.parse_args()

    groups = [cyclic(2), cyclic(3), cyclic(4),
              direct_product(cyclic(2), cyclic(2)), symmetric(3),
              dihedral(4), quaternion8()]
    groups = [G for G in groups if G.n <= args.max_group_order]

    for p in (2, 3):
        print(f"== p = {p} ==")
        for G in groups:
            k = build_galois_ring(p, 1, 1)
            rhobar = trivial_residual_rep(G, k)
            t = tangent_dimension(rhobar)
            line = [f"{G.name:<8} tangent dim {t}"]
            for R in rings_for(p):
                ds = def_set(rhobar, R, cap_maps=10 ** 7)
                line.append(f"{R.label}: {ds.total_lifts} lifts / "
                            f"{ds.class_count} classes")
            # ds is over k[eps], whose classes number q^t with q = |k| = p
            if ds.class_count != p ** t:
                raise InternalInconsistencyError(
                    f"{G.name}, p = {p}: {ds.class_count} classes over k[eps], "
                    f"not q^t for the cohomological tangent dimension {t}")
            print("  " + " | ".join(line))
        print()


if __name__ == "__main__":
    main()
