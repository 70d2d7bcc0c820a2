#!/usr/bin/env python3
"""Census of deformation sets of the trivial residual representation over
small groups and coefficient rings: lift counts, class counts, orbit shapes,
and the tangent dimension per group.  The tangent dimension is computed twice,
by enumerating the classes over k[eps] and as dim H^1(G, ad rhobar) by linear
algebra over k, and the script aborts if the two disagree.  Both routes solve
the same Cayley-edge equations for the lifts, so this compares the orbit count
with dim Z^1 - dim B^1; the lifts themselves are checked against brute-force
enumeration in tests/test_lift_oracles.py and tests/test_representation.py.
"""

from __future__ import annotations

import argparse

from defring.errors import InternalInconsistencyError
from defring.groups import cyclic, dihedral, direct_product, quaternion8, symmetric
from defring.local_ring import build_galois_ring, ring_from_truncated_presentation
from defring.presentations import IntegerPolynomialPresentation
from defring.representation import (def_set, tangent_dimension, tangent_space,
                                    trivial_residual_rep)


def rings_for(p: int):
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
            _, t = tangent_space(rhobar)
            t_h1 = tangent_dimension(rhobar)
            if t_h1 != t:
                raise InternalInconsistencyError(
                    f"{G.name}, p = {p}: enumerated tangent dimension {t}, "
                    f"cohomological {t_h1}")
            line = [f"{G.name:<8} tangent dim {t}"]
            for R in rings_for(p):
                ds = def_set(rhobar, R, cap_maps=10 ** 7)
                line.append(f"{R.label}: {ds.total_lifts} lifts / "
                            f"{ds.class_count} classes")
            print("  " + " | ".join(line))
        print()


if __name__ == "__main__":
    main()
