"""Every name perfbench's tracer wraps exists in the library.

`perfbench/tracing.py` replaces the functions and methods listed in its
`SPANS` and `COUNTERS` tables, and its `install` raises if one is missing.
Checking the tables here makes a refactor that deletes or renames a traced
name fail the test suite, not only the benchmark's traced run.
"""

from __future__ import annotations

import sys
from pathlib import Path

import defring.representation as representation
from defring.groups import cyclic
from defring.local_ring import build_galois_ring
from defring.representation import (def_set, enumerate_lifts, kernel_conjugator,
                                    trivial_residual_rep)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracing


def test_every_traced_name_exists():
    tracing = _tracing()
    targets = list(tracing.SPANS) + list(tracing.COUNTERS)
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr in targets if not hasattr(owner, attr)]
    assert not missing
    assert (representation, "kernel_group") in tracing.SPANS


def test_no_library_route_lists_the_kernel_group(monkeypatch):
    # the conjugator is solved for and orbits are walked over the layer
    # generators, so neither route calls `representation.kernel_group`; the
    # tracer still wraps it, and the tests' scan oracles list it
    R = build_galois_ring(2, 3, 1)
    lifts = enumerate_lifts(trivial_residual_rep(cyclic(2), R), R)
    calls = []
    original = representation.kernel_group

    def counting(*args, **kwargs):
        calls.append(args[:2])
        return original(*args, **kwargs)

    monkeypatch.setattr(representation, "kernel_group", counting)
    assert kernel_conjugator(R, 1, lifts[0].rep.gen_matrices,
                             lifts[1].rep.gen_matrices) is None
    assert def_set(trivial_residual_rep(cyclic(2), R, 2), R).class_count == 56
    assert calls == []
