"""Per-layer tracing of defring from outside its source tree.

`install` replaces public functions and methods of the `defring` modules with
wrappers.  Coarse calls become spans (name, start, end, parent, job) kept in
memory and written when the run ends; hot calls (ring and matrix arithmetic)
only bump a counter, because a span per call would cost more than the call.
Modules that bind a name with `from ... import` hold their own reference, so
every module attribute that is the original object is replaced, not only the
defining one.

A span's self time is its duration minus the time covered by its child spans;
every `*_s` layer metric is a sum of self times.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import defring.cli as cli
import defring.galois as galois
import defring.groups as groups
import defring.linalg as linalg
import defring.local_ring as local_ring
import defring.matrices as matrices
import defring.polys as polys
import defring.presented as presented
import defring.representation as representation
import defring.udr as udr

Span = Tuple[str, float, float, int, str]  # name, start, end, parent index, job


class Tracer:
    def __init__(self):
        self.spans: List[Optional[Span]] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self.job = ""

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn inside a span."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.job)

    def span(self, name: str, fn: Callable, hook: Optional[Callable] = None):
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if hook is not None:
                hook(self.counts, args, result)
            return result
        return wrapper

    def counter(self, name: str, fn: Callable):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def self_times(self) -> Dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def span_counts(self) -> Counter:
        return Counter(s[0] for s in self.spans)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


# -- hooks: counts read off arguments and results --------------------------------------


def _lifts_hook(counts, args, lifts):
    rhobar, ring = args[0], args[1]
    m = local_ring.maximal_ideal(ring)
    counts["representation.candidates"] += \
        m.size ** (rhobar.n * rhobar.n * len(rhobar.group.generators))
    counts["representation.lifts"] += len(lifts)


def _kernel_hook(counts, args, kg):
    counts["representation.kernel_group_size"] += len(kg)


def _def_set_hook(counts, args, ds):
    counts["representation.classes"] += ds.class_count


def _homs_hook(counts, args, homs):
    source, target = args[0], args[1]
    if (source.basis_monos is not None
            and (source.base.p, source.base.r) == (target.base.p, target.base.r)
            and source.base.m >= target.base.m):
        counts["local_ring.hom_candidates"] += \
            local_ring.maximal_ideal(target).size ** len(source.generators)
    counts["local_ring.homs"] += len(homs)


def _buchberger_hook(counts, args, basis):
    bits = max((g.max_coeff_bits() for g in basis), default=0)
    counts["polys.max_coeff_bits"] = max(counts["polys.max_coeff_bits"], bits)


def _q_fiber_hook(counts, args, algebra):
    if algebra is not None:
        counts["presented.fiber_dim_total"] += algebra.dim


def _lookup_hook(counts, args, hit):
    counts["cli.cache_hits" if hit is not None else "cli.cache_misses"] += 1


# (module, attribute) -> span name and optional hook
SPANS = {
    (cli, "parse_job_blocks"): ("cli.parse", None),
    (cli, "cache_lookup"): ("cli.cache_lookup", _lookup_hook),
    (cli, "render_report"): ("cli.render", None),
    (cli, "run_job"): ("cli.run_job", None),
    (representation, "enumerate_lifts"): ("representation.enumerate_lifts", _lifts_hook),
    (representation, "kernel_group"): ("representation.kernel_group", _kernel_hook),
    (representation, "def_set"): ("representation.def_set", _def_set_hook),
    (representation, "maranda_decide"): ("representation.maranda", None),
    (groups, "extend_and_verify_hom"): ("groups.hom_check", None),
    (local_ring, "ring_from_truncated_presentation"): ("local_ring.construct", None),
    (local_ring, "build_galois_ring"): ("local_ring.construct", None),
    (local_ring, "fingerprint"): ("local_ring.fingerprint", None),
    (local_ring, "hom_enumerate"): ("local_ring.hom_enumerate", _homs_hook),
    (local_ring.Ideal, "__init__"): ("local_ring.ideal", None),
    (local_ring.Ideal, "enumerate_elements"): ("local_ring.ideal", None),
    (linalg.HowellForm, "__init__"): ("linalg.howell", None),
    (polys, "buchberger"): ("polys.buchberger", _buchberger_hook),
    (polys, "normal_form"): ("polys.normal_form", None),
    (presented, "q_fiber"): ("presented.q_fiber", _q_fiber_hook),
    (presented, "trace_form"): ("presented.trace_form", None),
    (presented, "omega_rank"): ("presented.omega_rank", None),
    (presented, "nilpotent_witness"): ("presented.witness", None),
    (udr, "order_lower_bound"): ("udr.order_bound", None),
}

COUNTERS = {
    (representation.Representation, "conjugate"): "representation.conjugations",
    (matrices.Matrix, "__mul__"): "matrices.mul_calls",
    (matrices.Matrix, "inverse"): "matrices.inverse_calls",
    (local_ring.RingElement, "__mul__"): "local_ring.mul_calls",
    (local_ring.FiniteLocalRing, "_canon"): "local_ring.elements_built",
    (linalg.HowellForm, "reduce"): "linalg.reduce_calls",
    (galois.GaloisRing, "mul"): "galois.mul_calls",
    (polys, "s_polynomial"): "polys.spolys",
}


def _replace(owner, attr: str, wrapper) -> None:
    original = getattr(owner, attr)
    if isinstance(owner, type):
        setattr(owner, attr, wrapper)
        return
    for name, module in list(sys.modules.items()):
        if name == "defring" or name.startswith("defring."):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


def install(tracer: Tracer) -> None:
    for (owner, attr), (name, hook) in SPANS.items():
        _replace(owner, attr, tracer.span(name, getattr(owner, attr), hook))
    for (owner, attr), name in COUNTERS.items():
        _replace(owner, attr, tracer.counter(name, getattr(owner, attr)))


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (times in seconds)."""
    st = tracer.self_times()
    n = tracer.span_counts()
    c = tracer.counts

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out = {
        "representation.enumerate_lifts_s": st["representation.enumerate_lifts"],
        "representation.candidates": c["representation.candidates"],
        "representation.lifts": c["representation.lifts"],
        "representation.lift_yield": ratio(c["representation.lifts"],
                                           c["representation.candidates"]),
        "representation.kernel_group_s": st["representation.kernel_group"],
        "representation.kernel_group_size": c["representation.kernel_group_size"],
        "representation.orbit_s": st["representation.def_set"],
        "representation.conjugations": c["representation.conjugations"],
        "representation.classes": c["representation.classes"],
        "representation.maranda_s": st["representation.maranda"],
        "groups.hom_checks": n["groups.hom_check"],
        "groups.hom_check_s": st["groups.hom_check"],
        "matrices.mul_calls": c["matrices.mul_calls"],
        "matrices.inverse_calls": c["matrices.inverse_calls"],
        "local_ring.mul_calls": c["local_ring.mul_calls"],
        "local_ring.elements_built": c["local_ring.elements_built"],
        "local_ring.construct_s": st["local_ring.construct"],
        "local_ring.fingerprint_s": st["local_ring.fingerprint"],
        "local_ring.hom_enumerate_s": st["local_ring.hom_enumerate"],
        "local_ring.hom_candidates": c["local_ring.hom_candidates"],
        "local_ring.homs": c["local_ring.homs"],
        "local_ring.hom_yield": ratio(c["local_ring.homs"],
                                      c["local_ring.hom_candidates"]),
        "local_ring.ideal_s": st["local_ring.ideal"],
        "linalg.howell_forms": n["linalg.howell"],
        "linalg.howell_s": st["linalg.howell"],
        "linalg.reduce_calls": c["linalg.reduce_calls"],
        "galois.mul_calls": c["galois.mul_calls"],
        "polys.buchberger_s": st["polys.buchberger"],
        "polys.spolys": c["polys.spolys"],
        "polys.normal_form_calls": n["polys.normal_form"],
        "polys.normal_form_s": st["polys.normal_form"],
        "polys.max_coeff_bits": c["polys.max_coeff_bits"],
        "presented.q_fiber_s": st["presented.q_fiber"],
        "presented.trace_form_s": st["presented.trace_form"],
        "presented.omega_rank_s": st["presented.omega_rank"],
        "presented.witness_s": st["presented.witness"],
        "presented.fiber_dim_total": c["presented.fiber_dim_total"],
        "udr.order_bound_s": st["udr.order_bound"],
        "cli.parse_s": st["cli.parse"],
        "cli.cache_lookup_s": st["cli.cache_lookup"],
        "cli.cache_hits": c["cli.cache_hits"],
        "cli.cache_misses": c["cli.cache_misses"],
        "cli.render_s": st["cli.render"],
        "cli.run_job_s": st["cli.run_job"],
    }
    return out


# -- arithmetic micro-loops (run untraced) -------------------------------------------


def _per_op_us(fn, pairs, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for a, b in pairs:
            fn(a, b)
        best = min(best, time.perf_counter() - start)
    return best / len(pairs) * 1e6


def micro_metrics() -> Dict[str, float]:
    """Fixed multiplication loops: all pairs of a fixed element list."""
    from defring.presentations import r_alpha_presentation
    z4 = local_ring.build_galois_ring(2, 2, 1)
    ra = local_ring.ring_from_truncated_presentation(r_alpha_presentation(1, 2), 1)
    elems = z4.enumerate_elements() + ra.enumerate_elements()[::256]
    ring_pairs = [(a, b) for a in elems for b in elems if a.ring is b.ring]
    out = {"local_ring.mul_us": _per_op_us(lambda a, b: a * b, ring_pairs)}
    for r in (1, 2):
        W = galois.GaloisRing(2, 6, r)
        xs = [W.from_coeffs([(5 * i + 3) % 64, (7 * i + 1) % 64][:r]) for i in range(40)]
        out[f"galois.mul_us.r{r}"] = _per_op_us(W.mul, [(a, b) for a in xs for b in xs])
    return out
