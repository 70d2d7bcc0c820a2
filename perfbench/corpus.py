"""Jobs of each workload, the seeded inputs, and the correctness checks.

A job is one `defring` invocation: a subcommand, a job file and extra flags.
Fixed jobs live in `jobs/` and their expected report digests (sha256 of the
report bytes) and exit codes in `expected.json`, recorded at the commit that
introduced this benchmark.  Most are also backed by an independent check
derived from the mathematics, so a recorded digest is not the only evidence.
The seeded `fiber` systems have no recorded digest; their Groebner basis,
dimension and verdict are checked against sympy instead.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
JOB_DIR = os.path.join(HERE, "jobs")
EXPECTED_PATH = os.path.join(HERE, "expected.json")


@dataclass(frozen=True)
class Job:
    name: str
    command: str
    file: str  # a file name in jobs/, or an absolute path for generated jobs
    flags: Tuple[str, ...] = ()

    @property
    def path(self) -> str:
        return os.path.join(JOB_DIR, self.file)

    def argv(self, output: str, cache: bool) -> List[str]:
        argv = [self.command, self.path, *self.flags, "--output", output]
        return argv if cache else argv + ["--no-cache"]


DEFORM = [
    Job("tangent-d4-f2", "tangent", "tangent_d4_f2.job"),
    Job("defcount-s3-trivial-z4", "defcount", "defcount_s3_trivial_z4.job"),
    Job("defcount-s3-standard-z4", "defcount", "defcount_s3_standard_z4.job"),
    Job("defcount-q8-z8-sqrt2", "defcount", "defcount_q8_z8_sqrt2.job"),
    Job("tangent-c4-f2", "tangent", "tangent_c4_f2.job"),
    Job("tangent-klein4-f4", "tangent", "tangent_klein4_f4.job"),
    Job("maranda-c2-equivalent", "maranda-check", "maranda_c2_equivalent.job"),
    Job("maranda-c2-inequivalent", "maranda-check", "maranda_c2_inequivalent.job"),
]

RINGS = [
    Job("fingerprint-r-alpha1", "fingerprint", "r_alpha1_f2.job"),
    Job("fingerprint-z27-cuberoot3", "fingerprint", "z27_cuberoot3.job"),
    Job("fingerprint-gr8-2-sqrt2", "fingerprint", "gr8_2_sqrt2.job"),
    Job("hom-count-z64-sqrt2", "hom-count", "hom_z64_sqrt2.job"),
    Job("order-bound-t2-plus-4", "order-bound", "order_bound_t2_plus_4.job"),
    Job("w-check-r-alpha1", "w-check", "r_alpha1_pres.job"),
    Job("w-check-x2-minus-2x", "w-check", "x2_minus_2x.job"),
    Job("w-check-cyclic3-p3", "w-check", "cyclic3_p3.job", ("--precision", "8")),
]

FIBER = [
    Job("etale-katsura4", "etale-check", "katsura4.job"),
    Job("etale-cubics-dim27", "etale-check", "cubics_dim27.job"),
    Job("etale-quintics-p5", "etale-check", "quintics_p5.job"),
    Job("etale-katsura3", "etale-check", "katsura3.job"),
    Job("etale-cubics-nonreduced", "etale-check", "cubics_nonreduced.job"),
    Job("necessary-r-alpha1", "necessary-condition", "r_alpha1_pres.job"),
    Job("etale-xy-minus-2", "etale-check", "xy_minus_2.job"),
]

FIXED = DEFORM + RINGS + FIBER
BY_NAME = {job.name: job for job in FIXED}

# The millisecond jobs plus one small defcount: the benchmark's own test.
SMOKE = [BY_NAME[n] for n in (
    "order-bound-t2-plus-4", "w-check-x2-minus-2x", "w-check-cyclic3-p3",
    "etale-xy-minus-2", "necessary-r-alpha1", "maranda-c2-equivalent",
    "tangent-klein4-f4", "defcount-s3-standard-z4")]

QUADRICS_PER_SEED = 8


@dataclass(frozen=True)
class Workload:
    jobs: Tuple[Job, ...]
    quadrics: int = 0  # seeded fiber systems appended to the fixed jobs
    cache: bool = False  # replay: answered from a cache filled beforehand


WORKLOADS: Dict[str, Workload] = {
    "deform": Workload(tuple(DEFORM)),
    "rings": Workload(tuple(RINGS)),
    "fiber": Workload(tuple(FIBER), quadrics=QUADRICS_PER_SEED),
    "replay": Workload(tuple(FIXED), cache=True),
    "smoke": Workload(tuple(SMOKE), quadrics=1),
    "smoke-replay": Workload(tuple(SMOKE), cache=True),
}


# -- seeded fiber systems ------------------------------------------------------------

QUADRIC_VARS = ("X", "Y", "Z")
QUADRIC_MONOS = ((2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1),
                 (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0))


def _term(c: int, mono: Tuple[int, ...]) -> str:
    factors = [v if e == 1 else f"{v}^{e}"
               for v, e in zip(QUADRIC_VARS, mono) if e]
    body = "*".join(factors)
    if not body:
        return str(c)
    return body if c == 1 else f"-{body}" if c == -1 else f"{c}*{body}"


def quadric_relations(rng: random.Random) -> List[str]:
    """Three dense quadrics in X, Y, Z, coefficients in [-3, 3]; equation i has
    a nonzero pure square of variable i."""
    rels = []
    for i in range(3):
        coeffs = [rng.randint(-3, 3) for _ in QUADRIC_MONOS]
        coeffs[i] = rng.choice((-3, -2, -1, 1, 2, 3))  # QUADRIC_MONOS[i] is a square
        text = " + ".join(_term(c, mo) for c, mo in zip(coeffs, QUADRIC_MONOS) if c)
        rels.append(text.replace("+ -", "- "))
    return rels


def quadric_jobs(seed: int, count: int, directory: str) -> List[Job]:
    """Write `count` seeded systems as job files into `directory`."""
    rng = random.Random(seed)
    jobs = []
    for k in range(count):
        path = os.path.join(directory, f"quadric_{k}.job")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("presentation {\n  p = 2\n  vars = X, Y, Z\n"
                     f"  relations = {'; '.join(quadric_relations(rng))}\n}}\n")
        jobs.append(Job(f"quadric-{k}", "etale-check", path))
    return jobs


def workload_jobs(name: str, seed: int, directory: str) -> List[Job]:
    w = WORKLOADS[name]
    return list(w.jobs) + quadric_jobs(seed, w.quadrics, directory)


# -- checks ---------------------------------------------------------------------------


def load_expected() -> Dict[str, Dict]:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _count(mod: int, pred) -> int:
    """Elements a + bX of (Z/mod)[X]/(X^2 - 2) satisfying pred(a, b)."""
    return sum(1 for a in range(mod) for b in range(mod) if pred(a, b))


def _q8_classes() -> int:
    # dimension-1 lifts of Q8 are homomorphisms Q8^ab = C2 x C2 -> R^*, and
    # conjugation is trivial, so classes = #{x in R : x^2 = 1}^2 for
    # R = (Z/8)[X]/(X^2 - 2), where (a + bX)^2 = a^2 + 2b^2 + 2abX
    roots = _count(8, lambda a, b: (a * a + 2 * b * b) % 8 == 1 and (2 * a * b) % 8 == 0)
    return roots ** 2


def _sqrt2_homs() -> int:
    # an endomorphism of (Z/64)[X]/(X^2 - 2) is X -> x with x in the maximal
    # ideal (a even) and x^2 = 2
    return _count(64, lambda a, b: a % 2 == 0 and (a * a + 2 * b * b) % 64 == 2
                  and (2 * a * b) % 64 == 0)


def _etale(dim, verdict):
    return lambda res: res["dim"] == dim and res["verdict"] == verdict


# Independent checks on fixed reports.  Tangent dimension of a trivial
# n-dimensional representation is n^2 * dim_k Hom(G^ab, k), and that Hom space
# has the p-rank of G^ab as its dimension: D4^ab = C2^2, C4^ab = C4, (C2^2)^ab = C2^2.
INDEPENDENT = {
    "tangent-d4-f2": lambda res: res["dimension"] == 2 * 2 * 2,
    "tangent-c4-f2": lambda res: res["dimension"] == 2 * 2 * 1,
    "tangent-klein4-f4": lambda res: res["dimension"] == 1 * 1 * 2,
    "defcount-q8-z8-sqrt2": lambda res: res["class_count"] == _q8_classes(),
    "defcount-s3-trivial-z4": lambda res: res["lift_count"] == 16,
    "maranda-c2-equivalent": lambda res: res["equivalent"] is True,
    "maranda-c2-inequivalent": lambda res: res["equivalent"] is False,
    "fingerprint-r-alpha1": lambda res: res["size"] == 2 ** 13,
    "fingerprint-z27-cuberoot3": lambda res: res["size"] == 27 ** 3,
    "fingerprint-gr8-2-sqrt2": lambda res: res["size"] == (8 ** 2) ** 2,
    "hom-count-z64-sqrt2": lambda res: res["count"] == _sqrt2_homs(),
    "order-bound-t2-plus-4": lambda res: res["claim_divisor"] == 2 ** (res["level"] + 1),
    "etale-katsura4": _etale(16, "PASS"),
    "etale-katsura3": _etale(8, "PASS"),
    "etale-cubics-dim27": _etale(27, "PASS"),
    "etale-quintics-p5": _etale(25, "PASS"),
    "etale-cubics-nonreduced": lambda res: (_etale(27, "FAIL_NOT_REDUCED")(res)
                                            and res["witness"] is not None),
    "etale-xy-minus-2": _etale("infinite", "FAIL_NOT_FINITE"),
}


def check(expected: Dict[str, Dict], job: Job, digest: Optional[str],
          code: Optional[int], report: Optional[str], error: Optional[str]) -> Optional[str]:
    """None if one job outcome is correct, else the reason it is not."""
    if error is not None:
        return f"raised {error}"
    if report is None:
        return "no report text to check"
    exp = expected.get(job.name)
    if exp is not None:
        if code != exp["exit_code"]:
            return f"exit code {code}, expected {exp['exit_code']}"
        if digest != exp["sha256"]:
            return "report differs from the recorded one"
        test = INDEPENDENT.get(job.name)
        if test is not None and not test(json.loads(report)["result"]):
            return "independent check failed"
        return None
    if job.name.startswith("quadric-"):
        return check_quadric(job, code, json.loads(report)["result"])
    return "no expected report recorded"

def _sympy_reference(relations: List[str]):
    """Reduced degrevlex basis, dimension and radicality of the ideal, by sympy."""
    import sympy as sp
    gens = sp.symbols(QUADRIC_VARS)
    polys = [sp.sympify(r.replace("^", "**"), locals=dict(zip(QUADRIC_VARS, gens)))
             for r in relations]
    G = sp.groebner(polys, *gens, order="grevlex", domain="QQ")
    basis = {_poly_key(p, gens) for p in G.exprs}
    if not G.is_zero_dimensional:
        return basis, None, None
    lms = [sp.Poly(p, *gens).monoms(order="grevlex")[0] for p in G.exprs]
    bound = max(max(m) for m in lms) + 1
    dim = sum(1 for a in range(bound) for b in range(bound) for c in range(bound)
              if not any(all(x >= y for x, y in zip((a, b, c), lm)) for lm in lms))
    # Seidenberg: a zero-dimensional ideal is radical iff the minimal
    # polynomial of every variable is squarefree; one of degree dim that is
    # squarefree already decides it
    radical = True
    for v in reversed(gens):
        order = [g for g in gens if g != v] + [v]
        lex = sp.groebner(polys, *order, order="grevlex", domain="QQ").fglm("lex")
        minpoly = sp.Poly(lex.exprs[-1], v)
        if sp.degree(sp.gcd(minpoly, minpoly.diff(v))) > 0:
            radical = False
            break
        if minpoly.degree() == dim:
            break
    return basis, dim, radical


def _poly_key(expr, gens):
    import sympy as sp
    poly = sp.Poly(expr, *gens, domain="QQ")
    return frozenset((m, Fraction(int(c.p), int(c.q))) for m, c in poly.terms())


def check_quadric(job: Job, code: Optional[int], result: Dict) -> Optional[str]:
    with open(job.path, encoding="utf-8") as fh:
        line = next(l for l in fh if l.strip().startswith("relations"))
    relations = [s.strip() for s in line.split("=", 1)[1].split(";")]
    basis, dim, radical = _sympy_reference(relations)
    import sympy as sp
    gens = sp.symbols(QUADRIC_VARS)
    got = {_poly_key(sp.sympify(s.replace("^", "**"),
                                locals=dict(zip(QUADRIC_VARS, gens))), gens)
           for s in result["groebner_basis"]}
    if got != basis:
        return "Groebner basis differs from sympy's"
    if dim is None:
        want_verdict, want_dim = "FAIL_NOT_FINITE", "infinite"
    else:
        want_verdict = "PASS" if radical else "FAIL_NOT_REDUCED"
        want_dim = dim
    if result["dim"] != want_dim:
        return f"dimension {result['dim']}, sympy gives {want_dim}"
    if result["verdict"] != want_verdict:
        return f"verdict {result['verdict']}, sympy gives {want_verdict}"
    if code != (0 if want_verdict == "PASS" else 2):
        return f"exit code {code} for verdict {want_verdict}"
    return None
