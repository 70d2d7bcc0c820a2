"""Command-line front end: block-structured job files, JSON reports, caching.

Job files are plain text:

    # a comment
    presentation {
      p = 2
      vars = X
      relations = X^2 - 4X
    }
    group {
      family = cyclic
      param = 2
    }

Each subcommand reads one job file (or stdin with "-"), runs the corresponding
check, and writes a JSON report with a fixed field order, so identical jobs
produce byte-identical reports.  Exit codes: 0 success, 2 failing verdict,
1 error.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from . import __version__
from .errors import DefringError
from .groups import FiniteGroup, build_group
from .local_ring import (DEFAULT_DEGREE_CAP, DEFAULT_ELEMENT_CAP, DEFAULT_MAP_CAP,
                         CapExceededError, FiniteLocalRing, fingerprint,
                         hom_enumerate, ring_from_truncated_presentation)
from .matrices import Matrix
from .polys import PolyParseError, parse_poly
from .presentations import IntegerPolynomialPresentation
from .presented import W_VERDICTS, etale_check, w_membership_check
from .representation import (Lift, Representation, def_set, maranda_decide,
                             residual_rep, tangent_dimension,
                             trivial_residual_rep)
from .udr import (INTERPRET_FAIL, INTERPRET_PASS, necessary_condition,
                  order_lower_bound)

CACHE_DIR = os.path.join(os.path.expanduser("~"), ".cache", "defring")


class JobParseError(ValueError):
    def __init__(self, message: str, line: int, col: int = 0):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


@dataclass
class JobSpec:
    command: str
    blocks: Dict[str, Dict[str, str]]
    precision: Optional[int] = None
    cap_elements: int = DEFAULT_ELEMENT_CAP
    cap_maps: int = DEFAULT_MAP_CAP
    degree_cap: int = DEFAULT_DEGREE_CAP

    def canonical(self) -> str:
        payload = {
            "command": self.command,
            "blocks": {k: dict(sorted(v.items())) for k, v in
                       sorted(self.blocks.items())},
            "precision": self.precision,
            "cap_elements": self.cap_elements,
            "cap_maps": self.cap_maps,
            "degree_cap": self.degree_cap,
            "version": __version__,
        }
        return json.dumps(payload, sort_keys=True)

    def content_hash(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()


ALLOWED_KEYS = {
    "presentation": {"p", "r", "vars", "relations"},
    "ring": {"p", "r", "precision", "vars", "relations", "mode"},
    "source": {"p", "r", "precision", "vars", "relations", "mode"},
    "target": {"p", "r", "precision", "vars", "relations", "mode"},
    "group": {"family", "param", "p"},
    "rep": {"dimension", "kind"} | {f"gen{i}" for i in range(1, 9)},
    "lift1": {f"gen{i}" for i in range(1, 9)},
    "lift2": {f"gen{i}" for i in range(1, 9)},
    "maps": {"f1", "f2"},
}


def parse_job_blocks(text: str) -> Dict[str, Dict[str, str]]:
    """Parse the block-structured configuration text."""
    blocks: Dict[str, Dict[str, str]] = {}
    current: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.endswith("{"):
            if current is not None:
                raise JobParseError("nested blocks are not allowed", lineno,
                                    len(line) - len(stripped) + 1)
            name = stripped[:-1].strip()
            if name not in ALLOWED_KEYS:
                raise JobParseError(f"unknown block {name!r}", lineno, 1)
            if name in blocks:
                raise JobParseError(f"duplicate block {name!r}", lineno, 1)
            blocks[name] = {}
            current = name
        elif stripped == "}":
            if current is None:
                raise JobParseError("unmatched closing brace", lineno, 1)
            current = None
        else:
            if current is None:
                raise JobParseError("key outside of any block", lineno, 1)
            if "=" not in stripped:
                raise JobParseError("expected 'key = value'", lineno, 1)
            key, _, value = stripped.partition("=")
            key = key.strip()
            col = line.index(key) + 1
            if key not in ALLOWED_KEYS[current]:
                raise JobParseError(
                    f"unknown key {key!r} in block {current!r}", lineno, col)
            if key in blocks[current]:
                raise JobParseError(f"duplicate key {key!r}", lineno, col)
            blocks[current][key] = value.strip()
    if current is not None:
        raise JobParseError("unterminated block", len(text.splitlines()), 1)
    return blocks


def _require(blocks: Dict[str, Dict[str, str]], name: str) -> Dict[str, str]:
    if name not in blocks:
        raise JobParseError(f"missing required block {name!r}", 0, 0)
    return blocks[name]


def _key(block: Dict[str, str], key: str) -> str:
    if key not in block:
        raise JobParseError(f"missing key {key!r}", 0, 0)
    return block[key]


def _int(block: Dict[str, str], key: str, default: Optional[int] = None) -> int:
    if key not in block and default is not None:
        return default
    try:
        return int(_key(block, key))
    except ValueError:
        raise JobParseError(f"key {key!r} must be an integer", 0, 0) from None


def _check_consistent_p(blocks: Dict[str, Dict[str, str]]) -> None:
    ps = {name: _int(b, "p") for name, b in blocks.items() if "p" in b}
    if len(set(ps.values())) > 1:
        raise JobParseError(
            f"inconsistent primes across blocks: {ps}", 0, 0)


def _presentation_from(blocks: Dict[str, Dict[str, str]],
                       name: str) -> IntegerPolynomialPresentation:
    block = _require(blocks, name)
    p = _int(block, "p")
    r = _int(block, "r", 1)
    names = [v.strip() for v in block.get("vars", "").split(",") if v.strip()]
    for i, v in enumerate(names):
        # one variable token of `parse_poly`: a letter or _, then letters, digits or _
        if not ((v[0].isalpha() or v[0] == "_") and all(c.isalnum() or c == "_" for c in v)):
            raise JobParseError(f"block {name!r} key 'vars': {v!r} is not a variable name", 0, 0)
        if v in names[:i]:
            raise JobParseError(f"block {name!r} key 'vars': variable {v!r} is repeated", 0, 0)
    rel_texts = [s.strip() for s in block.get("relations", "").split(";")
                 if s.strip()]
    try:
        return IntegerPolynomialPresentation.parse(p, names, rel_texts, r)
    except PolyParseError as exc:
        raise JobParseError(f"bad relation: {exc}", 0, 0) from None


def _ring_from(blocks: Dict[str, Dict[str, str]], name: str,
               spec: JobSpec) -> FiniteLocalRing:
    block = _require(blocks, name)
    m = spec.precision if spec.precision is not None \
        else _int(block, "precision", 4)
    return ring_from_truncated_presentation(
        _presentation_from(blocks, name), m, mode=block.get("mode", "finite"),
        degree_cap=spec.degree_cap)


def _group_from(block: Dict[str, str]) -> FiniteGroup:
    family = block.get("family")
    if family is None:
        raise JobParseError("group block needs a 'family' key", 0, 0)
    params = [_int(block, "param")] if "param" in block else []
    return build_group(family, params)


def _matrix_from(text: str, ring: FiniteLocalRing, n: int, where: str) -> Matrix:
    """The n x n integer matrix in `text`, rows separated by ';'; errors name
    the block and key `where`."""
    rows = []
    for row_text in text.split(";"):
        row = []
        for e in row_text.replace(",", " ").split():
            try:
                row.append(ring.from_int(int(e)))
            except ValueError:
                raise JobParseError(f"{where}: matrix entry {e!r} must be an integer",
                                    0, 0) from None
        rows.append(row)
    if len(rows) != n or any(len(r) != n for r in rows):
        raise JobParseError(f"matrix must be {n}x{n}", 0, 0)
    return Matrix(ring, rows)


def _residual_from(blocks: Dict[str, Dict[str, str]], group: FiniteGroup,
                   ring: FiniteLocalRing) -> Representation:
    k = ring.residue_ring
    rep_block = blocks.get("rep") or {}
    n = _int(rep_block, "dimension", 1)
    if n < 1:
        raise JobParseError(f"block 'rep' key 'dimension' must be at least 1, not {n}", 0, 0)
    if rep_block.get("kind", "trivial") == "trivial":
        return trivial_residual_rep(group, k, n)
    images = []
    for i in range(1, len(group.generators) + 1):
        key = f"gen{i}"
        if key not in rep_block:
            raise JobParseError(f"rep block missing {key!r}", 0, 0)
        images.append(_matrix_from(rep_block[key], k, n, f"block 'rep' key {key!r}"))
    return residual_rep(group, k, images)


def _lift_from(blocks: Dict[str, Dict[str, str]], name: str,
               rhobar: Representation, ring: FiniteLocalRing) -> Lift:
    block = _require(blocks, name)
    images = []
    for i in range(1, len(rhobar.group.generators) + 1):
        key = f"gen{i}"
        if key not in block:
            raise JobParseError(f"lift block missing {key!r}", 0, 0)
        images.append(_matrix_from(block[key], ring, rhobar.n,
                                   f"block {name!r} key {key!r}"))
    rep = Representation.from_generator_images(rhobar.group, ring, images)
    return Lift(rep, rhobar)


# -- report assembly --------------------------------------------------------------------


def _report(spec: JobSpec, claim: str, result: Dict) -> Dict:
    return {
        "tool": "defring",
        "version": __version__,
        "command": spec.command,
        "claim": claim,
        "parameters": {
            "precision": spec.precision,
            "cap_elements": spec.cap_elements,
            "cap_maps": spec.cap_maps,
            "degree_cap": spec.degree_cap,
        },
        "job_hash": spec.content_hash(),
        "result": result,
    }


def run_job(spec: JobSpec) -> Tuple[Dict, int]:
    """Execute a validated job; returns (report, exit_code)."""
    blocks = spec.blocks
    _check_consistent_p(blocks)
    cmd = spec.command

    if cmd == "etale-check":
        pres = _presentation_from(blocks, "presentation")
        rep = etale_check(pres)
        code = 0 if rep.verdict == "PASS" else 2
        return _report(spec, "the rational fiber is a finite etale algebra "
                             "over the fraction field iff verdict is PASS",
                       rep.as_dict()), code

    if cmd == "necessary-condition":
        pres = _presentation_from(blocks, "presentation")
        verdict = necessary_condition(pres)
        code = 0 if verdict.report.verdict == "PASS" else 2
        return _report(spec, verdict.claim, verdict.as_dict()), code

    if cmd == "defcount":
        ring = _ring_from(blocks, "ring", spec)
        group = _group_from(_require(blocks, "group"))
        rhobar = _residual_from(blocks, group, ring)
        ds = def_set(rhobar, ring, spec.cap_maps)
        result = {
            "group": group.name,
            "ring": ring.label,
            "dimension": rhobar.n,
            "lift_count": ds.total_lifts,
            "class_count": ds.class_count,
            "orbit_sizes": ds.orbit_sizes,
            # each class by its first generator's image; [] for a group
            # without generators
            "representatives": [
                [[list(e.flat) for e in row] for row in rows] if ring.N == 1 else
                [[ring.describe_element(e) for e in row] for row in rows]
                for rows in (l.rep.gen_matrices[0].rows if l.rep.gen_matrices else ()
                             for l in ds.representatives)],
        }
        return _report(spec, "deformation classes are kernel-conjugation "
                             "orbits of lifts", result), 0

    if cmd == "tangent":
        ring = _ring_from(blocks, "ring", spec)
        group = _group_from(_require(blocks, "group"))
        rhobar = _residual_from(blocks, group, ring)
        t = tangent_dimension(rhobar)
        q = ring.residue_field.size
        result = {
            "group": group.name,
            "q": q,
            "class_count": q ** t,
            "dimension": t,
        }
        return _report(spec, "the tangent count is q^t for the tangent "
                             "dimension t", result), 0

    if cmd == "maranda-check":
        ring = _ring_from(blocks, "ring", spec)
        group = _group_from(_require(blocks, "group"))
        rhobar = _residual_from(blocks, group, ring)
        l1 = _lift_from(blocks, "lift1", rhobar, ring)
        l2 = _lift_from(blocks, "lift2", rhobar, ring)
        equivalent, cert = maranda_decide(l1, l2)
        result = {
            "group": group.name,
            "ring": ring.label,
            "equivalent": equivalent,
            "certificate": None if cert is None else {
                "precision": cert.precision,
                "p_exponent": cert.p_exponent,
                "intertwiner": [[ring.describe_element(e) for e in row]
                                for row in cert.B0.rows],
            },
        }
        return _report(spec, "strict equivalence over R is decided by strict "
                             "equivalence over R/(|G| m)", result), 0

    if cmd == "order-bound":
        pres = _presentation_from(blocks, "presentation")
        maps = _require(blocks, "maps")
        f1_text, f2_text = _key(maps, "f1"), _key(maps, "f2")
        try:
            f1 = [parse_poly(s.strip(), list(pres.names))
                  for s in f1_text.split(";")]
            f2 = [parse_poly(s.strip(), list(pres.names))
                  for s in f2_text.split(";")]
        except PolyParseError as exc:
            raise JobParseError(f"bad map polynomial: {exc}", 0, 0) from None
        res = order_lower_bound(pres, f1, f2, spec.degree_cap)
        return _report(spec, res.claim, res.as_dict()), 0

    if cmd == "hom-count":
        src = _ring_from(blocks, "source", spec)
        tgt = _ring_from(blocks, "target", spec)
        homs = hom_enumerate(src, tgt, spec.cap_maps)
        result = {
            "source": src.label,
            "target": tgt.label,
            "count": len(homs),
            "images": [[tgt.describe_element(x) for x in h.basis_images]
                       for h in homs],
        }
        return _report(spec, "local base-algebra homomorphisms, enumerated "
                             "exhaustively", result), 0

    if cmd == "fingerprint":
        ring = _ring_from(blocks, "ring", spec)
        fp = fingerprint(ring, spec.cap_elements)
        result = {"ring": ring.label, **fp.as_dict()}
        return _report(spec, "unequal fingerprints certify non-isomorphism",
                       result), 0

    if cmd == "w-check":
        pres = _presentation_from(blocks, "presentation")
        precision = spec.precision if spec.precision is not None else 4
        rep = w_membership_check(pres, precision, spec.degree_cap)
        code = 0
        return _report(spec, "finitely generated free module over the base, "
                             "up to the stated precision", rep.as_dict()), code

    raise JobParseError(f"unknown command {cmd!r}", 0, 0)


# -- cache -----------------------------------------------------------------------------------


def _cache_path(spec: JobSpec) -> str:
    return os.path.join(CACHE_DIR, spec.content_hash() + ".json")


def _etale_report_holds(result: Dict) -> bool:
    """A PASS is reduced and finite-dimensional; a FAIL_NOT_REDUCED has a witness."""
    verdict = result.get("verdict")
    if verdict == "PASS" and not (result.get("reduced") and
                                  result.get("finite_dimensional")):
        return False
    return not (verdict == "FAIL_NOT_REDUCED" and result.get("witness") is None)


def _verify_cached(spec: JobSpec, report: Dict) -> bool:
    """Cheap structural re-verification of a cached report."""
    if report.get("job_hash") != spec.content_hash():
        return False
    if report.get("version") != __version__ or report.get("command") != spec.command:
        return False
    result = report.get("result", {})
    if spec.command == "etale-check" and not _etale_report_holds(result):
        return False
    if spec.command == "necessary-condition":
        etale = result.get("etale_report")
        if not (isinstance(etale, dict) and _etale_report_holds(etale)
                and result.get("interpretation") == (
                    INTERPRET_PASS if etale.get("verdict") == "PASS" else INTERPRET_FAIL)):
            return False
    if spec.command == "maranda-check":
        equivalent = result.get("equivalent")
        if not (isinstance(equivalent, bool)
                and equivalent == isinstance(result.get("certificate"), dict)):
            return False
    if spec.command == "w-check":
        flags = (result.get("finite_dimensional"), result.get("torsion_free_at_precision"))
        if not any(flags == key and result.get("verdict") == verdict
                   for key, verdict in W_VERDICTS.items()):
            return False
    if spec.command == "order-bound":
        if result.get("claim_divisor") != result.get("p", 0) ** (
                result.get("level", -1) + 1):
            return False
    if spec.command == "tangent":
        q, t, count = (result.get(k) for k in ("q", "dimension", "class_count"))
        # q >= 2 bounds t by the bit length of the count before q ** t is taken
        if not (isinstance(count, int) and isinstance(q, int) and q >= 2
                and isinstance(t, int) and 0 <= t <= count.bit_length()
                and count == q ** t):
            return False
    if spec.command == "defcount":
        sizes = result.get("orbit_sizes")
        reps = result.get("representatives")
        if not (isinstance(sizes, list) and isinstance(reps, list)
                and all(isinstance(s, int) for s in sizes)
                and sum(sizes) == result.get("lift_count")
                and len(sizes) == len(reps) == result.get("class_count")):
            return False
    if spec.command == "hom-count":
        images = result.get("images")
        if not (isinstance(images, list) and result.get("count") == len(images)):
            return False
    if spec.command == "fingerprint":
        for total, counts in (("size", "additive_order_counts"),
                              ("maximal_ideal_size", "nilpotency_index_counts")):
            pairs = result.get(counts)
            if not (isinstance(pairs, list)
                    and all(isinstance(c, list) and len(c) == 2
                            and isinstance(c[1], int) for c in pairs)
                    and sum(c[1] for c in pairs) == result.get(total)):
                return False
    return True


def cache_lookup(spec: JobSpec) -> Optional[Dict]:
    path = _cache_path(spec)
    if not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None
    report = payload.get("report")
    if report is None or not _verify_cached(spec, report):
        return None
    return {"report": report, "exit_code": payload.get("exit_code", 0)}


def cache_store(spec: JobSpec, report: Dict, exit_code: int) -> None:
    """Best-effort and atomic: a per-process temp file in CACHE_DIR, then os.replace.

    A failed write leaves neither a partial report nor the temp file behind.
    """
    path = _cache_path(spec)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        os.makedirs(CACHE_DIR, exist_ok=True)
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump({"report": report, "exit_code": exit_code}, fh)
        os.replace(tmp, path)
    except OSError:  # caching is best-effort; drop the partial temp file
        with contextlib.suppress(OSError):
            os.remove(tmp)


# -- entry point -------------------------------------------------------------------------------


COMMANDS = ("etale-check", "necessary-condition", "defcount", "tangent",
            "maranda-check", "order-bound", "hom-count", "fingerprint",
            "w-check")


def render_report(report: Dict) -> str:
    return json.dumps(report, indent=2) + "\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="defring",
        description="Deformation-ring checks over finite local rings.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("job", help="job file path, or '-' for stdin")
    parser.add_argument("--precision", type=int, default=None)
    parser.add_argument("--cap-elements", type=int, default=DEFAULT_ELEMENT_CAP)
    parser.add_argument("--cap-maps", type=int, default=DEFAULT_MAP_CAP)
    parser.add_argument("--degree-cap", type=int, default=DEFAULT_DEGREE_CAP)
    parser.add_argument("--output", default=None, help="write the report here")
    parser.add_argument("--no-cache", action="store_true")
    args = parser.parse_args(argv)

    try:
        if args.job == "-":
            text = sys.stdin.read()
        else:
            with open(args.job, "r", encoding="utf-8") as fh:
                text = fh.read()
        blocks = parse_job_blocks(text)
        spec = JobSpec(command=args.command, blocks=blocks,
                       precision=args.precision,
                       cap_elements=args.cap_elements,
                       cap_maps=args.cap_maps,
                       degree_cap=args.degree_cap)
        cached = None if args.no_cache else cache_lookup(spec)
        if cached is not None:
            report, code = cached["report"], cached["exit_code"]
        else:
            report, code = run_job(spec)
            if not args.no_cache:
                cache_store(spec, report, code)
        text_out = render_report(report)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text_out)
        else:
            sys.stdout.write(text_out)
    except (DefringError, ValueError, ArithmeticError, OSError) as exc:
        err = {"tool": "defring", "version": __version__, "error": str(exc)}
        if isinstance(exc, CapExceededError):
            err.update(cap=exc.cap, needed=exc.needed, limit=exc.limit)
        sys.stderr.write(render_report(err))
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
