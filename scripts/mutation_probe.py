#!/usr/bin/env python3
"""Apply hand-made mutants to the library's checks and fast paths, one at a
time, and report whether the test files mapped to each one notice.

Each mutant replaces one exact text, which must occur exactly once in its
file, in a copy of the repository in a temporary directory.  Its test files
then run there under a timeout of TIMEOUT seconds, stopping at the first
failure.  A run with failing tests (pytest's exit code 1) or out of time
prints KILLED; a passing run prints SURVIVED, or EQUIVALENT when the mutant
is known not to change what the code computes; any other exit code, a
collection or usage error, prints ERROR.  Before the mutants, every mapped
test file runs once on an unmutated copy, and the probe stops if that fails,
so a broken environment cannot read as a killed mutant.

Run from anywhere, with pytest and hypothesis installed:

    python3 scripts/mutation_probe.py

It takes minutes, so it is not part of the test suite; the suite only checks
that every mutant's text still occurs exactly once (tests/test_scripts.py).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT = 600.0  # seconds for one run of a mutant's test files


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: Tuple[str, ...]
    equivalent: Optional[str] = None  # why the mutant computes the same, if it does


LINALG = "src/defring/linalg.py"
LOCAL_RING = "src/defring/local_ring.py"
POLYS = "src/defring/polys.py"
PRESENTED = "src/defring/presented.py"
REPRESENTATION = "src/defring/representation.py"

MUTANTS = (
    Mutant("layer: a gap of two p-powers taken as a jump", LOCAL_RING,
           "            elif w == v + 1:",
           "            elif w > v:",
           ("tests/test_local_ring.py",)),
    Mutant("layer: size check deleted", LOCAL_RING,
           "        if lower.size * k.size ** len(self.basis) != upper.size:",
           "        if False:",
           ("tests/test_local_ring.py",)),
    Mutant("layer: coordinates below the pivot's valuation accepted", LOCAL_RING,
           "            if reducer is None or any(c % reducer[0] for c in e):",
           "            if reducer is None:",
           ("tests/test_lift_oracles.py",)),
    Mutant("enumerate_lifts: final Cayley-edge check deleted", REPRESENTATION,
           "        if fail is not None:\n            raise InternalInconsistencyError("
           "f\"solved lift fails the Cayley edge {fail}\")",
           "        if False:\n            raise InternalInconsistencyError("
           "f\"solved lift fails the Cayley edge {fail}\")",
           ("tests/test_lift_oracles.py",)),
    Mutant("kernel_conjugator: a K == K b check deleted", REPRESENTATION,
           "    if not all(a * K == K * b for a, b in zip(gens1, gens2)):",
           "    if False:",
           ("tests/test_lift_oracles.py",)),
    Mutant("def_set: orbit-stabiliser check deleted", REPRESENTATION,
           "        if len(orbit) * form.size_from(ni) != total:",
           "        if False:",
           ("tests/test_lift_oracles.py",)),
    Mutant("_validate: generator locality check skipped", LOCAL_RING,
           "            if not self._is_nilpotent(x):",
           "            if False:",
           ("tests/test_local_ring.py",)),
    Mutant("_validate: reduction check skipped", LOCAL_RING,
           "            if any(red(x) != k.mul(rg, lam) for x, lam in zip(ge, self.residue_coeffs)):",
           "            if False:",
           ("tests/test_local_ring.py",)),
    Mutant("_validate: Light's comparison skipped", LOCAL_RING,
           "                    if self._times_basis(ge[i], j) != self._times_basis(ge[j], i):",
           "                    if False:",
           ("tests/test_local_ring.py",)),
    Mutant("m_adic_filtration: the p a term dropped", LOCAL_RING,
           "            ring, [a.scale_int(p) for a in basis] + [a * g for a in basis for g in gens])",
           "            ring, [a * g for a in basis for g in gens])",
           ("tests/test_local_ring.py",)),
    Mutant("_matmul: the final reduction modulo _mods dropped", LOCAL_RING,
           "        return tuple([v % md for v, md in zip(acc, mods)])",
           "        return tuple(acc)",
           ("tests/test_matrices.py",)),
    Mutant("_matmul: the inner index of the right factor not matched", LOCAL_RING,
           "            rows = tuple(tuple(((t * n + j) * w + J,",
           "            rows = tuple(tuple(((i * n + j) * w + J,",
           ("tests/test_matrices.py",)),
    Mutant("RingElement.__add__: the reduction modulo _mods dropped", LOCAL_RING,
           "            (x + y) % md for x, y, md in zip(self.flat, other.flat, self.ring._mods)]),",
           "            x + y for x, y, md in zip(self.flat, other.flat, self.ring._mods)]),",
           ("tests/test_flat_elements.py",)),
    Mutant("fingerprint: the walk's x^(e+1) check skipped", LOCAL_RING,
           "            if not (y * x).is_zero():",
           "            if False:",
           ("tests/test_local_ring.py",)),
    Mutant("buchberger: the F5 criterion also reads the current generator's elements", POLYS,
           "            if not any(all(map(le, e, t)) for e in earlier):",
           "            if not any(all(map(le, e, t)) for e in lms):",
           ("tests/test_polys.py",)),
    Mutant("normal_form: a divisor of equal shifted signature admitted", POLYS,
           "            if all(map(le, lm, m)) and entry > bound:",
           "            if all(map(le, lm, m)) and entry >= bound:",
           ("tests/test_polys.py",)),
    Mutant("buchberger: a larger shifted signature taken as singular", POLYS,
           "                       and grevlex_key(tuple(map(add, sigs[i], map(sub, lm, lms[i])))) == key",
           "                       and grevlex_key(tuple(map(add, sigs[i], map(sub, lm, lms[i])))) >= key",
           ("tests/test_polys.py",)),
    Mutant("buchberger: a reduction to zero not recorded as a syzygy", POLYS,
           "                syzygies.append(t)",
           "                pass",
           ("tests/test_polys.py",)),
    Mutant("buchberger: a rewriter outside its J-pairs skipped, not reduced", POLYS,
           "            else:\n                g, u = basis[e], tuple(map(sub, t, sigs[e]))",
           "            else:\n                continue\n                g, u = basis[e], tuple(map(sub, t, sigs[e]))",
           ("tests/test_polys.py",)),
    Mutant("omega_rank: the determinant route's full-rank test skipped", PRESENTED,
           "            and _full_rank_mod_prime(_jacobian_det_rows(pres, A))):",
           "            and _jacobian_det_rows(pres, A)):",
           ("tests/test_presented.py",)),
    Mutant("_kernel_certified: the exact product with the rows skipped", PRESENTED,
           "        if any(acc.values()):\n            return False",
           "        if False:\n            return False",
           ("tests/test_presented.py",)),
    Mutant("_monomial_coords: a leading monomial's tail not divided by L", PRESENTED,
           "                    out = lead, {self._pos[m]: c for m, c in tail}",
           "                    out = 1, {self._pos[m]: c for m, c in tail}",
           ("tests/test_presented.py",)),
    Mutant("_monomial_coords: the base case taken for every border monomial", PRESENTED,
           "            g = self._leading.get(mo)\n            if g is not None:",
           "            g = next((h for lm, h in self._leading.items() if mono_divides(lm, mo)),"
           " None)\n            if g is not None and any(e and mo[:v] + (e - 1,) + mo[v + 1:]"
           " in self._pos for v, e in enumerate(mo)):",
           ("tests/test_presented.py",)),
    Mutant("_kernel_basis: the denominator's sign not normalised", PRESENTED,
           "            if t < 0:\n                t, s = -t, -s",
           "            if False:\n                t, s = -t, -s",
           ("tests/test_presented.py",)),
    Mutant("render: a coefficient not put in lowest terms", POLYS,
           "            g = gcd(c, den)\n            num, d = abs(c) // g, den // g",
           "            g = 1\n            num, d = abs(c) // g, den // g",
           ("tests/test_polys.py",)),
    Mutant("_conjugate_in_place: a = c takes the a != c update", REPRESENTATION,
           "    if a == c:\n        u = ring.one + x",
           "    if False:\n        u = ring.one + x",
           ("tests/test_lift_oracles.py", "tests/test_representation.py")),
    Mutant("_hom_defects: the generator test f(g_v) = z_v dropped", LOCAL_RING,
           "        for g, z in zip(source.generators, images)]",
           "        for g, z in zip(source.generators, images) if False]",
           ("tests/test_local_ring.py",)),
    Mutant("hom_enumerate: the final check deleted", LOCAL_RING,
           "        if not (hom.verify() and all(hom.apply(g) == z for g, z in zip(source.generators, zs))):",
           "        if False:",
           ("tests/test_lift_oracles.py",)),
    Mutant("defects: only the first spanning generator read", LOCAL_RING,
           "        for g in S._spanning:",
           "        for g in S._spanning[:1]:",
           ("tests/test_lift_oracles.py",)),
    Mutant("Layer.solutions: the kernel dropped, only the particular solution kept", LOCAL_RING,
           "                            for z in kernel])",
           "                            for z in kernel[:1]])",
           ("tests/test_lift_oracles.py",)),
    Mutant("HowellForm: a canonicalised pivot row's Y^u terms not recomputed", LINALG,
           "            if changed:\n                terms[j] = _terms(W, row, r * j)",
           "            if changed:\n                pass",
           ("tests/test_linalg.py",)),
    Mutant("HowellForm: an installed pivot row not scaled by its unit's inverse", LINALG,
           "            if u != W.one:\n                row[:] = W.scale(W.inv(u), row)",
           "            if False:\n                row[:] = W.scale(W.inv(u), row)",
           ("tests/test_linalg.py",)),
)


def occurrences(mutant: Mutant) -> int:
    return (ROOT / mutant.path).read_text().count(mutant.old)


def pytest(tests: Tuple[str, ...], mutant: Optional[Mutant] = None) -> Optional[int]:
    """pytest's exit code for the given test files in a fresh copy of the
    repository with the mutant applied, or None if they ran out of time."""
    with tempfile.TemporaryDirectory(prefix="mutation-probe-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench"))
        if mutant is not None:
            target = copy / mutant.path
            text = target.read_text()
            if text.count(mutant.old) != 1:
                raise SystemExit(f"{mutant.name}: its text does not occur exactly once")
            target.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        try:
            return subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
                cwd=copy, env=env, capture_output=True, timeout=TIMEOUT).returncode
        except subprocess.TimeoutExpired:
            return None


def verdict(mutant: Mutant) -> str:
    code = pytest(mutant.tests, mutant)
    if code is None:
        return "KILLED (timeout)"
    if code == 1:
        return "KILLED"
    if code == 0:
        return "EQUIVALENT" if mutant.equivalent else "SURVIVED"
    return f"ERROR (exit {code})"


def main() -> None:
    tests = tuple(sorted({t for mutant in MUTANTS for t in mutant.tests}))
    code = pytest(tests)
    if code != 0:
        raise SystemExit(f"the mapped test files do not pass unmutated (pytest exit {code})")
    errors = 0
    for mutant in MUTANTS:
        result = verdict(mutant)
        errors += result.startswith("ERROR")
        note = f"  ({mutant.equivalent})" if result == "EQUIVALENT" else ""
        print(f"{result:<16}  {mutant.name}  [{', '.join(mutant.tests)}]{note}", flush=True)
    if errors:
        raise SystemExit(f"{errors} mutant runs ended in a pytest error")


if __name__ == "__main__":
    main()
