"""Finite groups as Cayley tables with canonical generating sets.

Groups are concrete multiplication tables, not presentations; a homomorphism
is checked on the edges of the Cayley graph, which is exact and needs no coset
enumeration.  Canonical generating sets per family keep lift-enumeration sizes
reproducible.
"""

from __future__ import annotations

from itertools import permutations
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .galois import is_prime

MAX_ORDER = 2000


class GroupConstructionError(ValueError):
    pass


class FiniteGroup:
    """Group law on indices 0..n-1 with generators and shortest words.

    `tree` lists the breadth-first spanning tree of the Cayley graph as
    (element, parent, generator index) triples in order of word length, so
    that element = parent * generators[generator index].  `edges` lists the
    other Cayley edges (element, generator index) in increasing order, the
    ones a homomorphism built along the tree must still be checked on.
    """

    def __init__(self, table: Sequence[Sequence[int]], generators: Sequence[int],
                 name: str = "", element_names: Optional[Sequence[str]] = None):
        self.n = len(table)
        if self.n == 0 or self.n > MAX_ORDER:
            raise GroupConstructionError(f"group order must be in 1..{MAX_ORDER}")
        self.table = tuple(tuple(row) for row in table)
        self.name = name or f"group-of-order-{self.n}"
        self.element_names = tuple(element_names) if element_names is not None \
            else tuple(f"g{i}" for i in range(self.n))
        self._check_latin_square()
        self.identity = self._find_identity()
        self.generators = tuple(dict.fromkeys(generators))  # dedupe, keep order
        self.words, self.tree, self.edges = self._word_table()
        self._check_associative()
        self.inverse = self._compute_inverses()

    # -- construction checks --------------------------------------------------

    def _check_latin_square(self) -> None:
        n = self.n
        full = set(range(n))
        if any(len(row) != n for row in self.table) or any(
                set(line) != full for line in self.table + tuple(zip(*self.table))):
            raise GroupConstructionError(
                f"Cayley table rows and columns must be permutations of 0..{n - 1}")

    def _check_associative(self) -> None:
        """Light's test: (x s) y = x (s y) for all x, y and each generator s in S.

        Exact, in O(n^2 |S|).  The elements a with (x a) y = x (a y) for all
        x, y include the identity and are closed under products: for two such
        a, b, (x (ab)) y = ((xa) b) y = (xa)(by) = x (a (by)) = x ((ab) y).
        Right multiplication by S reaches every element from the identity (the
        word table checks this first), so every element associates.  S is a
        greedy subset of the generators, which `from_cayley_table` defaults to
        all elements.
        """
        t = self.table
        gens, _ = greedy_generators(self.generators, self.identity,
                                    lambda x, s: t[x][s])
        for s in gens:
            ts = t[s]
            for x in range(self.n):
                tx = t[x]
                if tuple(map(tx.__getitem__, ts)) != t[tx[s]]:
                    y = next(y for y in range(self.n) if t[tx[s]][y] != tx[ts[y]])
                    raise GroupConstructionError(
                        f"associativity fails at ({x},{s},{y})")

    def _find_identity(self) -> int:
        for e in range(self.n):
            if all(self.table[e][x] == x and self.table[x][e] == x
                   for x in range(self.n)):
                return e
        raise GroupConstructionError("no identity element")

    def _compute_inverses(self) -> Tuple[int, ...]:
        e = self.identity
        inv = []
        for a, row in enumerate(self.table):
            b = row.index(e) if e in row else None
            if b is None or self.table[b][a] != e:
                raise GroupConstructionError(f"element {a} has no two-sided inverse")
            inv.append(b)
        return tuple(inv)

    def _word_table(self) -> Tuple[Tuple[Tuple[int, ...], ...],
                                   Tuple[Tuple[int, int, int], ...],
                                   Tuple[Tuple[int, int], ...]]:
        """Shortest word of each element, the tree they span, the edges off it."""
        words: Dict[int, Tuple[int, ...]] = {self.identity: ()}
        tree = []
        edges = []
        frontier = [self.identity]
        while frontier:
            nxt = []
            for x in frontier:
                for gi, g in enumerate(self.generators):
                    y = self.table[x][g]
                    if y not in words:
                        words[y] = words[x] + (gi,)
                        tree.append((y, x, gi))
                        nxt.append(y)
                    else:
                        edges.append((x, gi))
            frontier = nxt
        if len(words) != self.n:
            raise GroupConstructionError("generators do not generate the group")
        return tuple(words[x] for x in range(self.n)), tuple(tree), tuple(sorted(edges))

    # -- group operations ------------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def order_of(self, a: int) -> int:
        e, x = 1, a
        while x != self.identity:
            x = self.table[x][a]
            e += 1
        return e

    def elements(self) -> range:
        return range(self.n)

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.n})"


# -- family constructors ------------------------------------------------------------


def cyclic(n: int) -> FiniteGroup:
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    gens = [1] if n > 1 else []
    return FiniteGroup(table, gens, name=f"C{n}",
                       element_names=[f"r^{i}" for i in range(n)])


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n; generators: rotation, reflection."""
    if n < 1:
        raise GroupConstructionError("dihedral parameter must be >= 1")
    # element (i, s) -> index s*n + i; (i,s)(j,t) = (i + (-1)^s j, s xor t)
    def idx(i, s):
        return s * n + i
    table = [[0] * (2 * n) for _ in range(2 * n)]
    for s in (0, 1):
        for i in range(n):
            for t in (0, 1):
                for j in range(n):
                    k = (i + (j if s == 0 else -j)) % n
                    table[idx(i, s)][idx(j, t)] = idx(k, s ^ t)
    names = [f"r^{i}" for i in range(n)] + [f"s*r^{i}" for i in range(n)]
    return FiniteGroup(table, [idx(1 % n, 0), idx(0, 1)], name=f"D{n}",
                       element_names=names)


def symmetric(n: int) -> FiniteGroup:
    """Symmetric group on n letters, n <= 5; generators: (0 1) and the n-cycle."""
    if n < 1 or n > 5:
        raise GroupConstructionError("symmetric groups supported for n in 1..5")
    perms = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}

    def compose(a, b):  # (a*b)(x) = a(b(x))
        return tuple(a[b[x]] for x in range(n))

    table = [[index[compose(a, b)] for b in perms] for a in perms]
    gens = []
    if n >= 2:
        swap = tuple([1, 0] + list(range(2, n)))
        gens.append(index[swap])
    if n >= 3:
        cycle = tuple(list(range(1, n)) + [0])
        gens.append(index[cycle])
    names = ["(" + " ".join(map(str, p)) + ")" for p in perms]
    return FiniteGroup(table, gens, name=f"S{n}", element_names=names)


def quaternion8() -> FiniteGroup:
    """The quaternion group {±1, ±i, ±j, ±k}; generators i, j."""
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    # encode q = (sign, axis) with axis in {1, i, j, k}
    def enc(sign, axis):
        return axis * 2 + (0 if sign == 1 else 1)

    def dec(x):
        return (1 if x % 2 == 0 else -1, x // 2)

    basemul = {  # axis multiplication: (a, b) -> (sign, axis)
        (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
        (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
        (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
        (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
    }
    table = [[0] * 8 for _ in range(8)]
    for x in range(8):
        sx, ax = dec(x)
        for y in range(8):
            sy, ay = dec(y)
            s, a = basemul[(ax, ay)]
            table[x][y] = enc(sx * sy * s, a)
    return FiniteGroup(table, [enc(1, 1), enc(1, 2)], name="Q8",
                       element_names=names)


def direct_product(G: FiniteGroup, H: FiniteGroup) -> FiniteGroup:
    n, m = G.n, H.n

    def idx(a, b):
        return a * m + b

    table = [[0] * (n * m) for _ in range(n * m)]
    for a in range(n):
        for b in range(m):
            for c in range(n):
                for d in range(m):
                    table[idx(a, b)][idx(c, d)] = idx(G.table[a][c], H.table[b][d])
    gens = [idx(g, H.identity) for g in G.generators] + \
           [idx(G.identity, h) for h in H.generators]
    names = [f"({G.element_names[a]},{H.element_names[b]})"
             for a in range(n) for b in range(m)]
    return FiniteGroup(table, gens, name=f"{G.name}x{H.name}", element_names=names)


def from_cayley_table(table: Sequence[Sequence[int]],
                      generators: Optional[Sequence[int]] = None,
                      name: str = "") -> FiniteGroup:
    gens = list(generators) if generators is not None else list(range(len(table)))
    return FiniteGroup(table, gens, name=name or "custom")


def build_group(kind: str, params: Sequence[int] = ()) -> FiniteGroup:
    kind = kind.lower()
    if kind in ("quaternion8", "q8"):
        return quaternion8()
    if kind == "klein4":
        return direct_product(cyclic(2), cyclic(2))
    family = {"cyclic": cyclic, "c": cyclic, "dihedral": dihedral, "d": dihedral,
              "symmetric": symmetric, "s": symmetric}.get(kind)
    if family is None:
        raise GroupConstructionError(f"unknown group family {kind!r}")
    if not params:
        raise GroupConstructionError(f"group family {kind!r} needs a 'param'")
    return family(params[0])


# -- utilities ------------------------------------------------------------------------


def p_part(G: FiniteGroup, p: int) -> Tuple[int, int]:
    """Write |G| = p^r * s with p not dividing s; returns (r, s)."""
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    r, s = 0, G.n
    while s % p == 0:
        s //= p
        r += 1
    return r, s


def commutator_subgroup(G: FiniteGroup) -> frozenset:
    comms = {G.table[G.table[a][b]][G.table[G.inverse[a]][G.inverse[b]]]
             for a in range(G.n) for b in range(G.n)}
    _, closure = greedy_generators(sorted(comms), G.identity, lambda x, s: G.table[x][s])
    return frozenset(closure)


def abelianization(G: FiniteGroup) -> List[int]:
    """Invariant factors d_1 | d_2 | ... of G/[G,G] (trivial group gives [])."""
    H = commutator_subgroup(G)
    # cosets of H, with induced multiplication
    coset_of: Dict[int, int] = {}
    reps: List[int] = []
    for x in range(G.n):
        if x in coset_of:
            continue
        r = len(reps)
        reps.append(x)
        for h in H:
            coset_of[G.table[x][h]] = r
    k = len(reps)
    mul = [[coset_of[G.table[reps[a]][reps[b]]] for b in range(k)] for a in range(k)]
    ident = coset_of[G.identity]

    def order_in_quotient(a: int) -> int:
        e, x = 1, a
        while x != ident:
            x = mul[x][a]
            e += 1
        return e

    orders = [order_in_quotient(a) for a in range(k)]
    # per-prime elementary divisors via counts of elements of order dividing p^j
    factors_by_prime: Dict[int, List[int]] = {}
    size = k
    d = 2
    nn = size
    primes = []
    while d * d <= nn:
        if nn % d == 0:
            primes.append(d)
            while nn % d == 0:
                nn //= d
        d += 1
    if nn > 1:
        primes.append(nn)
    for p in primes:
        counts = [1]  # counts[j] = #{x : x^(p^j) = 1}
        j = 1
        while True:
            Nj = sum(1 for o in orders if p ** j % o == 0)
            counts.append(Nj)
            if Nj == counts[-2]:
                break
            j += 1
        # a[j-1] = number of cyclic p-factors with exponent >= j
        a = []
        for j in range(1, len(counts)):
            ratio = counts[j] // counts[j - 1]
            e = 0
            while ratio > 1:
                ratio //= p
                e += 1
            a.append(e)
        divisors = []
        for j, aj in enumerate(a, start=1):
            nxt = a[j] if j < len(a) else 0
            divisors.extend([p ** j] * (aj - nxt))
        factors_by_prime[p] = sorted(divisors, reverse=True)
    # combine prime-power lists into invariant factors (largest first, then reverse)
    width = max((len(v) for v in factors_by_prime.values()), default=0)
    invariants = []
    for i in range(width):
        f = 1
        for p, lst in factors_by_prime.items():
            if i < len(lst):
                f *= lst[i]
        invariants.append(f)
    return sorted(invariants)


def greedy_generators(elements: Iterable, one, mul: Callable) -> Tuple[list, set]:
    """A generating subset S of `elements`, taken greedily in order, and its closure.

    The closure is the smallest set containing `one` and closed under
    x -> mul(x, s) for s in S; an element joins S when it is not yet in the
    closure of the elements before it.  Each closure step multiplies old
    elements by the new generator only and new elements by all of S, so the
    total cost is about |closure| * |S| products.
    """
    gens: list = []
    closure = {one}
    for s in elements:
        if s in closure:
            continue
        gens.append(s)
        fresh = [y for y in (mul(x, s) for x in list(closure)) if y not in closure]
        closure.update(fresh)
        while fresh:
            x = fresh.pop()
            for g in gens:
                y = mul(x, g)
                if y not in closure:
                    closure.add(y)
                    fresh.append(y)
    return gens, closure


def extend_and_verify_hom(G: FiniteGroup, one, generator_images: Sequence):
    """Extend generator images along the spanning tree and verify the Cayley edges.

    Each image is one product from its tree parent, phi(y) = phi(y g^-1) phi(g),
    in order of word length.  Then phi(a) phi(g) = phi(ag) is checked on the
    Cayley edges off the tree, `G.edges`; the |G| - 1 tree edges hold by
    construction.  This is exact: given every edge, induction on the word
    length of b = b'g gives phi(a) phi(b) = phi(a) phi(b') phi(g)
    = phi(ab') phi(g) = phi(ab), using only associativity of the target and
    phi(e) = one.

    The target needs only `*` and `==` (ring elements, matrices, or another
    group wrapped accordingly).  Returns (images, None) on success or
    (None, (a, g)) with the first violated edge, g a generator.
    """
    if len(generator_images) != len(G.generators):
        raise ValueError("one image per generator required")
    images = [None] * G.n
    images[G.identity] = one
    for y, parent, gi in G.tree:
        images[y] = images[parent] * generator_images[gi]
    for a, gi in G.edges:
        g = G.generators[gi]
        if images[a] * generator_images[gi] != images[G.table[a][g]]:
            return None, (a, g)
    return images, None
