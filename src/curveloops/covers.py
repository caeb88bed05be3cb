"""Surface-group computations in small symmetric groups.

The closed genus-g surface group has one relation, the product of
commutators of the standard generator pairs; the punctured surface group
is free on the same generators, so it has (n!)^(2g) homomorphisms into
S_n.  ``count_homs`` counts the closed side without enumerating the
2g-tuples.  The number of pairs (a, b) with [a, b] = x is a class function
C(x) (Frobenius 1896), and the homomorphisms of the closed group are the
g-tuples of pairs whose commutators multiply to the identity: the value at
the identity of the g-fold convolution power of C.  One pass over the n!^2
pairs builds C, and repeated squaring takes the power.  Mednykh's
character formula (1978) gives the same count and is the tests' oracle.

``Perm`` and its helpers (no group-theory library) build the concrete
witness, an assignment satisfying the free group but violating the
relation: the first generator pair goes to a transposition and a 3-cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import factorial

from .errors import SizeMismatch, TooLarge

#: Hard cap on enumerated generator assignments.
ENUMERATION_LIMIT = 2_000_000

#: Most digits of a count printed in full: CPython's default limit for
#: int-to-str conversion, fixed here so every interpreter prints the same.
PRINTED_DIGITS = 4300


@dataclass(frozen=True)
class Perm:
    """Permutation of {1..n}; ``images[i]`` is the image of i+1."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.images}")

    @staticmethod
    def identity(n: int) -> "Perm":
        return Perm(tuple(range(1, n + 1)))

    @staticmethod
    def from_cycles(n: int, cycles) -> "Perm":
        images = list(range(1, n + 1))
        for cycle in cycles:
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                images[a - 1] = b
        return Perm(tuple(images))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def is_identity(self) -> bool:
        return all(self.images[i] == i + 1 for i in range(self.n))

    def inverse(self) -> "Perm":
        out = [0] * self.n
        for i, img in enumerate(self.images):
            out[img - 1] = i + 1
        return Perm(tuple(out))

    def cycle_notation(self) -> str:
        seen = set()
        parts = []
        for start in range(1, self.n + 1):
            if start in seen or self(start) == start:
                seen.add(start)
                continue
            cycle = [start]
            seen.add(start)
            nxt = self(start)
            while nxt != start:
                cycle.append(nxt)
                seen.add(nxt)
                nxt = self(nxt)
            parts.append("(" + " ".join(map(str, cycle)) + ")")
        return "".join(parts) if parts else "id"


def compose(a: Perm, b: Perm) -> Perm:
    """a after b: (a . b)(i) = a(b(i))."""
    if a.n != b.n:
        raise SizeMismatch(f"sizes {a.n} and {b.n}")
    return Perm(tuple(a.images[b.images[i] - 1] for i in range(a.n)))


def commutator(a: Perm, b: Perm) -> Perm:
    """a b a^-1 b^-1."""
    return compose(compose(a, b), compose(a.inverse(), b.inverse()))


@dataclass(frozen=True)
class GeneratorAssignment:
    """Images of the 2g standard generators (a1, b1, ..., ag, bg)."""

    genus: int
    images: tuple[Perm, ...]

    def __post_init__(self):
        if len(self.images) != 2 * self.genus:
            raise ValueError("need exactly 2g generator images")


def surface_relation(assign: GeneratorAssignment) -> Perm:
    """The product of commutators [a1, b1] ... [ag, bg]."""
    n = assign.images[0].n
    out = Perm.identity(n)
    for i in range(assign.genus):
        out = compose(out, commutator(assign.images[2 * i], assign.images[2 * i + 1]))
    return out


def count_homs(genus: int, n: int) -> tuple[int, int]:
    """(surface_count, free_count) of homomorphisms into S_n.

    Every tuple of 2g permutations is a homomorphism of the free group.
    The surface count is the value at the identity of the g-fold
    convolution power of the commutator histogram C (see the module
    docstring), taken over a product table of the n! permutations in
    O(log g) convolutions over supp C, which lies in the alternating
    group.  Raises ``TooLarge`` when (n!)^(2g) exceeds
    ``ENUMERATION_LIMIT``.
    """
    if genus < 1:
        raise ValueError("genus must be positive")
    base = factorial(n)
    # capped at 2^21 > ENUMERATION_LIMIT: past the cap the power exceeds
    # the limit for any base >= 2, and the full power is never built
    free_count = base ** min(2 * genus, ENUMERATION_LIMIT.bit_length())
    if free_count > ENUMERATION_LIMIT:
        raise TooLarge(f"{_power_text(base, 2 * genus)} assignments exceed the enumeration bound")
    perms = list(permutations(range(n)))  # perms[0] is the identity
    index = {p: i for i, p in enumerate(perms)}
    # mul[i][j] is the index of perms[i] after perms[j]
    mul = [[index[tuple([p[k] for k in q])] for q in perms] for p in perms]
    inv = [row.index(0) for row in mul]
    histogram = {}
    for a, row in enumerate(mul):
        for b, ab in enumerate(row):
            # [a, b] = (a b) (b a)^-1
            c = mul[ab][inv[mul[b][a]]]
            histogram[c] = histogram.get(c, 0) + 1
    power = {0: 1}
    while genus:
        if genus & 1:
            power = _convolve(power, histogram, mul)
        genus >>= 1
        if genus:
            histogram = _convolve(histogram, histogram, mul)
    return power.get(0, 0), free_count


def _power_text(base: int, exponent: int) -> str:
    """base^exponent in decimal, or as ``<base>^<exponent>`` when it has
    more than ``PRINTED_DIGITS`` digits."""
    # 10/3 > log2(10): past this bound base^exponent >= 10^PRINTED_DIGITS
    if (base.bit_length() - 1) * exponent <= PRINTED_DIGITS * 10 // 3:
        power = base**exponent
        if power < 10**PRINTED_DIGITS:
            return str(power)
    return f"{base}^{exponent}"


def _convolve(f: dict, g: dict, mul: list) -> dict:
    """(f * g)(z) = sum of f(x) g(y) over x y = z, for counts keyed by index."""
    out = {}
    for x, fx in f.items():
        row = mul[x]
        for y, gy in g.items():
            z = row[y]
            out[z] = out.get(z, 0) + fx * gy
    return out


def conjugacy_class_count(n: int) -> int:
    """Number of conjugacy classes of S_n, by direct orbit enumeration."""
    perms = [Perm(p) for p in permutations(range(1, n + 1))]
    remaining = set(perms)
    classes = 0
    while remaining:
        rep = next(iter(remaining))
        orbit = {compose(compose(g, rep), g.inverse()) for g in perms}
        remaining -= orbit
        classes += 1
    return classes


def witness_nonextendable(genus: int) -> GeneratorAssignment:
    """An S3 assignment satisfying no surface relation: a1 -> (1 2), b1 -> (1 2 3).

    The remaining generators go to the identity; the relation value is a
    nontrivial 3-cycle, so the assignment is a homomorphism of the free
    (punctured-surface) group that does not factor through the closed
    surface group.
    """
    if genus < 1:
        raise ValueError("genus must be positive")
    a1 = Perm.from_cycles(3, [(1, 2)])
    b1 = Perm.from_cycles(3, [(1, 2, 3)])
    tail = tuple(Perm.identity(3) for _ in range(2 * genus - 2))
    assign = GeneratorAssignment(genus, (a1, b1) + tail)
    if surface_relation(assign).is_identity():  # pragma: no cover
        raise AssertionError("witness relation value is unexpectedly trivial")
    return assign
