"""Surface-group computations in small symmetric groups.

The closed genus-g surface group has one relation, the product of
commutators of the standard generator pairs; the punctured surface group
is free on the same generators, so it has (n!)^(2g) homomorphisms into
S_n.  ``count_homs`` counts the closed side by Mednykh's character
formula (Soviet Math. Dokl. 19, 1978): a finite group G has
|G| sum_chi (|G| / chi(1))^(2g - 2) homomorphisms from the closed group,
summed over its irreducible characters chi.  Those of S_n are labelled by
the partitions of n, and |G| / chi(1) is the product of the hook lengths
of the partition (Frame, Robinson & Thrall 1954), so the count takes one
power per partition and no group element.

``Perm`` and its helpers (no group-theory library) build the concrete
witness, an assignment satisfying the free group but violating the
relation: the first generator pair goes to a transposition and a 3-cycle.
"""

from __future__ import annotations

from itertools import permutations
from math import factorial, prod

from .errors import SizeMismatch, TooLarge
from .ring import Value

#: Largest n for which S_n is counted: S_30 has 5604 irreducible
#: characters, and the count takes one big-integer power for each.
LARGEST_N = 30

#: Most digits of a count printed: CPython's default limit for int-to-str
#: conversion, fixed here so every interpreter prints the same counts.
PRINTED_DIGITS = 4300


class Perm(Value):
    """Permutation of {1..n}; ``images[i]`` is the image of i+1.  A
    ``Value``, checked on construction."""

    __slots__ = ("images",)

    def __init__(self, images: tuple[int, ...]):
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {images}")
        self.images = images

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.images == other.images

    def __hash__(self):
        return hash((self.images,))

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


class GeneratorAssignment:
    """Images of the 2g standard generators (a1, b1, ..., ag, bg)."""

    __slots__ = ("genus", "images")

    def __init__(self, genus: int, images: tuple[Perm, ...]):
        if len(images) != 2 * genus:
            raise ValueError("need exactly 2g generator images")
        self.genus, self.images = genus, images


def surface_relation(assign: GeneratorAssignment) -> Perm:
    """The product of commutators [a1, b1] ... [ag, bg]."""
    n = assign.images[0].n
    out = Perm.identity(n)
    for i in range(assign.genus):
        out = compose(out, commutator(assign.images[2 * i], assign.images[2 * i + 1]))
    return out


def count_homs(genus: int, n: int) -> tuple[int, int]:
    """(surface_count, free_count) of homomorphisms into S_n.

    The free count is (n!)^(2g), every 2g-tuple of permutations; the
    surface count is Mednykh's, one power per partition of n (see the
    module docstring).  Raises ``TooLarge`` for n past ``LARGEST_N``,
    before any factorial is formed, and for a free count of more than
    ``PRINTED_DIGITS`` digits; the surface count is at most the free
    count, so both can be printed.
    """
    if genus < 1:
        raise ValueError("genus must be positive")
    if n > LARGEST_N:
        raise TooLarge(f"S_{n} is past S_{LARGEST_N}, the largest symmetric group counted")
    order = factorial(n)
    free_count = _printable_power(order, 2 * genus)
    return order * sum(h ** (2 * genus - 2) for h in _hook_products(n)), free_count


def _printable_power(base: int, exponent: int) -> int:
    """base^exponent; raises ``TooLarge``, naming it ``<base>^<exponent>``
    and without building it, when it has more than ``PRINTED_DIGITS``
    digits."""
    # 10/3 > log2(10): past this bound base^exponent >= 10^PRINTED_DIGITS
    if (base.bit_length() - 1) * exponent <= PRINTED_DIGITS * 10 // 3:
        power = base**exponent
        # 3 < log2(10): up to 3 * PRINTED_DIGITS bits it has fewer digits
        if power.bit_length() <= 3 * PRINTED_DIGITS or power < 10**PRINTED_DIGITS:
            return power
    raise TooLarge(f"the free count {base}^{exponent} has more than {PRINTED_DIGITS} digits")


def _hook_products(n: int, low: int = 1, heights: tuple = (), product: int = 1):
    """The product of the hook lengths of each partition of n, n! / chi(1)
    for the character chi of S_n it labels (Frame, Robinson & Thrall 1954).

    The diagram is built from the bottom row up: ``heights`` are the column
    heights of the rows laid so far, ``product`` is their hooks' product,
    and each further row has at least ``low`` cells.  A row laid on top,
    no shorter than the rows below it, changes none of their hooks, and
    its cell in column j has hook row - j + heights[j].
    """
    if n == 0:
        yield product
        return
    # a row leaves nothing, or room for the longer rows above it
    for row in (*range(low, n // 2 + 1), n):
        below = heights + (0,) * (row - len(heights))
        hooks = prod(row - j + h for j, h in enumerate(below))
        yield from _hook_products(n - row, row, tuple(h + 1 for h in below), product * hooks)


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
