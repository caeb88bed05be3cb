import re
from functools import cache
from itertools import permutations, product
from math import factorial, prod

import pytest

from curveloops.covers import (
    ENUMERATION_LIMIT,
    GeneratorAssignment,
    Perm,
    _power_text,
    commutator,
    compose,
    conjugacy_class_count,
    count_homs,
    surface_relation,
    witness_nonextendable,
)
from curveloops.errors import SizeMismatch, TooLarge


def test_perm_basics():
    p = Perm.from_cycles(4, [(1, 2, 3)])
    assert p(1) == 2 and p(3) == 1 and p(4) == 4
    assert p.inverse() == Perm.from_cycles(4, [(1, 3, 2)])
    assert compose(p, p.inverse()).is_identity()
    assert p.cycle_notation() == "(1 2 3)"
    assert Perm.identity(3).cycle_notation() == "id"
    with pytest.raises(ValueError):
        Perm((1, 1, 2))


def test_compose_order():
    a = Perm.from_cycles(3, [(1, 2)])
    b = Perm.from_cycles(3, [(1, 2, 3)])
    # (a . b)(1) = a(b(1)) = a(2) = 1
    assert compose(a, b)(1) == 1
    with pytest.raises(SizeMismatch):
        compose(a, Perm.identity(4))


def test_commutator_of_commuting_is_identity():
    a = Perm.from_cycles(4, [(1, 2)])
    b = Perm.from_cycles(4, [(3, 4)])
    assert commutator(a, b).is_identity()


def test_commutator_witness_value():
    a = Perm.from_cycles(3, [(1, 2)])
    b = Perm.from_cycles(3, [(1, 2, 3)])
    assert commutator(a, b).cycle_notation() == "(1 2 3)"


def test_count_homs_s2():
    # S2 is abelian: every pair kills the commutator
    assert count_homs(1, 2) == (4, 4)


def test_count_homs_s3():
    surface, free = count_homs(1, 3)
    assert free == 36
    assert surface == 18
    # commuting pairs in a finite group number |G| * #conjugacy classes
    assert surface == 6 * conjugacy_class_count(3)


def test_conjugacy_class_counts():
    assert conjugacy_class_count(2) == 2
    assert conjugacy_class_count(3) == 3
    assert conjugacy_class_count(4) == 5


def test_enumeration_cap():
    with pytest.raises(TooLarge):
        count_homs(2, 5)


# -- count_homs against the enumeration it replaced and against Mednykh ----------------

# each (g, n) is counted once per session: (1, 6) alone takes most of a second
counted = cache(count_homs)


def enumerated_homs(genus, n):
    """(surface, free) by running through every 2g-tuple of permutations."""
    perms = [Perm(p) for p in permutations(range(1, n + 1))]
    surface = free = 0
    for images in product(perms, repeat=2 * genus):
        free += 1
        if surface_relation(GeneratorAssignment(genus, images)).is_identity():
            surface += 1
    return surface, free


def partitions(n, largest=None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def irreducible_degrees(n):
    """Degrees of the irreducible characters of S_n, by the hook-length formula."""
    degrees = []
    for shape in partitions(n):
        columns = [sum(1 for row in shape if row > j) for j in range(shape[0] if shape else 0)]
        hooks = prod(
            (row - j) + (columns[j] - i) - 1 for i, row in enumerate(shape) for j in range(row)
        )
        degrees.append(factorial(n) // hooks)
    return degrees


def mednykh(genus, n):
    """|Hom(closed genus-g surface group, S_n)| = |G| sum_chi (|G| / chi(1))^(2g - 2)."""
    order = factorial(n)
    return order * sum((order // d) ** (2 * genus - 2) for d in irreducible_degrees(n))


ADMITTED = [
    (g, n)
    for n in range(7)
    for g in range(1, 13)
    if factorial(n) ** (2 * g) <= ENUMERATION_LIMIT
]


def test_hook_lengths_give_the_group_order():
    for n in range(8):
        assert sum(d * d for d in irreducible_degrees(n)) == factorial(n)
    assert sorted(irreducible_degrees(4)) == [1, 1, 2, 3, 3]


@pytest.mark.parametrize("genus,n", ADMITTED)
def test_count_homs_matches_mednykh(genus, n):
    assert counted(genus, n) == (mednykh(genus, n), factorial(n) ** (2 * genus))


@pytest.mark.parametrize(
    "genus,n", [(g, n) for g, n in ADMITTED if factorial(n) ** (2 * g) <= 1296]
)
def test_count_homs_matches_enumeration(genus, n):
    assert counted(genus, n) == enumerated_homs(genus, n)


def test_count_homs_pinned_values():
    assert counted(1, 6) == (7920, 518400)
    assert counted(3, 3) == (16038, 46656)
    assert count_homs(10**6, 1) == (1, 1)
    assert count_homs(10**9, 0) == (1, 1)


@pytest.mark.parametrize("genus,n", [(10, 2), (4, 3), (2, 4), (1, 5), (1, 6)])
def test_enumeration_bound_admits(genus, n):
    assert counted(genus, n)[1] == factorial(n) ** (2 * genus) <= ENUMERATION_LIMIT


@pytest.mark.parametrize("genus,n", [(11, 2), (5, 3), (3, 4), (2, 5), (1, 7)])
def test_enumeration_bound_raises(genus, n):
    free = factorial(n) ** (2 * genus)
    with pytest.raises(TooLarge, match=f"^{free} assignments exceed the enumeration bound$"):
        count_homs(genus, n)


@pytest.mark.parametrize(
    "genus,n,text",
    [(3000, 3, "6^6000"), (10**9, 3, "6^2000000000"), (10**9, 2, "2^2000000000")],
)
def test_enumeration_bound_message_never_builds_a_huge_count(genus, n, text):
    with pytest.raises(TooLarge, match=f"^{re.escape(text)} assignments exceed the enumeration bound$"):
        count_homs(genus, n)


def test_enumeration_bound_message_prints_up_to_4300_digits():
    # 2^14284 has 4300 digits and 2^14287 has 4301
    assert _power_text(2, 14284) == str(2**14284)
    assert _power_text(2, 14287) == "2^14287"
    assert _power_text(10, 4299) == str(10**4299)
    assert _power_text(10, 4300) == "10^4300"


def test_witness_nonextendable():
    assign = witness_nonextendable(1)
    rel = surface_relation(assign)
    assert not rel.is_identity()
    assert rel.cycle_notation() == "(1 2 3)"
    # genus 2: identity padding keeps the relation value unchanged
    assign2 = witness_nonextendable(2)
    assert surface_relation(assign2) == rel


def test_generator_assignment_arity():
    with pytest.raises(ValueError):
        GeneratorAssignment(2, (Perm.identity(3),) * 3)


def test_count_homs_rejects_genus_zero():
    with pytest.raises(ValueError):
        count_homs(0, 3)
