import re
from functools import cache
from itertools import permutations, product
from math import factorial, prod

import pytest
from sympy import partition

from curveloops import covers
from curveloops.covers import (
    GeneratorAssignment,
    Perm,
    _printable_power,
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


# -- count_homs against enumeration, the commutator histogram and Mednykh -------------


def enumerated_homs(genus, n):
    """(surface, free) by running through every 2g-tuple of permutations."""
    perms = [Perm(p) for p in permutations(range(1, n + 1))]
    surface = free = 0
    for images in product(perms, repeat=2 * genus):
        free += 1
        if surface_relation(GeneratorAssignment(genus, images)).is_identity():
            surface += 1
    return surface, free


@cache
def commutator_histogram(n):
    """The product table of S_n (``mul[i][j]`` is the index of perms[i]
    after perms[j], perms[0] the identity) and the histogram C of the
    commutators [a, b] over all n!^2 pairs, keyed by index."""
    perms = list(permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    mul = [[index[tuple([p[k] for k in q])] for q in perms] for p in perms]
    inv = [row.index(0) for row in mul]
    histogram = {}
    for a, row in enumerate(mul):
        for b, ab in enumerate(row):
            # [a, b] = (a b) (b a)^-1
            c = mul[ab][inv[mul[b][a]]]
            histogram[c] = histogram.get(c, 0) + 1
    return mul, histogram


def convolve(f, g, mul):
    """(f * g)(z) = sum of f(x) g(y) over x y = z, for counts keyed by index."""
    out = {}
    for x, fx in f.items():
        row = mul[x]
        for y, gy in g.items():
            z = row[y]
            out[z] = out.get(z, 0) + fx * gy
    return out


def histogram_homs(genus, n):
    """(surface, free) without the 2g-tuples: the homomorphisms of the
    closed group are the g-tuples of pairs whose commutators multiply to
    the identity, the value at the identity of the g-fold convolution power
    of C, taken by repeated squaring."""
    mul, histogram = commutator_histogram(n)
    power = {0: 1}
    for bit in bin(genus)[2:]:
        power = convolve(power, power, mul)
        if bit == "1":
            power = convolve(power, histogram, mul)
    return power.get(0, 0), factorial(n) ** (2 * genus)


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


#: Where the histogram oracle runs in well under 10 s: its pass over the
#: n!^2 pairs takes a fraction of a second at n = 6 and 49 times as long at
#: n = 7.
HISTOGRAM = [(g, n) for n in range(7) for g in (1, 2, 3, 4, 5, 8, 13)]
ENUMERATED = [(g, n) for n in range(4) for g in (1, 2, 3, 4) if factorial(n) ** (2 * g) <= 1296]


def test_hook_lengths_give_the_group_order():
    for n in range(8):
        assert sum(d * d for d in irreducible_degrees(n)) == factorial(n)
    assert sorted(irreducible_degrees(4)) == [1, 1, 2, 3, 3]


@pytest.mark.parametrize("genus,n", ENUMERATED)
def test_mednykh_and_the_histogram_match_enumeration(genus, n):
    surface, free = enumerated_homs(genus, n)
    assert histogram_homs(genus, n) == (surface, free)
    assert mednykh(genus, n) == surface


@pytest.mark.parametrize("genus,n", HISTOGRAM)
def test_count_homs_and_mednykh_match_the_histogram(genus, n):
    surface, free = histogram_homs(genus, n)
    assert mednykh(genus, n) == surface
    assert count_homs(genus, n) == (surface, free)


@pytest.mark.parametrize("n", range(31))
def test_count_homs_counts_commuting_pairs_at_genus_1(n):
    # commuting pairs in a finite group number |G| * #conjugacy classes,
    # and the classes of S_n are its cycle types, the partitions of n
    assert count_homs(1, n) == (factorial(n) * int(partition(n)), factorial(n) ** 2)


@pytest.mark.parametrize(
    "genus,n", [(g, n) for n in (7, 8, 11, 16, 23, 30) for g in (2, 3, 7)] + [(66, 30)]
)
def test_count_homs_matches_mednykh(genus, n):
    assert count_homs(genus, n) == (mednykh(genus, n), factorial(n) ** (2 * genus))


def test_count_homs_pinned_values():
    assert count_homs(1, 6) == (7920, 518400)
    assert count_homs(3, 3) == (16038, 46656)
    assert count_homs(2, 5) == (3858240, 207360000)
    assert count_homs(3, 4) == (16619520, 191102976)
    assert count_homs(1, 7) == (5040 * 15, 25401600)
    assert count_homs(10**6, 1) == (1, 1)
    assert count_homs(10**9, 0) == (1, 1)


@pytest.mark.parametrize("n", [31, 1700, 10**9])
def test_count_homs_refuses_past_s30(n, monkeypatch):
    # the refusal comes before n! is formed
    monkeypatch.setattr(covers, "factorial", None)
    with pytest.raises(TooLarge, match=f"^S_{n} is past S_30, the largest symmetric group counted$"):
        count_homs(1, n)


@pytest.mark.parametrize("n", range(2, 31))
def test_count_homs_prints_the_largest_free_count(n):
    """The largest genus whose free count has at most 4300 digits answers,
    and the next one is refused with the count's short form."""
    genus, square, limit = 1, factorial(n) ** 2, 10**4300
    while square ** (genus + 1) < limit:
        genus += 1
    assert count_homs(genus, n)[1] == factorial(n) ** (2 * genus)
    text = f"{factorial(n)}^{2 * genus + 2}"
    with pytest.raises(TooLarge, match=f"^the free count {re.escape(text)} has more than 4300 digits$"):
        count_homs(genus + 1, n)


@pytest.mark.parametrize(
    "genus,n,text",
    [(3000, 3, "6^6000"), (10**9, 3, "6^2000000000"), (10**9, 2, "2^2000000000")],
)
def test_unprintable_free_count_is_never_built(genus, n, text):
    with pytest.raises(TooLarge, match=f"^the free count {re.escape(text)} has more than 4300 digits$"):
        count_homs(genus, n)


def test_printed_counts_have_up_to_4300_digits():
    # 2^14284 has 4300 digits and 2^14285 has 4301
    assert _printable_power(2, 14284) == 2**14284
    assert _printable_power(10, 4299) == 10**4299
    for base, exponent in [(2, 14285), (10, 4300)]:
        with pytest.raises(TooLarge, match=f"^the free count {base}\\^{exponent} has more than 4300 digits$"):
            _printable_power(base, exponent)


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
