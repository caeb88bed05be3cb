import pytest

from curveloops.covers import (
    GeneratorAssignment,
    Perm,
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
