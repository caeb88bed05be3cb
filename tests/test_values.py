"""The value types compare by value and behave as nothing else: no tuple."""

from fractions import Fraction

import pytest

from curveloops.covers import Perm
from curveloops.curves import Loop, make_curve
from curveloops.ring import RATIONAL, Coeff, nilpotent_ring
from curveloops.series import LaurentSeries

#: (name, a builder of a fresh value, its field names)
VALUES = [
    ("Ring", lambda: nilpotent_ring(3), ("order",)),
    (
        "Coeff",
        lambda: Coeff.nil(nilpotent_ring(2), [Fraction(1, 2), 3]),
        ("ring", "den", "payload"),
    ),
    (
        "LaurentSeries",
        lambda: LaurentSeries.build(RATIONAL, {-1: 2, 3: Fraction(1, 3)}, 5),
        ("ring", "den", "rows", "prec"),
    ),
    (
        "Curve",
        lambda: make_curve("hyp", (1, 0, 0, 1)),
        ("kind", "h", "genus", "punctures", "finite"),
    ),
    (
        "Loop",
        lambda: Loop(make_curve("line", (0, 1)), LaurentSeries.build(RATIONAL, {0: 2, 1: 1})),
        ("curve", "x", "y"),
    ),
    ("Perm", lambda: Perm((2, 3, 1)), ("images",)),
]


@pytest.mark.parametrize("name,build,fields", VALUES, ids=[v[0] for v in VALUES])
def test_value_types_compare_by_value_and_are_no_tuples(name, build, fields):
    a, b = build(), build()
    assert type(a).__name__ == name
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert a != tuple([getattr(a, f) for f in fields])
    with pytest.raises(TypeError):
        len(a)
    with pytest.raises(TypeError):
        iter(a)
