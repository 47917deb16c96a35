from dataclasses import FrozenInstanceError, fields
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from clslab import (
    DimensionError,
    ParseError,
    QMatrix,
    QVector,
    format_rational,
    mat_det,
    principal_minor,
    rational,
    solve_linear,
)
from clslab.qlinalg import integer
from support import copies, det_cofactor

small_fraction = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


def square(entries):
    return QMatrix.of(entries)


def test_rational_parse_and_format():
    assert rational("3/4") == F(3, 4)
    assert rational("-2") == F(-2)
    assert rational("−1/2") == F(-1, 2)  # unicode minus
    assert format_rational(F(6, 4)) == "3/2"
    assert format_rational(F(-5)) == "-5"
    with pytest.raises(ParseError):
        rational("one half")
    with pytest.raises(ParseError):
        rational("1/0")


def test_integer_takes_a_signed_run_of_ascii_digits():
    assert [integer(tok) for tok in ("12", "-3", "+4", "007", "0")] == [12, -3, 4, 7, 0]
    # int() takes each of these: underscores, whitespace, non-ASCII digits
    for tok in ("0_1", "1_000", " 1", "1 ", "\t2\n", "٢", "１", "", "+", "-", "--1", "1.0", "0x10"):
        with pytest.raises(ParseError):
            integer(tok)


def test_det_examples():
    assert mat_det(QMatrix.identity(3)) == 1
    assert mat_det(square([[0]])) == 0
    assert mat_det(square([[2, 1], [1, 2]])) == 3


def test_det_requires_square():
    with pytest.raises(DimensionError):
        mat_det(QMatrix.of([[1, 2]]))


def test_solve_examples():
    assert solve_linear(QMatrix.identity(2), QVector.of(["1/2", "1/3"])) == QVector.of(
        ["1/2", "1/3"]
    )
    assert solve_linear(square([[2]]), QVector.of([3])) == QVector.of(["3/2"])
    assert solve_linear(square([[1, 1], [1, 1]]), QVector.of([1, 2])) is None
    with pytest.raises(DimensionError):
        solve_linear(square([[1]]), QVector.of([1, 2]))


def test_principal_minor_examples():
    assert principal_minor(QMatrix.identity(4), {1, 3}) == 1
    assert principal_minor(square([[1, 2], [3, 1]]), {1, 2}) == -5
    assert principal_minor(square([[1, 2], [3, 1]]), {2}) == 1
    with pytest.raises(DimensionError):
        principal_minor(square([[1]]), {2})
    with pytest.raises(DimensionError):
        principal_minor(square([[1]]), set())


@given(small_fraction, small_fraction)
def test_addition_cancels_exactly(a, b):
    assert (a + b) - b == a
    total = a + b
    assert total.denominator > 0
    from math import gcd

    assert gcd(abs(total.numerator), total.denominator) == 1


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5), st.data())
def test_det_matches_cofactor_expansion(n, data):
    entries = [
        [data.draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(n)
    ]
    m = square(entries)
    assert mat_det(m) == det_cofactor(m)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.data())
def test_solve_satisfies_system_exactly(n, data):
    entries = [
        [F(data.draw(st.integers(-5, 5)), data.draw(st.integers(1, 3))) for _ in range(n)]
        for _ in range(n)
    ]
    rhs = QVector.of([data.draw(st.integers(-5, 5)) for _ in range(n)])
    m = square(entries)
    x = solve_linear(m, rhs)
    if mat_det(m) == 0:
        assert x is None
    else:
        assert x is not None
        assert m.apply(x) == rhs


def test_matrix_vector_shapes():
    m = square([[1, 2], [3, 4]])
    with pytest.raises(DimensionError):
        m.apply(QVector.of([1]))
    assert m.apply(QVector.of([1, 1])) == QVector.of([3, 7])


def test_vector_hash_is_the_field_hash_and_is_kept():
    v = QVector.of(["1/3", -2, 0, "7/5"])
    before = repr(v)
    assert hash(v) == hash((v.entries,)) == hash(QVector.of(["1/3", -2, 0, "7/5"]))
    assert v._hash == hash((v.entries,))
    assert hash(v) == hash((v.entries,))
    assert repr(v) == before == "QVector(entries=(Fraction(1, 3), Fraction(-2, 1), Fraction(0, 1), Fraction(7, 5)))"
    assert [f.name for f in fields(v)] == ["entries"]
    with pytest.raises(FrozenInstanceError):
        v.entries = ()
    with pytest.raises(FrozenInstanceError):
        v._hash = 0
    assert v == QVector.of(["1/3", -2, 0, "7/5"])
    assert v != QVector.of(["1/3", -2, 0, "7/4"])
    assert {v: 1}[QVector.of(["2/6", -2, 0, "14/10"])] == 1


@pytest.mark.parametrize("hashed_first", [False, True], ids=["unhashed", "hashed"])
def test_vector_copies_equal_and_hash_like_a_fresh_one(hashed_first):
    v = QVector.of([-1, "2/7", 3])
    if hashed_first:
        hash(v)
    fresh = QVector.of([-1, "2/7", 3])
    for how, twin in copies(v).items():
        assert twin == fresh and fresh == twin, how
        assert hash(twin) == hash(fresh) == hash((fresh.entries,)), how
        assert repr(twin) == repr(fresh) and str(twin) == "-1 2/7 3", how
        with pytest.raises(FrozenInstanceError):
            twin.entries = fresh.entries
        with pytest.raises(FrozenInstanceError):
            twin._hash = 0
