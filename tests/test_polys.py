"""Sparse polynomial reduction, evaluation, tables, inverses, interpolation."""

import random

import numpy as np
import pytest

from ppf.errors import BadParams, NotPermutation, ParseError
from ppf.fields import build_tower
from ppf.maps import VectorMap
from ppf.polys import (
    FnTable,
    SparsePoly,
    compose_univariate,
    first_collisions,
    interpolate,
    monomial,
    parse_element,
    parse_poly,
    reduce_exponent,
    trace_poly,
)


def rand_poly(ctx, rng, nterms=4, emax=None):
    emax = emax or 10 * ctx.order
    return SparsePoly(ctx, [(rng.randrange(0, emax), rng.randrange(0, ctx.order))
                            for _ in range(nterms)])


def test_reduce_exponent_convention(f16):
    Q = 16
    assert reduce_exponent(0, Q) == 0
    assert reduce_exponent(Q, Q) == 1                  # x^Q = x
    assert reduce_exponent(Q - 1, Q) == Q - 1          # x^(Q-1) is retained
    assert reduce_exponent(2 * Q - 2, Q) == Q - 1
    # x^(2Q-1) = x * (x^(Q-1))^2 induces x, not x^(Q-1)
    assert reduce_exponent(2 * Q - 1, Q) == 1


def test_reduce_polys(f16):
    assert SparsePoly(f16, [(16, 1)]).reduce() == monomial(f16, 1)
    assert SparsePoly(f16, [(30, 1)]).reduce() == monomial(f16, 15)
    p = SparsePoly(f16, [(16, 1), (1, 1)]).reduce()    # x^Q + x = 2x
    assert p == SparsePoly(f16, [])                    # characteristic 2


def test_reduction_preserves_function(f16):
    rng = random.Random(7)
    for _ in range(50):
        p = rand_poly(f16, rng)
        q = p.reduce()
        assert all(e <= f16.order - 1 for e, _ in q.terms)
        assert all(p.eval(x) == q.eval(x) for x in range(16))
        assert np.array_equal(p.to_table().values, q.to_table().values)


def test_eval_basics(f25):
    x = monomial(f25, 1)
    assert all(x.eval(a) == a for a in range(25))
    zero = SparsePoly(f25)
    assert all(zero.eval(a) == 0 for a in range(25))


@pytest.mark.parametrize("x", [-1, 25, 30])
def test_eval_out_of_range_raises(f25, x):
    # -1 would otherwise alias 24 through the log table
    with pytest.raises(BadParams, match="out of range for F_25"):
        SparsePoly(f25, [(3, 1)]).eval(x)


@pytest.mark.parametrize("c", [-1, 25, 30])
def test_scale_out_of_range_raises(f25, c):
    # -1 would otherwise alias 24 through the log table, 25 read past its end
    with pytest.raises(BadParams, match="out of range for F_25"):
        SparsePoly(f25, [(3, 1)]).scale(c)


def test_example_trinomial_identity(f25):
    # (x + a x^5)^3 + (x - a x^5)^3 = 2(x^3 + 3 a^2 x^11) for a in mu_6
    for alpha in f25.subgroup_mu(6):
        a2 = f25.pow(alpha, 2)
        tri = SparsePoly(f25, [(3, 1), (11, f25.mul(f25.from_int(3), a2))])
        doubled = tri.scale(2)
        for x in range(25):
            xq = f25.frobenius(x)
            u = f25.add(x, f25.mul(alpha, xq))
            v = f25.sub(x, f25.mul(alpha, xq))
            direct = f25.add(f25.pow(u, 3), f25.pow(v, 3))
            assert doubled.eval(x) == direct


def test_to_table(f4):
    assert monomial(f4, 1).to_table() == FnTable.identity(f4)
    const = SparsePoly(f4, [(0, 3)])
    assert list(const.to_table().values) == [3, 3, 3, 3]


def test_frobenius_table_is_involution(f9):
    t = monomial(f9, 3).to_table()     # x^q over F_{q^2}
    assert t.compose(t) == FnTable.identity(f9)


def test_is_permutation(f4):
    assert FnTable.identity(f4).is_permutation()
    assert monomial(f4, 2).to_table().is_permutation()       # Frobenius
    cube = monomial(f4, 3).to_table()
    assert not cube.is_permutation()                         # x^3 = 1 on units
    assert set(cube.values[1:]) == {1}
    collision = cube.first_collision()
    assert collision is not None and cube[collision[0]] == cube[collision[1]]


@pytest.mark.parametrize("spec, terms, permutes", [
    ((2, 2, 2), [(7, 1)], True), ((2, 2, 2), [(3, 1)], False),
    ((5, 1, 2), [(5, 1)], True), ((5, 1, 2), [(4, 1), (1, 1)], False),
    ((5, 1, 2), [(0, 3)], False), ((3, 3, None), [(2, 1)], False),
    ((1021, 1, 2), [(98765, 77777), (123457, 5)], False),
])
def test_verdict_and_witness_come_from_one_count(spec, terms, permutes, monkeypatch):
    ctx = build_tower(spec[0], k=spec[1], n=spec[2])
    table = SparsePoly(ctx, terms).to_table()
    hit, x1, x2 = first_collisions(table.values[None, :])
    counted = []
    real = np.bincount
    monkeypatch.setattr(np, "bincount", lambda *a, **k: counted.append(1) or real(*a, **k))
    assert table.is_permutation() is permutes and bool(hit[0]) is not permutes
    assert table.first_collision() == (None if permutes else (int(x1[0]), int(x2[0])))
    assert table.is_permutation() is permutes and counted == [1]
    # a vector-space map reads the same single count
    assert VectorMap(ctx.base, ctx.degree, table.values).is_permutation() is permutes


@pytest.mark.parametrize("values", [[0, 1, 2, 4], [0, 1, 2, -1], [7, 1, 2, 3]])
def test_table_entries_out_of_range_raise(f4, values):
    # [0, 1, 2, 4] has no repeated value, but 4 is not an element of F_4:
    # the table is refused when it is built, and the oracle refuses such rows
    with pytest.raises(BadParams, match=r"\[0, 4\)"):
        FnTable(f4, values)
    with pytest.raises(BadParams, match=r"\[0, 4\)"):
        first_collisions(np.array([values], dtype=np.int64))


def test_compose_never_gathers_out_of_range(f4):
    # a negative entry used to wrap (composing with the identity returned the
    # identity), an entry >= Q used to end in a raw numpy IndexError
    ident = FnTable.identity(f4)
    for values in ([0, 1, 2, -1], [0, 1, 2, 4]):
        with pytest.raises(BadParams):
            ident.compose(FnTable(f4, values))


def test_table_owns_its_array(f4):
    # a later write to the caller's array must not get past the range check
    arr = np.array([0, 1, 2, 3])
    t = FnTable(f4, arr)
    arr[3] = -1
    assert FnTable.identity(f4).compose(t).values.tolist() == [0, 1, 2, 3]
    assert t.values.tolist() == [0, 1, 2, 3]
    # and the table's own array cannot be written either
    with pytest.raises(ValueError, match="read-only"):
        t.values[0] = 7
    assert t.is_permutation()


def test_inverse_tables(f9, f25):
    assert FnTable.identity(f9).inverse() == FnTable.identity(f9)
    frob = monomial(f9, 3).to_table()
    assert frob.inverse() == frob                            # involution
    # 7 * 7 = 49 = 1 (mod 24), so x^7 is self-inverse on F_25
    p7 = monomial(f25, 7).to_table()
    assert p7.inverse() == p7
    assert p7.compose(p7.inverse()) == FnTable.identity(f25)
    # gcd(3, 24) = 3: x^3 does not permute F_25
    with pytest.raises(NotPermutation):
        monomial(f25, 3).to_table().inverse()


def test_inverse_of_cube_in_f27():
    f27 = build_tower(3, n=3)
    cube = monomial(f27, 3).to_table()
    assert cube.inverse() == monomial(f27, 9).to_table()     # 3 * 9 = 1 (mod 26)


def test_interpolate_round_trip(f9):
    rng = random.Random(3)
    for _ in range(20):
        p = rand_poly(f9, rng).reduce()
        assert interpolate(p.to_table()) == p
    assert interpolate(FnTable.identity(f9)) == monomial(f9, 1)
    const = FnTable(f9, [5] * 9)
    assert interpolate(const) == SparsePoly(f9, [(0, 5)])


def test_interpolate_degree_bound(f9):
    rng = random.Random(4)
    for _ in range(10):
        t = FnTable(f9, [rng.randrange(9) for _ in range(9)])
        p = interpolate(t)
        assert p.degree <= 8
        assert p.to_table() == t


def test_interpolate_equals_reduce(f16):
    rng = random.Random(5)
    for _ in range(10):
        p = rand_poly(f16, rng)
        assert interpolate(p.to_table()) == p.reduce()


def test_trace_poly_and_frobenius_map(f9):
    rng = random.Random(6)
    for _ in range(10):
        p = rand_poly(f9, rng, emax=9)
        tp = trace_poly(p)
        pt = p.to_table().values
        expected = f9.arr_trace(pt)
        assert np.array_equal(tp.to_table().values, expected)
        fm = p.frobenius_map(1)
        assert np.array_equal(fm.to_table().values, f9.frob_table[pt])


def test_compose_univariate(f9):
    h = SparsePoly(f9.base, [(2, 1), (0, 1)])   # y^2 + 1 over F_3
    inner = trace_poly(monomial(f9, 1))          # Tr(x)
    comp = compose_univariate(h, inner)
    for x in range(9):
        t = f9.trace(x)
        assert comp.eval(x) == f9.base.add(f9.base.mul(t, t), 1)


def test_poly_algebra(f9):
    x = monomial(f9, 1)
    p = (x + x) * x                              # 2x^2
    assert p == SparsePoly(f9, [(2, 2)])
    assert (x ** 4) == SparsePoly(f9, [(4, 1)])
    # powers fold exponents mod x^Q - x
    assert (monomial(f9, 5) ** 2) == monomial(f9, 2)


def test_parse_and_format(f25):
    p = parse_poly(f25, "x^3 + 3*(a8)*x^11")
    a8 = f25.pow(f25.generator, 8)
    assert p == SparsePoly(f25, [(3, 1), (11, f25.mul(3, a8))])
    assert parse_poly(f25, "x") == monomial(f25, 1)
    assert parse_poly(f25, "(2,3)*x - x") == SparsePoly(
        f25, [(1, f25.sub(f25.encode([2, 3]), 1))])
    assert parse_poly(f25, "0") == SparsePoly(f25)
    round_trip = parse_poly(f25, str(p))
    assert round_trip == p
    with pytest.raises(ParseError):
        parse_poly(f25, "x^^3")
    with pytest.raises(ParseError):
        parse_element(f25, "(1,2,3)")
