"""Property and differential tests of the field arithmetic.

The bulk index-array operations are checked elementwise against the scalar
arithmetic, and scalar addition and negation (digitwise on the index, like
the arrays) against the tower recursion through the base fields' own
arithmetic; prime-base extensions and Rabin's irreducibility test are
checked against sympy's galoistools, and Rabin's test over extension bases
against trial division.  Random towers with Q <= 2^12 are checked for the
field axioms, Frobenius, trace and interpolation, and tabulation (the Zech
logarithm sum at odd p) against scalar evaluation.
"""

import functools
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from sympy import ZZ
from sympy.polys.galoistools import gf_irreducible_p, gf_mul, gf_rem

from ppf.fields import (_from_digits, _to_digits, build_prime_field, build_tower,
                        is_irreducible, is_prime)
from ppf.polys import SparsePoly, interpolate

# (p, k, n): F_p, or F_{(p^k)^n} built as the tower F_p -> F_{p^k} -> F_{(p^k)^n}
TOWERS = [(7, 1, None), (2, 2, 2), (2, 3, 2), (3, 1, 2), (3, 2, 2), (5, 2, 2), (13, 1, 2)]


def _tower_id(spec):
    p, k, n = spec
    return f"F{p}" if n is None else f"F{p}^{k}^{n}"


@pytest.mark.parametrize("spec", TOWERS, ids=_tower_id)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_array_addition_matches_scalar_arithmetic(spec, data):
    p, k, n = spec
    ctx = build_tower(p, k=k, n=n)
    elems = st.lists(st.integers(0, ctx.order - 1), max_size=24)
    u = data.draw(elems)
    v = data.draw(st.lists(st.integers(0, ctx.order - 1), min_size=len(u),
                           max_size=len(u)))
    ua, va = np.array(u, dtype=np.int64), np.array(v, dtype=np.int64)
    assert ctx.arr_add(ua, va).tolist() == [ctx.add(a, b) for a, b in zip(u, v)]
    assert ctx.arr_sub(ua, va).tolist() == [ctx.sub(a, b) for a, b in zip(u, v)]
    assert ctx.arr_neg(ua).tolist() == [ctx.neg(a) for a in u]
    assert ctx.arr_sum(ua) == functools.reduce(ctx.add, u, 0)
    assert ua.tolist() == u and va.tolist() == v  # inputs are left untouched
    if len(u) % 2 == 0:  # shape-preserving on 2-D arrays (the sweep's layout)
        rows = ctx.arr_add(ua.reshape(2, -1), va.reshape(2, -1))
        assert rows.ravel().tolist() == ctx.arr_add(ua, va).tolist()


def _recursive_add(ctx, a, b):
    """a + b coordinatewise over the base, down the tower."""
    if ctx.base is None:
        return (a + b) % ctx.p
    q, d = ctx.base.order, ctx.degree
    return _from_digits([_recursive_add(ctx.base, x, y) for x, y in
                         zip(_to_digits(a, q, d), _to_digits(b, q, d))], q)


def _recursive_neg(ctx, a):
    if ctx.base is None:
        return (-a) % ctx.p
    q = ctx.base.order
    return _from_digits([_recursive_neg(ctx.base, x) for x in _to_digits(a, q, ctx.degree)], q)


def _sympy_poly(coords):
    """Low-first coordinates -> sympy's high-first dense list, stripped."""
    out = list(reversed(coords))
    while out and out[0] == 0:
        out.pop(0)
    return out


@pytest.mark.parametrize("p", [3, 5, 7, 13])
@pytest.mark.parametrize("d", [2, 3])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_prime_base_extension_matches_galoistools(p, d, data):
    ctx = build_tower(p, n=d)
    modulus = list(reversed(ctx.modulus))
    assert gf_irreducible_p(modulus, p, ZZ)
    a = data.draw(st.integers(0, ctx.order - 1))
    b = data.draw(st.integers(0, ctx.order - 1))
    rem = gf_rem(gf_mul(_sympy_poly(ctx.decode(a)), _sympy_poly(ctx.decode(b)), p, ZZ),
                 modulus, p, ZZ)
    coords = [int(c) for c in reversed(rem)] + [0] * (d - len(rem))
    prod = ctx._arr_mul_structural(np.array([a], dtype=np.int64), np.array([b], dtype=np.int64))
    assert prod.tolist() == [ctx.encode(coords)]


def _monic(b, d):
    """Every monic polynomial of degree d over a field of order b, low first."""
    return [list(low) + [1] for low in itertools.product(range(b), repeat=d)]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rabin_matches_galoistools_exhaustively(p):
    base = build_prime_field(p)
    for d in range(1, 7):
        for f in _monic(p, d):
            assert is_irreducible(base, f) == gf_irreducible_p(f[::-1], p, ZZ), f


@pytest.mark.parametrize("p", [13, 1021])
def test_rabin_matches_galoistools_on_seeded_polynomials(p):
    base, rng = build_prime_field(p), random.Random(p)
    for _ in range(300):
        f = [rng.randrange(p) for _ in range(rng.randint(1, 6))] + [1]
        assert is_irreducible(base, f) == gf_irreducible_p(f[::-1], p, ZZ), f


def _rem(base, num, den):
    """num mod den for a monic den, by schoolbook long division."""
    num, dd = list(num), len(den) - 1
    for k in range(len(num) - 1, dd - 1, -1):
        c = num[k]
        for j in range(dd + 1):
            num[k - dd + j] = base.sub(num[k - dd + j], base.mul(c, den[j]))
    return [c for c in num[:dd] if c]


def _irreducible_by_trial_division(base, f):
    """No monic factor of degree 1 .. deg/2."""
    d = len(f) - 1
    return all(_rem(base, f, g) for k in range(1, d // 2 + 1) for g in _monic(base.order, k))


@pytest.mark.parametrize("p, k, dmax", [(2, 2, 4), (2, 3, 3), (3, 2, 3)], ids=["F4", "F8", "F9"])
def test_rabin_matches_trial_division_over_extension_bases(p, k, dmax):
    base = build_tower(p, k=k)
    for d in range(1, dmax + 1):
        for f in _monic(base.order, d):
            assert is_irreducible(base, f) == _irreducible_by_trial_division(base, f), f


def _random_tower_specs(max_order=1 << 12):
    """(p, k, n) for every tower F_p -> F_{p^k} (-> F_{(p^k)^n}) of order at
    most max_order whose outermost step is an extension."""
    out = []
    for p in filter(is_prime, range(2, 65)):
        for k in range(1, 13):
            for n in [None] + list(range(2, 13)):
                order = p ** (k * (n or 1))
                if order <= max_order and (k > 1 or n is not None):
                    out.append((p, k, n))
    return out


TOWER_SPECS = _random_tower_specs()
random_towers = st.sampled_from(TOWER_SPECS).map(lambda s: build_tower(s[0], k=s[1], n=s[2]))


def _elements(ctx, count):
    return st.lists(st.integers(0, ctx.order - 1), min_size=count, max_size=count)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_random_tower_field_axioms(data):
    ctx = data.draw(random_towers)
    a, b, c = data.draw(_elements(ctx, 3))
    add, mul = ctx.add, ctx.mul
    assert add(a, b) == add(b, a) and mul(a, b) == mul(b, a)
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert add(a, 0) == a and mul(a, 1) == a and add(a, ctx.neg(a)) == 0
    assert add(a, b) == _recursive_add(ctx, a, b) and ctx.neg(c) == _recursive_neg(ctx, c)
    if a:
        assert mul(a, ctx.inv(a)) == 1
    # the structural multiply that builds the tables agrees with them
    u = np.array([a, b, c], dtype=np.int64)
    v = np.array([b, c, a], dtype=np.int64)
    assert ctx._arr_mul_structural(u, v).tolist() == ctx.arr_mul(u, v).tolist()
    assert ctx.arr_mul(u, v).tolist() == [mul(a, b), mul(b, c), mul(c, a)]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_random_tower_frobenius_is_an_automorphism_of_order_d(data):
    ctx = data.draw(random_towers)
    a, b = data.draw(_elements(ctx, 2))
    fr, d = ctx.frobenius, ctx.degree
    assert fr(ctx.add(a, b)) == ctx.add(fr(a), fr(b))
    assert fr(ctx.mul(a, b)) == ctx.mul(fr(a), fr(b))
    assert fr(a, d) == a and int(ctx.frob_table[a]) == fr(a)
    g = ctx.generator  # generates the field, so no smaller power of Frobenius fixes it
    assert all(fr(g, j) != g for j in range(1, d))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_random_tower_trace_lands_in_the_base(data):
    ctx = data.draw(random_towers)
    xs = data.draw(_elements(ctx, 8))
    traces = [ctx.trace(x) for x in xs]      # raises unless Frobenius fixes the sum
    assert all(0 <= t < ctx.base.order for t in traces)
    assert ctx.arr_trace(np.array(xs, dtype=np.int64)).tolist() == traces


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_random_tower_interpolation_inverts_tabulation(data):
    ctx = data.draw(random_towers)
    terms = data.draw(st.lists(st.tuples(st.integers(0, 3 * ctx.order),
                                         st.integers(0, ctx.order - 1)), max_size=4))
    poly = SparsePoly(ctx, terms)
    assert interpolate(poly.to_table()).terms == poly.reduce().terms


# F_2, F_7, F_4, F_9, F_16, F_25, F_27, F_64 = (F_8)^2 and F_81 = (F_9)^2
TABULATION_FIELDS = [(2, 1, None), (7, 1, None), (2, 1, 2), (3, 1, 2), (2, 2, 2),
                     (5, 1, 2), (3, 1, 3), (2, 3, 2), (3, 2, 2)]


def _stress_exponents(order):
    """0, 1, Q - 1, Q, multiples k(Q - 1) and their neighbours (k up to
    2^70, so well past 2^63), values from 2^63 up, and small ones."""
    n = order - 1
    return st.one_of(
        st.sampled_from([0, 1, n, order, 2 * n, 2 ** 63, 2 ** 63 + 1, 2 ** 64 + 1]),
        st.builds(lambda k, r: k * n + r, st.integers(1, 2 ** 70), st.integers(0, 2)),
        st.integers(2 ** 63, 2 ** 80),
        st.integers(0, 3 * order))


def _vanishing_sums(ctx, data):
    """Terms whose sums vanish: x^((Q-1)/2) + 1 (zero where x^((Q-1)/2) = -1),
    then + x; c x^e - c x^(e+(Q-1)) (zero everywhere); and a constant plus
    powers ending in that pair, so that the highest terms sum to zero."""
    n, units = ctx.order - 1, st.integers(1, ctx.order - 1)
    c, c2 = data.draw(units), data.draw(units)
    e = data.draw(st.integers(2, 3 * ctx.order))
    return data.draw(st.sampled_from([
        [(n // 2, 1), (0, 1)],
        [(n // 2, 1), (0, 1), (1, 1)],
        [(e, c), (e + n, ctx.neg(c))],
        [(0, c2), (1, c2), (e, c), (e + n, ctx.neg(c))],
    ]))


@pytest.mark.parametrize("spec", TABULATION_FIELDS, ids=_tower_id)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_tabulation_matches_scalar_evaluation(spec, data):
    p, k, n = spec
    ctx = build_tower(p, k=k, n=n)
    coefs = st.integers(0, ctx.order - 1)
    if data.draw(st.booleans()):
        terms = _vanishing_sums(ctx, data)
    else:
        terms = data.draw(st.lists(st.tuples(_stress_exponents(ctx.order), coefs),
                                   max_size=5))
        if terms:  # a second term whose exponent reduces to the same value
            e = max(1, terms[data.draw(st.integers(0, len(terms) - 1))][0])
            j = data.draw(st.sampled_from([1, 2, 2 ** 64]))
            terms.append((e + j * (ctx.order - 1), data.draw(coefs)))
    poly = SparsePoly(ctx, terms)
    scalar = [poly.eval(x) for x in range(ctx.order)]
    assert poly.to_table().values.tolist() == scalar
    for e, c in poly.terms:
        if e:
            assert (ctx.monomial_table(e, c).tolist()
                    == [ctx.mul(c, ctx.pow(x, e)) for x in range(ctx.order)])
    # second reference: the digitwise scale-of-power sum from zeros, as
    # tabulation worked before the log domain (and still works at p = 2)
    xs, ref = ctx.all_indices(), np.zeros(ctx.order, dtype=np.int64)
    for e, c in poly.terms:
        term = (np.full(ctx.order, c, dtype=np.int64) if e == 0
                else ctx.arr_scale(ctx.arr_pow(xs, e), c))
        ref = ctx.arr_add(ref, term)
    assert ref.tolist() == scalar
    assert SparsePoly(ctx).to_table().values.tolist() == [0] * ctx.order
