"""Field construction, tower arithmetic, Frobenius/trace, subgroup utilities."""

import itertools
import time

import pytest

from ppf.errors import (
    CharThree,
    CtxMismatch,
    DivisionByZero,
    BadParams,
    NoSolution,
    NotDivisor,
    NotPrime,
    TooLarge,
    ZeroElement,
)
from ppf.fields import (
    build_extension,
    build_prime_field,
    build_tower,
    field_for_q_squared,
    is_irreducible,
    is_prime,
)


def test_build_prime_field():
    assert build_prime_field(5).order == 5
    assert build_prime_field(2).order == 2
    with pytest.raises(NotPrime):
        build_prime_field(4)
    with pytest.raises(NotPrime):
        build_prime_field(1)
    with pytest.raises(TooLarge):
        build_prime_field(11, cap=7)


def test_build_is_memoized(f4):
    assert build_prime_field(2) is build_prime_field(2)
    assert build_extension(build_prime_field(2), 2) is f4


def test_smallest_moduli(f4, f25):
    # only irreducible monic quadratic over F_2
    assert f4.modulus == (1, 1, 1)
    # t^2 and t^2+1 factor over F_5; t^2+2 is the first irreducible
    assert f25.modulus == (2, 0, 1)
    with pytest.raises(BadParams):
        build_extension(build_prime_field(2), 1)
    with pytest.raises(TooLarge):
        build_extension(build_prime_field(2), 2, cap=3)


def test_explicit_modulus(f25):
    again = build_extension(build_prime_field(5), 2, modulus=[2, 0, 1])
    assert again is f25
    with pytest.raises(BadParams):  # t^2+1 = (t-2)(t+2) over F_5
        build_extension(build_prime_field(5), 2, modulus=[1, 0, 1])
    with pytest.raises(BadParams):  # not monic
        build_extension(build_prime_field(5), 2, modulus=[2, 0, 2])


def test_irreducibility_facts(f2):
    assert is_irreducible(f2, [1, 1, 1])       # t^2+t+1
    assert not is_irreducible(f2, [1, 0, 1])   # (t+1)^2
    assert not is_irreducible(f2, [0, 1, 1])   # t(t+1)
    assert is_irreducible(f2, [1, 1, 0, 0, 1])  # t^4+t+1


def test_f4_multiplication(f4):
    w = f4.element(2)
    assert w * w == f4.element(3)  # w^2 = w + 1
    for x in f4.elements():
        assert x * f4.one() == x


def test_inverse_exhaustive_f25(f25):
    for x in range(1, 25):
        assert f25.mul(f25.inv(x), x) == 1
    with pytest.raises(DivisionByZero):
        f25.inv(0)


def test_field_axioms_exhaustive_f4(f4):
    els = list(range(4))
    for a, b, c in itertools.product(els, repeat=3):
        assert f4.mul(f4.mul(a, b), c) == f4.mul(a, f4.mul(b, c))
        assert f4.add(f4.add(a, b), c) == f4.add(a, f4.add(b, c))
        assert f4.mul(a, f4.add(b, c)) == f4.add(f4.mul(a, b), f4.mul(a, c))


def test_field_axioms_sample_f25(f25):
    sample = [0, 1, 2, 5, 6, 7, 11, 13, 19, 24]
    for a, b, c in itertools.product(sample, repeat=3):
        assert f25.mul(f25.mul(a, b), c) == f25.mul(a, f25.mul(b, c))
        assert f25.mul(a, f25.add(b, c)) == f25.add(f25.mul(a, b), f25.mul(a, c))


def test_frobenius(f4, f16):
    assert f4.frobenius(2, 0) == 2
    assert f4.frobenius(2, 1) == 3          # w^2 = w + 1
    for x in range(16):
        assert f16.frobenius(x, 2) == x     # x^(q^n) = x
    # q-power map is an automorphism: exhaustive over F_16
    q = f16.base.order
    for x, y in itertools.product(range(16), repeat=2):
        assert f16.frobenius(f16.add(x, y)) == f16.add(f16.frobenius(x), f16.frobenius(y))
        assert f16.frobenius(f16.mul(x, y)) == f16.mul(f16.frobenius(x), f16.frobenius(y))
    assert all(f16.frobenius(x) == f16.pow(x, q) for x in range(16))


def test_trace_values(f4):
    assert f4.trace(0) == 0
    assert f4.trace(2) == 1   # w + w^2 = 1
    assert f4.trace(1) == 0   # 1 + 1 in characteristic 2


@pytest.mark.parametrize("q", [2, 3, 5])
def test_trace_linear_exhaustive(q):
    ctx = field_for_q_squared(q)
    for c in range(q):
        for x in range(ctx.order):
            for y in range(ctx.order):
                lhs = ctx.trace(ctx.add(ctx.mul(ctx.embed(c), x), y))
                rhs = ctx.base.add(ctx.base.mul(c, ctx.trace(x)), ctx.trace(y))
                assert lhs == rhs


def test_trace_onto_with_equal_fibers(f25):
    fibers = {v: 0 for v in range(5)}
    for x in range(25):
        fibers[f25.trace(x)] += 1
    assert all(count == 5 for count in fibers.values())


def test_element_order(f4, f25):
    assert f4.element_order(1) == 1
    assert f4.element_order(2) == 3
    assert f25.element_order(f25.generator) == 24
    with pytest.raises(ZeroElement):
        f25.element_order(0)


def test_subgroup_mu(f4, f25):
    assert f25.subgroup_mu(1) == [1]
    mu6 = f25.subgroup_mu(6)
    assert len(mu6) == 6 and all(f25.pow(x, 6) == 1 for x in mu6)
    assert sorted(mu6) == sorted(x for x in range(1, 25) if f25.pow(x, 6) == 1)
    assert sorted(f4.subgroup_mu(3)) == [1, 2, 3]
    with pytest.raises(NotDivisor):
        f25.subgroup_mu(7)


def test_subgroup_mu_order_profile(f25):
    # phi(e) elements of each order e dividing d
    from math import gcd
    mu6 = f25.subgroup_mu(6)
    orders = sorted(f25.element_order(x) for x in mu6)
    assert orders == [1, 2, 3, 3, 6, 6]


def test_find_order3(f4, f49):
    w = f4.order3_element()
    assert f4.pow(w, 3) == 1 and w != 1
    with pytest.raises(CharThree):
        build_tower(3, n=2).order3_element()
    # q = 7 = 1 (mod 3): the order-3 element lies in the base field
    w49 = f49.order3_element()
    assert f49.frobenius(w49) == w49 and f49.in_base(w49)


def test_solve_power_q_minus_1(f25):
    assert f25.solve_power_q_minus_1(1) == 1
    lam = f25.neg(1)
    a = f25.solve_power_q_minus_1(lam)
    assert f25.pow(a, 4) == lam
    with pytest.raises(NoSolution):
        f25.solve_power_q_minus_1(f25.generator)


def test_element_wrappers(f25):
    x = f25.element(7)
    assert (x / x) == f25.one()
    assert x + 0 == x and x * 1 == x
    assert -(-x) == x
    assert x ** 24 == f25.one()
    assert 2 - x == -(x - 2)
    assert (2 / x) * x == f25.element(2)
    assert x ** -1 == x.inverse()
    assert str(f25.element(13)) == "(3,2)"
    assert f25.element(3).coords == (3, 0)
    with pytest.raises(CtxMismatch):
        x + build_tower(3, n=2).element(1)


def test_embedding_is_stable(f16):
    # base elements keep their index inside the extension
    for c in range(4):
        assert f16.embed(c) == c
        assert f16.in_base(c)
    assert not f16.in_base(7)
    assert f16.from_int(3) == 1  # constants reduce mod p = 2


def test_canonical_generator(f4, f25):
    assert f4.generator == 2
    assert all(f25.element_order(x) < 24 for x in range(1, f25.generator))


def test_arr_pow_reduces_large_exponents(f25):
    """x^e with e far beyond Q-1 induces x^red(e): no int64 wrap, no OverflowError."""
    xs = f25.all_indices()
    e = 10 ** 18 + 1                      # red(e) = 17, gcd(17, 24) = 1
    assert list(f25.arr_pow(xs, e)) == list(f25.arr_pow(xs, 17))
    assert len(set(f25.arr_pow(xs, e).tolist())) == 25
    for e in (2 ** 63, 2 ** 64 + 1, 10 ** 24 + 1):
        red = (e - 1) % 24 + 1
        assert list(f25.arr_pow(xs, e)) == [f25.pow(x, red) for x in range(25)]


def test_arr_pow_keeps_zero_at_multiples_of_the_group_order(f25):
    # x^24 and x^48 are 0 at 0 and 1 elsewhere; only x^0 is 1 at 0
    for e in (24, 48, 24 * 10 ** 20):
        assert list(f25.arr_pow(f25.all_indices(), e)) == [0] + [1] * 24
    assert list(f25.arr_pow(f25.all_indices(), 0)) == [1] * 25


def test_cap_is_checked_before_primality(deadline):
    with deadline(1.0), pytest.raises(TooLarge):
        build_prime_field(1000000000000000003)


def test_field_for_q_squared_checks_the_cap_before_factorizing(deadline):
    with deadline(1.0), pytest.raises(TooLarge):
        field_for_q_squared(1000000000000000003)
    with pytest.raises(TooLarge):
        field_for_q_squared(7, cap=48)
    assert field_for_q_squared(7, cap=49).order == 49


def test_cap_is_checked_before_the_extension_order():
    t0 = time.perf_counter()
    with pytest.raises(TooLarge) as info:
        build_extension(build_prime_field(3), 10 ** 8)
    assert time.perf_counter() - t0 < 1.0
    assert len(str(info.value)) < 100
    with pytest.raises(TooLarge):  # 2^21 > 2^20, d = bit length of the cap
        build_extension(build_prime_field(2), 21)
