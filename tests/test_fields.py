"""Field construction, tower arithmetic, Frobenius/trace, subgroup utilities."""

import hashlib
import itertools
import random
import time

import numpy as np
import pytest

from ppf.errors import (
    CharThree,
    DivisionByZero,
    BadParams,
    NoSolution,
    NotDivisor,
    NotPrime,
    TooLarge,
    ZeroElement,
)
from ppf import fields
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


@pytest.mark.parametrize("kwargs, match", [
    ({"modulus": [1, 0, 1]}, "needs an extension"),   # F_5 alone takes no modulus
    ({"k": 0}, "k must be >= 1"),
    ({"k": -2}, "k must be >= 1"),
    ({"k": 0, "n": 2}, "k must be >= 1"),
])
def test_build_tower_refuses_a_spec_it_would_ignore(kwargs, match):
    # each of these used to return F_5 as if the spec were not there
    with pytest.raises(BadParams, match=match):
        build_tower(5, **kwargs)


def test_irreducibility_facts(f2):
    assert is_irreducible(f2, [1, 1, 1])       # t^2+t+1
    assert not is_irreducible(f2, [1, 0, 1])   # (t+1)^2
    assert not is_irreducible(f2, [0, 1, 1])   # t(t+1)
    assert is_irreducible(f2, [1, 1, 0, 0, 1])  # t^4+t+1


def test_f4_multiplication(f4):
    w = 2
    assert f4.mul(w, w) == f4.add(w, 1) == 3  # w^2 = w + 1
    for x in range(f4.order):
        assert f4.mul(x, 1) == x


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
                lhs = ctx.trace(ctx.add(ctx.mul(c, x), y))
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


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8])
def test_solve_power_q_minus_1_matches_a_scan(q):
    """Against the definition: g^t for the least t with g^(t(q-1)) = lam,
    scanning t over the image subgroup, and NoSolution (lam = 0 included)
    when no t exists."""
    ctx = field_for_q_squared(q)
    g, m = ctx.generator, (ctx.order - 1) // (q - 1)
    powers = [ctx.pow(g, t * (q - 1)) for t in range(m)]
    for lam in range(ctx.order):
        if lam in powers:
            a = ctx.solve_power_q_minus_1(lam)
            assert a == ctx.pow(g, powers.index(lam)) and ctx.pow(a, q - 1) == lam
        else:
            with pytest.raises(NoSolution):
                ctx.solve_power_q_minus_1(lam)


def test_element_wrappers(f25):
    # index arithmetic: an element is its index, and a base constant c is index c
    x = 7
    assert f25.div(x, x) == 1
    assert f25.add(x, 0) == x and f25.mul(x, 1) == x
    assert f25.neg(f25.neg(x)) == x
    assert f25.pow(x, 24) == 1
    assert f25.sub(2, x) == f25.neg(f25.sub(x, 2))
    assert f25.mul(f25.div(2, x), x) == 2
    assert f25.pow(x, -1) == f25.inv(x)
    assert f25.format_idx(13) == "(3,2)"
    assert f25.decode(3) == [3, 0]


def test_embedding_is_stable(f16):
    # base elements keep their index inside the extension
    for c in range(4):
        assert f16.decode(c) == [c, 0]
        assert f16.in_base(c)
    assert not f16.in_base(7)
    assert f16.from_int(3) == 1  # constants reduce mod p = 2


def test_decode_leaves_its_argument_unchanged(f9, f16):
    for ctx in (f9, f16):
        arr = ctx.all_indices()
        coords = ctx.decode(arr)
        assert arr.tolist() == list(range(ctx.order))
        assert np.stack(coords, axis=1).tolist() == [ctx.decode(i) for i in range(ctx.order)]
        assert ctx.encode(coords).tolist() == arr.tolist()


@pytest.mark.parametrize("b, n", [(2, 1), (2, 5), (3, 3), (4, 2), (25, 2)])
def test_digit_codec_round_trip(b, n):
    # the one codec behind decode/encode and the packed vectors of F_q^n
    for x in range(b ** n):
        digits = fields._to_digits(x, b, n)
        assert len(digits) == n and all(0 <= c < b for c in digits)
        assert fields._from_digits(digits, b) == x
    arr = np.arange(b ** n, dtype=np.int64).reshape(-1, b)
    digits = fields._to_digits(arr, b, n)
    assert arr.tolist() == np.arange(b ** n).reshape(-1, b).tolist()  # left unchanged
    assert [d.shape for d in digits] == [arr.shape] * n
    for (i, j), x in np.ndenumerate(arr):
        assert [int(d[i, j]) for d in digits] == fields._to_digits(int(x), b, n)
    assert np.array_equal(fields._from_digits(digits, b), arr)


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


# (p, k, n) -> (modulus, generator, sha256 of the little-endian int64 exp
# table), as the earlier construction (trial division, an element-by-element
# generator scan, Q - 1 scalar multiplies for exp) built them: every tower
# with q <= 16 the test suite builds, plus F_{(2^8)^2}, F_{1021^2} and
# F_{(3^6)^2}.
PINNED = {
    (2, 1, None): (None, 1, "7c9fa136d4413fa6173637e883b6998d32e1d675f88cddff9dcbcf331820f4b8"),
    (3, 1, None): (None, 2, "0c730b69905c5ef7a4ca5269f72365400bde2dd2c04eaf9bbb3d1c4a265a0131"),
    (2, 2, None): ((1, 1, 1), 2, "e2e2033ae7e19d680599d4eb0a1359a2b48ec5baac75066c317fbf85159c54ef"),
    (5, 1, None): (None, 2, "92ebfe56a187e071ee832d8aec88836cd91da15f4867ae6414feb4772bd8454c"),
    (7, 1, None): (None, 3, "b731ea0a2c721d83db255a5507575d6a42ccde137a2971a3c9e84dc1c88eebed"),
    (2, 3, None): ((1, 1, 0, 1), 2, "4ec17844028f97bfa5da896681e0769fdea1646491bb7120301326ba8966a0a3"),
    (3, 1, 2): ((1, 0, 1), 4, "107beef16789fe215c9f675861dd58705f81b786978eb9af1837c6e3dfbc5f03"),
    (11, 1, None): (None, 2, "e8247f1507e27d11790d20038193bd919a14e90aed303d6df53ef281b60b0961"),
    (13, 1, None): (None, 2, "ca9c8cdd04b2e88aa4d188381cc7e73e2f469fa8a19bf387e04f92933202c555"),
    (2, 4, None): ((1, 1, 0, 0, 1), 2, "1b3553e94660d3aaa951959df5449388084822f376745a532b63c1b24afaca97"),
    (2, 2, 2): ((2, 1, 1), 4, "7b810ea0982ceb0358d8fa72fbafb558424b73a6d13428453504762edd1ac2c7"),
    (5, 1, 2): ((2, 0, 1), 6, "f819a08972b8bf0fe65072e895b3c905d6ffe44d290b58e9bb0e3a361657ac98"),
    (3, 3, None): ((1, 2, 0, 1), 3, "94de5a129fc907c93762dd467cfb55db24508ee0f358d4d87bfd8848eca59fd7"),
    (7, 1, 2): ((1, 0, 1), 9, "bfbb44080945d046e687f01a1b53c22bb1df14ae512b1df6db12b94316185d14"),
    (2, 3, 2): ((1, 1, 1), 10, "e806996018ce7061aa965f0ccfcd44b126b041add705ec7959c0abbcaebf5764"),
    (3, 2, 2): ((4, 0, 1), 10, "e9e2b86f606f65542eb0faa0c06cc3e7ed29c93c1fd8be7273af14e4bb46148d"),
    (11, 1, 2): ((1, 0, 1), 15, "43e329be59e51cd3c8a54ceb27946da862800e84be4d74e18dfb65306244ee8a"),
    (5, 3, None): ((1, 1, 0, 1), 9, "3cd23adf3501f4d1b4477466dd25378cd6e4fdcdd2d3faa09a5348af418b20ac"),
    (13, 1, 2): ((2, 0, 1), 15, "4db08ae6778e608d156fe11c5d4589060ad4818e61dd04d3d6affce7449e2d4c"),
    (2, 4, 2): ((8, 1, 1), 18, "2dc7874864fdf341bc75699236f377aa20e2acd1605a75b41fa2c7576b4c3f11"),
    (7, 3, None): ((2, 0, 0, 1), 22, "e923d9e59b71b72d7ef6399ef96787677b56d6d1b1a6633d0a5dc799ba8f9de6"),
    (5, 2, 2): ((5, 0, 1), 26, "39e0a0ade909fef7b10d6777bba01f2751b90c269b7e39636ff3bf2c29887145"),
    (13, 3, None): ((2, 0, 0, 1), 15, "63222d54f1b02488a7c39fa6b6743a7d6d5b0d5f2a820417fe014b2012cc6068"),
    (2, 8, 2): ((32, 1, 1), 264, "5e4e4aba60c98bbea8c5dabb1244cf41a032521065ef270096570214a50a7a38"),
    (1021, 1, 2): ((2, 0, 1), 1035, "e529f35db12bc3dd50cbe0036fe6ec43d3e9526d20f16075c7ece4d6c59c7391"),
    (3, 6, 2): ((3, 0, 1), 739, "64a901b250b12e2d4a345d7b9a3096ae078f523a8a98a410360c8e514cc545ce"),
}
PINNED_BASE_MODULI = {(2, 8, 2): (1, 1, 0, 1, 1, 0, 0, 0, 1), (3, 6, 2): (2, 1, 0, 0, 0, 0, 1)}


def _exp_sha(ctx):
    return hashlib.sha256(ctx._exp_np.astype("<i8").tobytes()).hexdigest()


@pytest.mark.parametrize("spec", list(PINNED), ids=str)
def test_construction_matches_pinned_outputs(spec):
    p, k, n = spec
    ctx = build_tower(p, k=k, n=n)
    assert (ctx.modulus, ctx.generator, _exp_sha(ctx)) == PINNED[spec]
    if spec in PINNED_BASE_MODULI:
        assert ctx.base.modulus == PINNED_BASE_MODULI[spec]


def test_cap_tower_builds_in_bounded_time(deadline, monkeypatch):
    """F_{(2^10)^2}, Q = 2^20 = the cap, built cold (memo caches emptied)."""
    monkeypatch.setattr(fields, "_prime_cache", {})
    monkeypatch.setattr(fields, "_ext_cache", {})
    with deadline(10.0):
        ctx = build_tower(2, k=10, n=2)
    n, g, exp = ctx.order - 1, ctx.generator, ctx._exp_np
    assert ctx.order == 1 << 20
    assert np.array_equal(np.sort(exp), np.arange(1, ctx.order))
    i = np.random.default_rng(0).integers(0, n, 1000)
    nxt = ctx._arr_mul_structural(exp[i], np.full(len(i), g, dtype=np.int64))
    assert np.array_equal(nxt, exp[(i + 1) % n])


def test_a_repeat_build_skips_the_modulus_search(deadline, monkeypatch):
    ctx = build_tower(2, k=10, n=2)
    calls = []
    real = fields.is_irreducible
    monkeypatch.setattr(fields, "is_irreducible", lambda *a: calls.append(a) or real(*a))
    with deadline(1.0):
        again = build_tower(2, k=10, n=2)
    assert again is ctx and calls == []
    # the default-modulus context is the one cached under its modulus
    assert fields.build_extension(ctx.base, 2, modulus=ctx.modulus) is ctx


def test_tables_are_built_with_the_context(f25):
    assert f25._exp_np is not None and f25._log_np is not None
    assert f25._exp[3] == f25._exp_np[3] and type(f25._exp[3]) is int
    assert f25.inv(f25._exp[5]) == f25._exp[19]
    assert [f25.element_order(x) for x in (1, f25.neg(1), f25.generator)] == [1, 2, 24]


def _zech_reference(ctx, ds):
    """Z[d] = log(1 + g^d) by scalar addition and the log table; the zero
    code Q-1 where the sum is 0."""
    n, one_plus = ctx.order - 1, (ctx.add(1, ctx._exp[d]) for d in ds)
    return [ctx._log[s] if s else n for s in one_plus]


@pytest.mark.parametrize("spec", [s for s in PINNED if s[0] > 2], ids=str)
def test_zech_table_matches_its_definition(spec):
    p, k, n = spec
    ctx = build_tower(p, k=k, n=n)
    zech, units = ctx._zech_np, ctx.order - 1
    assert zech.dtype == np.int32 and zech.shape == (units,)
    assert np.flatnonzero(zech == units).tolist() == [units // 2]
    if ctx.order <= 1 << 16:
        ds = range(units)
    else:  # a seeded sample, and the zero code's neighbours
        rng = random.Random(0)
        ds = [rng.randrange(units) for _ in range(4096)] + [units // 2 - 1, units // 2,
                                                            units // 2 + 1]
    assert zech[list(ds)].tolist() == _zech_reference(ctx, ds)


@pytest.mark.parametrize("spec", list(PINNED), ids=str)
def test_zech_table_exists_exactly_at_odd_characteristic(spec):
    # the characteristic alone decides: prime fields of odd p carry Z too
    p, k, n = spec
    assert (build_tower(p, k=k, n=n)._zech_np is None) == (p == 2)


def test_exp_over_the_log_codes_shares_the_exp_table(f25, f16):
    for ctx in (f25, f16):
        codes, n = ctx._exp_code_np, ctx.order - 1
        assert codes.shape == (ctx.order,) and codes[n] == 0
        assert np.shares_memory(codes, ctx._exp_np) and ctx._exp_np.shape == (n,)
        assert np.array_equal(codes[:n], ctx._exp_np)


def test_a_reducible_modulus_is_caught_by_the_table_check(f2):
    # t^2 + 1 = (t + 1)^2 over F_2: some powers of t hit zero divisors
    ctx = fields.ExtensionField(f2, 2, (1, 0, 1))
    with pytest.raises(ArithmeticError):
        ctx.ensure_tables()
