"""Family constructors, tabulated conditions, sweeps, and the cross-checks.

The q = 2 (mod 3) families and family 1 verify cleanly; the q = 1 (mod 3)
families 2-4 are genuinely refuted by the oracle (the order-3 element is
not a (q-1)-th power there), so their exact disagreement profiles are
frozen as regressions.
"""

import itertools
from math import gcd
import random
from collections import Counter

import pytest

from ppf.errors import (
    BadCongruence,
    BadKind,
    BadModulusClass,
    BadParams,
    EpsilonDomain,
    ZeroElement,
)
from ppf import families
from ppf.families import (
    EpsilonSpec,
    FamilyParams,
    applicable_families,
    check_family,
    construct_family,
    two_trace_check,
    eps_base,
    eps_ext,
    example_polys,
    field_for_q_squared,
    lappano_check,
    trace_identity_check,
    ns_condition,
    pentanomial_identity_check,
    sweep_families,
    VariantColumns,
)
from ppf.fields import build_tower
from ppf.polys import SparsePoly, monomial

from conftest import params_from_report, reports


def mu_index(ctx, x):
    return ctx.subgroup_mu(ctx.base.order + 1).index(x)


# -- construction -------------------------------------------------------------


def test_construct_matches_printed_trinomial(f25):
    # with beta = -alpha, eps = 1, m = n = 3 the construction is exactly
    # twice the printed trinomial x^3 + 3 a^2 x^(1+2q)
    mu = f25.subgroup_mu(6)
    for ai, alpha in enumerate(mu):
        bi = mu.index(f25.neg(alpha))
        p = FamilyParams(1, 5, 3, 3, eps_ext(1), ai, bi)
        assert construct_family(f25, p) == example_polys(f25, "tri3", ai).scale(2)


def test_construct_matches_printed_pentanomial_deg5(f49):
    mu = f49.subgroup_mu(8)
    ai = 1
    bi = mu.index(f49.neg(mu[ai]))
    p = FamilyParams(1, 7, 5, 5, eps_ext(1), ai, bi)
    assert construct_family(f49, p) == example_polys(f49, "tri5", ai).scale(2)


def test_construct_matches_printed_quadrinomial_deg7():
    # on F_9 the printed exponents exceed Q-1, so compare canonical forms
    ctx = field_for_q_squared(3)
    mu = ctx.subgroup_mu(4)
    for ai in range(4):
        bi = mu.index(ctx.neg(mu[ai]))
        p = FamilyParams(1, 3, 7, 7, eps_ext(1), ai, bi)
        printed = example_polys(ctx, "quad7", ai)
        assert construct_family(ctx, p) == printed.scale(2).reduce()


def test_construct_linear_case(f25):
    # m = n = 1 needs no expansion: (1+eps) x + (alpha + eps*beta) x^q
    mu = f25.subgroup_mu(6)
    eps = 7
    p = FamilyParams(1, 5, 1, 1, eps_ext(eps), 1, 2)
    expected = SparsePoly(f25, [
        (1, f25.add(1, eps)),
        (5, f25.add(mu[1], f25.mul(eps, mu[2]))),
    ])
    assert construct_family(f25, p) == expected


def test_construct_validates(f25):
    with pytest.raises(BadParams):
        construct_family(f25, FamilyParams(1, 5, 1, 1, eps_ext(1), 2, 2))
    with pytest.raises(BadModulusClass):
        construct_family(f25, FamilyParams(2, 5, 1, 1, eps_base(1)))
    with pytest.raises(EpsilonDomain):
        construct_family(f25, FamilyParams(5, 5, 1, 1, eps_ext(6)))
    with pytest.raises(EpsilonDomain):
        FamilyParams(5, 5, 1, 1, eps_base(0))
    with pytest.raises(EpsilonDomain):
        EpsilonSpec("plus_omega").resolve(f25, 0)  # no order-3 element supplied


@pytest.mark.parametrize("value", [-1, 16, 10 ** 6])
@pytest.mark.parametrize("entry", [check_family, ns_condition, construct_family])
def test_family1_refuses_an_epsilon_outside_the_field(f16, entry, value):
    # -1 used to be read as index 15 and 16 or 10^6 ended in an IndexError
    with pytest.raises(EpsilonDomain, match="nonzero element"):
        entry(f16, FamilyParams(1, 4, 1, 1, eps_ext(value), 0, 1))


def test_char2_sign_collapse():
    ctx = field_for_q_squared(4)
    for m, n in [(1, 2), (3, 1)]:
        for eps in range(1, 4):
            p3 = construct_family(ctx, FamilyParams(3, 4, m, n, eps_base(eps)))
            p4 = construct_family(ctx, FamilyParams(4, 4, m, n, eps_base(eps)))
            assert p3 == p4
        plus = construct_family(ctx, FamilyParams(2, 4, m, n, eps_base(1), sign=1))
        minus = construct_family(ctx, FamilyParams(2, 4, m, n, eps_base(1), sign=-1))
        assert plus == minus
    ctx2 = field_for_q_squared(2)
    p5 = construct_family(ctx2, FamilyParams(5, 2, 2, 3, eps_base(1)))
    p6 = construct_family(ctx2, FamilyParams(6, 2, 2, 3, eps_base(1)))
    assert p5 == p6


# -- conditions ----------------------------------------------------------------


def test_ns_condition_family1(f25, f49):
    mu = f25.subgroup_mu(6)
    ai = 1
    bi = mu.index(f25.neg(mu[ai]))
    # gcd(9, 4) = 1 and alpha^3 != -alpha^3 in odd characteristic
    assert ns_condition(f25, FamilyParams(1, 5, 3, 3, eps_ext(1), ai, bi))
    # q = 7: gcd(3, 6) = 3
    assert not ns_condition(f49, FamilyParams(1, 7, 3, 3, eps_ext(1), 0, 1))


def test_ns_condition_families_2_to_4(f49):
    assert not ns_condition(f49, FamilyParams(3, 7, 4, 2, eps_base(1)))  # gcd(8,6)=2
    assert ns_condition(f49, FamilyParams(3, 7, 1, 1, eps_base(1)))      # 3 | (1-2) false
    assert not ns_condition(f49, FamilyParams(3, 7, 5, 1, eps_base(1)))  # 3 | (5-2)
    assert ns_condition(f49, FamilyParams(4, 7, 5, 1, eps_base(1)))      # no 3 | m-2n clause
    assert ns_condition(f49, FamilyParams(2, 7, 1, 1, eps_base(1), sign=-1))


def test_ns_condition_family5_epsilon_cases(f25):
    # eps in F_q*: needs 3 not dividing n
    assert not ns_condition(f25, FamilyParams(5, 5, 1, 3, eps_base(1)))
    assert ns_condition(f25, FamilyParams(5, 5, 1, 1, eps_base(1)))
    # eps = +-w: needs n != 1 (mod 3)
    assert not ns_condition(f25, FamilyParams(5, 5, 1, 4, EpsilonSpec("plus_omega")))
    assert not ns_condition(f25, FamilyParams(5, 5, 1, 4, EpsilonSpec("minus_omega")))
    assert ns_condition(f25, FamilyParams(5, 5, 1, 3, EpsilonSpec("plus_omega")))
    # eps = +-w^2: needs n != 2 (mod 3)
    assert not ns_condition(f25, FamilyParams(5, 5, 1, 5, EpsilonSpec("plus_omega_sq")))
    assert ns_condition(f25, FamilyParams(5, 5, 1, 7, EpsilonSpec("minus_omega_sq")))


def test_ns_condition_family7_cases(f25):
    assert not ns_condition(f25, FamilyParams(7, 5, 3, 3, eps_base(2)))  # 3 | m-n
    assert ns_condition(f25, FamilyParams(7, 5, 3, 1, eps_base(2)))
    assert not ns_condition(f25, FamilyParams(7, 5, 3, 1, EpsilonSpec("plus_omega")))
    assert not ns_condition(f25, FamilyParams(7, 5, 1, 3, EpsilonSpec("plus_omega_sq")))  # 3 | 2+1-3
    assert ns_condition(f25, FamilyParams(7, 5, 1, 1, EpsilonSpec("plus_omega_sq")))


def test_even_q_minus_families_inherit_plus_conditions():
    ctx = field_for_q_squared(4)
    # family 4 at q = 4 redirects to family 3's condition: 3 | (1 - 4)
    assert not ns_condition(ctx, FamilyParams(4, 4, 1, 2, eps_base(1)))
    ctx8 = field_for_q_squared(8)
    # family 6 at q = 8 redirects to family 5's: eps in F_q* needs 3 not | n
    assert not ns_condition(ctx8, FamilyParams(6, 8, 1, 3, eps_base(1)))
    assert ns_condition(ctx8, FamilyParams(6, 8, 1, 1, eps_base(1)))
    # family 8 at q = 8 redirects to family 7's
    assert not ns_condition(ctx8, FamilyParams(8, 8, 1, 1, eps_base(1)))


# -- single checks and sweeps ----------------------------------------------------


def test_check_family_agreements(f25, f49):
    mu = f25.subgroup_mu(6)
    ai = 1
    bi = mu.index(f25.neg(mu[ai]))
    rep = check_family(f25, FamilyParams(1, 5, 3, 3, eps_ext(1), ai, bi))
    assert rep.agree and rep.predicted and rep.oracle and rep.witness is None
    rep = check_family(f49, FamilyParams(1, 7, 3, 3, eps_ext(1), 0, 1))
    assert rep.agree and not rep.predicted and not rep.oracle
    assert rep.witness is not None


def test_known_counterexample_family2_q7(f49):
    """The gcd-only condition fails at q = 7: with eps = 2w the composite
    linear map (1+eps) x + (1+eps w) x^q has kernel x^6 = 1."""
    w = f49.order3_element()
    rep = check_family(f49, FamilyParams(2, 7, 1, 1, eps_base(f49.mul(2, w))))
    assert rep.predicted and not rep.oracle and not rep.agree


def test_family4_q7_mixed_verdicts(f49):
    """Some gcd-satisfying family-4 instances permute, others do not."""
    ok = check_family(f49, FamilyParams(4, 7, 1, 1, eps_base(1)))
    assert ok.agree and ok.oracle
    bad = check_family(f49, FamilyParams(4, 7, 1, 5, eps_base(1)))
    assert bad.predicted and not bad.oracle


def test_applicable_families():
    assert applicable_families(7) == [1, 2, 3, 4]
    assert applicable_families(8) == [1, 5, 6, 7, 8]
    assert applicable_families(9) == [1]


def test_sweep_clean_families(f25):
    res = sweep_families([5], 4, 4, families=[1, 5, 6, 7, 8], seed=0)
    assert res.disagreements == 0
    assert not res.errors
    assert res.instances > 0


def test_sweep_frozen_disagreements_q7():
    res = sweep_families([7], 4, 4, families=[2, 3, 4], seed=0)
    assert res.instances == 768
    assert res.disagreements == 24
    by_family = Counter(r.family for r in res.disagreeing())
    assert by_family == {2: 12, 3: 4, 4: 8}


def test_sweep_frozen_disagreements_q4():
    res = sweep_families([4], 4, 4, families=[2, 3, 4], seed=0)
    assert res.instances == 384
    assert res.disagreements == 56
    assert Counter(r.family for r in res.disagreeing()) == {2: 36, 3: 10, 4: 10}


def test_sweep_records_bad_family_requests():
    res = sweep_families([9], 2, 2, families=[2, 3, 4], seed=0)
    assert res.instances == 0
    assert [e["error"] for e in res.errors] == ["BadModulusClass"] * 3


def test_sweep_epsilon_sampling_deterministic():
    # family 1 at q = 11 samples 10 epsilons out of 120, so the seed matters
    r1 = sweep_families([11], 1, 1, families=[1], seed=3)
    r2 = sweep_families([11], 1, 1, families=[1], seed=3)
    assert [r.to_json() for r in reports(r1)] == [r.to_json() for r in reports(r2)]
    r3 = sweep_families([11], 1, 1, families=[1], seed=4)
    assert [r.to_json() for r in reports(r3)] != [r.to_json() for r in reports(r1)]


def test_sweep_workers_match_serial():
    serial = sweep_families([5], 3, 3, families=[5, 7], seed=0, workers=1)
    parallel = sweep_families([5], 3, 3, families=[5, 7], seed=0, workers=2)
    assert all(isinstance(v, VariantColumns) for v in parallel.variants)  # workers send columns
    assert [r.to_json() for r in reports(serial)] == [r.to_json() for r in reports(parallel)]


def test_report_round_trip_reproduces_verdict():
    res = sweep_families([5], 2, 2, families=[1, 7], seed=0)
    for rep in reports(res)[:40]:
        record = rep.to_json()
        params = params_from_report(record)
        again = check_family(field_for_q_squared(record["q"]), params)
        assert again.predicted == record["predicted"]
        assert again.oracle == record["oracle"]


# -- worked examples -------------------------------------------------------------


def test_example_polys_tri3_oracle(f25):
    # q = 5: gcd(3, 4) = 1, a PP for every alpha in mu_6
    for ai in range(6):
        assert example_polys(f25, "tri3", ai).to_table().is_permutation()


def test_example_polys_tri3_q7_never_permutes(f49):
    for ai in range(8):
        assert not example_polys(f49, "tri3", ai).to_table().is_permutation()


def test_example_polys_quad7_q3():
    ctx = field_for_q_squared(3)
    for ai in range(4):
        assert example_polys(ctx, "quad7", ai).to_table().is_permutation()


def test_example_polys_pqrs(f25):
    # (Q,R,S) = (1,1,1) triples the trinomial: equals 2^-1 * construct at m=n=3
    mu = f25.subgroup_mu(6)
    for ai in range(6):
        p = example_polys(f25, "pqrs", ai, pqrs=(1, 1, 1))
        bi = mu.index(f25.neg(mu[ai]))
        constructed = construct_family(f25, FamilyParams(1, 5, 3, 3, eps_ext(1), ai, bi))
        assert p.scale(2) == constructed
    with pytest.raises(BadKind):
        example_polys(f25, "pqrs", 0, pqrs=(1, 2, 1))
    with pytest.raises(BadKind):
        example_polys(f25, "nope", 0)


@pytest.mark.parametrize("alpha_idx, beta_idx", [(6, 1), (100, 1), (-1, 5), (0, 6)])
def test_family1_mu_indices_in_range(f25, alpha_idx, beta_idx):
    # mu_6 has indices 0..5; -1 would wrap to mu[5] and make alpha = beta
    with pytest.raises(BadParams):
        check_family(f25, FamilyParams(1, 5, 1, 1, eps_ext(2), alpha_idx, beta_idx))


@pytest.mark.parametrize("alpha_idx", [6, 99, -1])
def test_mu_index_in_range_for_examples_and_twisted_pentanomials(f25, alpha_idx):
    with pytest.raises(BadParams):
        example_polys(f25, "tri3", alpha_idx)
    with pytest.raises(BadParams):
        pentanomial_identity_check(f25, 1, 1, 1, "twisted", alpha_idx=alpha_idx)
    assert pentanomial_identity_check(f25, 1, 1, 1, "twisted", alpha_idx=5).ok


# -- cross-checks ------------------------------------------------------------------


def test_lappano_q5(f25):
    # (i): a = 1, q = 1 (mod 4); (ii): a = 1/3 = 2, q = -1 (mod 6)
    assert lappano_check(f25, 1) == (True, True)
    assert lappano_check(f25, 2) == (True, True)
    for a in range(1, 5):
        predicted, oracle = lappano_check(f25, a)
        assert predicted == oracle
    with pytest.raises(ZeroElement):
        lappano_check(f25, 0)


def test_lappano_q7(f49):
    # 1/3 = 5 (mod 7); none of the three cases applies to a = 3
    assert lappano_check(f49, 3) == (False, False)
    for a in range(1, 7):
        predicted, oracle = lappano_check(f49, a)
        assert predicted == oracle


def test_lappano_q13_known_defect():
    """Case (i) fails when also q = 1 (mod 3): x -> lambda x with lambda of
    order 3 in F_q fixes a x^3 + x^(1+2q) pointwise, so it never permutes."""
    ctx = field_for_q_squared(13)
    disagreements = [a for a in range(1, 13)
                     if lappano_check(ctx, a)[0] != lappano_check(ctx, a)[1]]
    assert disagreements == [1]
    assert lappano_check(ctx, 1) == (True, False)


def test_pentanomial_q5_all_good(f25):
    r = pentanomial_identity_check(f25, 1, 1, 1, "z1")
    assert r.exponent == 3 and r.identity_ok and r.predicted and r.oracle and r.ok
    r = pentanomial_identity_check(f25, 5, 1, 1, "twisted", alpha_idx=3)
    assert r.identity_ok and r.ok
    r = pentanomial_identity_check(f25, 1, 5, 1, "z1qr")
    assert r.exponent == 1 + 5 * 5 + 1 and r.ok


def test_pentanomial_q7_not_instantiable_identity(f49):
    # q = 1 (mod 3): no a with a^(q-1) = w, so only expansion + gcd checks run
    r = pentanomial_identity_check(f49, 1, 1, 1, "z1")
    assert r.identity_ok is None
    assert not r.predicted and not r.oracle and r.ok   # gcd(3,6)=3, agree


def test_pentanomial_q4_known_defect():
    ctx = field_for_q_squared(4)
    r = pentanomial_identity_check(ctx, 1, 2, 2, "z1")
    assert r.exponent == 5 and r.predicted and not r.oracle and not r.ok
    r = pentanomial_identity_check(ctx, 2, 1, 1, "z1")
    assert r.exponent == 4 and r.gcd_ok and r.ok       # agrees here


def test_pentanomial_validation(f25, f49):
    with pytest.raises(BadParams):
        pentanomial_identity_check(f25, 2, 1, 1, "z1")  # 2 not a power of 5
    with pytest.raises(BadCongruence):
        pentanomial_identity_check(f49, 1, 1, 1, "twisted")
    with pytest.raises(BadKind):
        pentanomial_identity_check(f25, 1, 1, 1, "zz")


def test_trace_identities_q5(f25):
    for part in (1, 2, 3, 5, 7):
        rep = trace_identity_check(f25, part)
        assert rep.ok and rep.admissible_count > 0
    with pytest.raises(BadCongruence):
        trace_identity_check(f25, 4)


def test_trace_identities_q7_vacuous(f49):
    """For q = 1 (mod 3) the premises a^(q-1) in {w, -w, w^2, -w^2} have no
    solutions, so parts 2, 3, 4, 6 hold vacuously."""
    for part in (2, 3, 4, 6):
        rep = trace_identity_check(f49, part)
        assert rep.ok and rep.admissible_count == 0
    rep = trace_identity_check(f49, 1)
    assert rep.ok and rep.admissible_count == 8 * 6
    with pytest.raises(BadCongruence):
        trace_identity_check(f49, 5)


def test_trace_identity_alpha_outside_mu_raises(f25):
    # an explicit alpha outside mu_{q+1} has no admissible a: an error, not
    # a vacuous pass
    for alpha in (f25.generator, 2, 0, f25.order):
        with pytest.raises(BadParams, match="not in mu_6"):
            trace_identity_check(f25, 1, alpha=alpha)
    mu = f25.subgroup_mu(6)
    rep = trace_identity_check(f25, 1, alpha=mu[1])
    assert rep.ok and rep.admissible_count == 4
    with pytest.raises(BadParams, match="part 1 only"):
        trace_identity_check(f25, 2, alpha=mu[1])


def two_trace_reference(ctx, a1, a2, b1, b2, g1, g2):
    """(predicted, oracle, witness) by scalar trace and polynomial evaluation."""
    q = ctx.base.order

    def independent(u, v):
        return bool(u and v) and not ctx.in_base(ctx.div(v, u))

    def permutes(g):
        return len({g.eval(y) for y in range(q)}) == q

    vals = [ctx.add(ctx.mul(b1, g1.eval(ctx.trace(ctx.mul(a1, x)))),
                    ctx.mul(b2, g2.eval(ctx.trace(ctx.mul(a2, x)))))
            for x in range(ctx.order)]
    predicted = (independent(a1, a2) and independent(b1, b2)
                 and permutes(g1) and permutes(g2))
    repeated = [v for v in sorted(set(vals)) if vals.count(v) > 1]
    witness = None
    if repeated:
        x1 = vals.index(repeated[0])
        witness = [ctx.format_idx(x1), ctx.format_idx(vals.index(repeated[0], x1 + 1))]
    return predicted, not repeated, witness


def _random_base_poly(base, rng):
    if rng.random() < 0.5:   # a permutation monomial
        k = rng.choice([k for k in range(1, base.order) if gcd(k, base.order - 1) == 1])
        return monomial(base, k, rng.randrange(1, base.order))
    return SparsePoly(base, [(rng.randrange(base.order + 2), rng.randrange(base.order))
                             for _ in range(rng.randrange(1, 4))])


@pytest.mark.parametrize("fixture", ["f9", "f16", "f25"])
def test_two_trace_matches_scalar_reference(request, fixture):
    ctx = request.getfixturevalue(fixture)
    q, rng = ctx.base.order, random.Random(ctx.order)
    for trial in range(40):
        a1, a2, b1, b2 = (rng.randrange(ctx.order) for _ in range(4))
        if trial % 4 == 1:      # a zero in one pair, or in both
            a2, b1 = 0, (0 if trial % 8 == 1 else b1)
        elif trial % 4 == 2:    # dependent pairs
            a2, b2 = ctx.mul(rng.randrange(1, q), a1), ctx.mul(rng.randrange(1, q), b1)
        g1, g2 = _random_base_poly(ctx.base, rng), _random_base_poly(ctx.base, rng)
        assert (two_trace_check(ctx, a1, a2, b1, b2, g1, g2)
                == two_trace_reference(ctx, a1, a2, b1, b2, g1, g2))


def test_two_trace_needs_a_quadratic_extension():
    f27 = build_tower(3, n=3)
    x = monomial(f27.base, 1)
    with pytest.raises(BadParams, match="degree 3"):
        two_trace_check(f27, 1, 3, 1, 3, x, x)


def test_pentanomial_checks_its_binomial_expansion(f25, monkeypatch):
    expand = families.expand_linear_power
    monkeypatch.setattr(families, "expand_linear_power",
                        lambda ctx, c, d, e: expand(ctx, c, d, e) + monomial(ctx, 0, 1))
    with pytest.raises(ArithmeticError, match="binomial expansion disagrees"):
        pentanomial_identity_check(f25, 1, 1, 1, "z1")


def test_two_trace_composites(f9, f25):
    t9 = 3  # the adjoined root of F_9
    x3 = monomial(f9.base, 1)
    assert two_trace_check(f9, 1, t9, 1, t9, x3, x3) == (True, True, None)
    sq = monomial(f9.base, 2)   # not a PP of F_3
    predicted, oracle, witness = two_trace_check(f9, 1, t9, 1, t9, sq, x3)
    assert not predicted and not oracle and witness is not None
    x5 = monomial(f25.base, 1)
    predicted, oracle, witness = two_trace_check(f25, 1, 5, 7, f25.mul(2, 7), x5, x5)  # b2 = 2 b1
    assert not predicted and not oracle
    assert witness is not None
