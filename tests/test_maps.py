"""Composition machinery: the field/vector-space correspondence and its uses."""

import random

import numpy as np
import pytest

from ppf.errors import BadParams, ComponentNotPermutation, NotPermutation
from ppf.fields import (_from_digits, _to_digits, build_extension, build_prime_field, build_tower,
                        field_for_q_squared)
from ppf.linalg import Basis, dual_basis, eta_table, rho_table
from ppf.maps import (
    ComponentPerms,
    VectorMap,
    composition_equivalence_check,
    build_trace_composite,
    build_triangular_g,
    composition_conditions,
    compose_field_map,
    compose_corollary_vec,
    monomial_family,
    psi,
    psi_inverse,
)
from ppf.polys import FnTable, SparsePoly, monomial


def power_basis(ctx):
    return Basis(ctx, [ctx.base.order ** i for i in range(ctx.degree)])


def test_compose_field_map_identity_example(f9):
    v = power_basis(f9)
    a = v.dual()
    f = FnTable.identity(f9)
    g = VectorMap.identity(f9.base, 2)
    assert compose_field_map(f, v.elems, g, a.elems) == FnTable.identity(f9)


def test_compose_field_map_frobenius_cancellation(f9):
    v = power_basis(f9)
    a = v.dual()
    frob = monomial(f9, 3).to_table()
    g = VectorMap.identity(f9.base, 2)
    assert compose_field_map(frob, v.elems, g, a.elems) == frob


def test_compose_field_map_dependent_target(f9):
    v = power_basis(f9)
    g = VectorMap.identity(f9.base, 2)
    out = compose_field_map(FnTable.identity(f9), v.elems, g, [1, 1])
    assert not out.is_permutation()


def test_composition_conditions(f9):
    v = power_basis(f9)
    a = v.dual()
    g = VectorMap.identity(f9.base, 2)
    assert composition_conditions(f9, v.elems, a.elems, g) == (True, True, True)
    assert composition_conditions(f9, [1, 1], a.elems, g)[0] is False
    const = VectorMap(f9.base, 2, [0] * 9)
    assert composition_conditions(f9, v.elems, a.elems, const)[2] is False


def test_ast_equivalence_samples(f9):
    v = power_basis(f9)
    a = v.dual()
    ident = FnTable.identity(f9)
    g = VectorMap.identity(f9.base, 2)
    assert composition_equivalence_check(ident, v.elems, a.elems, g)
    # degenerate v with a permutation g: both sides false, equivalence true
    assert composition_equivalence_check(ident, [1, 2], a.elems, g)
    with pytest.raises(NotPermutation):
        composition_equivalence_check(monomial(f9, 4).to_table(), v.elems, a.elems, g)


def test_corollary_vec_identity_example(f9):
    v = power_basis(f9)
    a = v.dual()
    vm = compose_corollary_vec(v.elems, FnTable.identity(f9), a.elems)
    assert vm == VectorMap.identity(f9.base, 2)


def test_corollary_vec_non_pp():
    # x^3 over F_16/F_2 (n = 4): gcd(3, 15) = 3, not a PP
    f16_over_f2 = build_extension(build_prime_field(2), 4)
    v = power_basis(f16_over_f2)
    a = v.dual()
    cube = monomial(f16_over_f2, 3).to_table()
    assert not cube.is_permutation()
    vm = compose_corollary_vec(v.elems, cube, a.elems)
    assert not vm.is_permutation()


def test_corollary_vec_frobenius_pp(f4):
    v = power_basis(f4)
    a = v.dual()
    sq = monomial(f4, 2).to_table()
    assert compose_corollary_vec(v.elems, sq, a.elems).is_permutation()


def test_build_trace_composite_identity(f9):
    v = power_basis(f9)
    a = v.dual()
    ident = monomial(f9.base, 1)
    F = build_trace_composite(monomial(f9, 1), ComponentPerms((ident, ident)), v.elems, a.elems)
    assert F == monomial(f9, 1)


def test_build_trace_composite_oracle_sweep_f25(f25):
    rng = random.Random(11)
    h = monomial(f25.base, 3)    # x^3 permutes F_5 (gcd(3,4) = 1)
    comps = ComponentPerms((h, h))
    bases = [(v1, v2) for v1 in range(1, 25) for v2 in range(1, 25)
             if v2 != v1 and rng.random() < 0.02]
    from ppf.linalg import is_linearly_independent
    for v in bases[:10]:
        for a in bases[:5]:
            F = build_trace_composite(monomial(f25, 1), comps, v, a)
            cond = (is_linearly_independent(f25, v)
                    and is_linearly_independent(f25, a))
            assert F.to_table().is_permutation() == cond


def test_build_trace_composite_symbolic_matches_pointwise(f9):
    rng = random.Random(12)
    for _ in range(30):
        v = [rng.randrange(1, 9), rng.randrange(1, 9)]
        a = [rng.randrange(1, 9), rng.randrange(1, 9)]
        hs = tuple(SparsePoly(f9.base, [(rng.randrange(1, 4), rng.randrange(1, 3)),
                                        (0, rng.randrange(0, 3))]) for _ in range(2))
        F = build_trace_composite(monomial(f9, 1), ComponentPerms(hs), v, a)
        h_tabs = [h.to_table().values for h in hs]
        expected = np.zeros(9, dtype=np.int64)
        xs = f9.all_indices()
        for vi, ai, ht in zip(v, a, h_tabs):
            tr = f9.arr_trace(f9.arr_scale(xs, vi))
            expected = f9.arr_add(expected, f9.arr_scale(ht[tr], ai))
        assert np.array_equal(F.to_table().values, expected)


def test_triangular_maps(f9):
    base = f9.base
    ident = monomial(base, 1)
    prod = build_triangular_g(base, ComponentPerms((ident, ident)))
    assert prod == VectorMap.identity(base, 2)
    shifted = build_triangular_g(
        base, ComponentPerms((ident, ident), (None, lambda xs: base.mul(xs[0], xs[0]))))
    assert shifted.is_permutation()
    with pytest.raises(ComponentNotPermutation):
        build_triangular_g(base, ComponentPerms((monomial(base, 2), ident)))


@pytest.mark.parametrize("q", [3, 5])
def test_triangular_always_permutes(q):
    ctx = field_for_q_squared(q)
    base = ctx.base
    rng = random.Random(100 + q)
    pps = [p for p in (monomial(base, e) for e in range(1, q))
           if p.to_table().is_permutation()]
    for _ in range(100):
        hs = (rng.choice(pps), rng.choice(pps))
        shift_table = [rng.randrange(q) for _ in range(q)]
        comps = ComponentPerms(hs, (None, lambda xs: shift_table[xs[0]]))
        assert build_triangular_g(base, comps).is_permutation()


def test_monomial_family(f25, f49):
    v = power_basis(f25)
    a = v.dual()
    poly, predicted = monomial_family(monomial(f25, 1), [3, 3], v.elems, a.elems)
    assert predicted is True                      # gcd(9, 4) = 1
    assert poly.to_table().is_permutation()
    poly, predicted = monomial_family(monomial(f25, 1), [1, 1], v.elems, a.elems)
    assert predicted is True and poly.to_table().is_permutation()
    v7 = power_basis(f49)
    a7 = v7.dual()
    poly, predicted = monomial_family(monomial(f49, 1), [3, 1], v7.elems, a7.elems)
    assert predicted is False                     # gcd(3, 6) = 3
    assert not poly.to_table().is_permutation()
    with pytest.raises(NotPermutation):
        monomial_family(monomial(f25, 3), [1, 1], v.elems, a.elems)


def test_psi_identity_and_structure(f4):
    v = power_basis(f4)
    assert psi(v.elems, VectorMap.identity(f4.base, 2), f4) == FnTable.identity(f4)
    rng = random.Random(13)
    for _ in range(100):
        g1 = VectorMap.random_map(f4.base, 2, rng)
        g2 = VectorMap.random_map(f4.base, 2, rng)
        p1, p2 = psi(v.elems, g1, f4), psi(v.elems, g2, f4)
        assert psi(v.elems, g1.compose(g2), f4) == p1.compose(p2)
        lin = psi(v.elems, g1.pointwise_add(g2), f4)
        assert np.array_equal(lin.values, f4.arr_add(p1.values, p2.values))
        assert psi_inverse(v.elems, p1) == g1


def test_psi_injective_on_sample(f4):
    v = power_basis(f4)
    rng = random.Random(14)
    seen = {}
    for _ in range(200):
        g = VectorMap.random_map(f4.base, 2, rng)
        key = psi(v.elems, g, f4).values.tobytes()
        if key in seen:
            assert seen[key] == g.table.tobytes()
        seen[key] = g.table.tobytes()


def test_composition_conditions_refuse_indices_out_of_range(f25):
    g = VectorMap.identity(f25.base, 2)
    for v in ([-1, 1], [30, 1]):
        with pytest.raises(BadParams, match="out of range for F_25"):
            composition_conditions(f25, v, [1, 5], g)
        with pytest.raises(BadParams, match="out of range for F_25"):
            compose_field_map(FnTable.identity(f25), [1, 5], g, v)


def test_psi_scaling_linear(f9):
    v = power_basis(f9)
    rng = random.Random(15)
    for _ in range(50):
        g = VectorMap.random_map(f9.base, 2, rng)
        c = rng.randrange(1, 3)
        lhs = psi(v.elems, g.pointwise_scale(c), f9)
        rhs = f9.arr_scale(psi(v.elems, g, f9).values, c)
        assert np.array_equal(lhs.values, rhs)


@pytest.mark.parametrize("p, k, n", [(2, 1, 3), (2, 2, 2), (3, 1, 3), (3, 2, 2), (5, 1, 2),
                                     (2, 3, 2)])
def test_pointwise_add_is_coordinatewise_base_addition(p, k, n):
    base = build_tower(p, k=k)
    q, rng = base.order, random.Random(p * 100 + k * 10 + n)
    g1 = VectorMap.random_map(base, n, rng)
    g2 = VectorMap.random_map(base, n, rng)
    expected = [_from_digits([base.add(x, y) for x, y in
                              zip(_to_digits(s, q, n), _to_digits(t, q, n))], q)
                for s, t in zip(g1.table.tolist(), g2.table.tolist())]
    assert g1.pointwise_add(g2).table.tolist() == expected


@pytest.mark.parametrize("table", [[0, 1, 2, 7], [0, 1, 2, -1], [4, 1, 2, 3]])
def test_vector_map_entries_out_of_range_raise(f2, table):
    # [0, 1, 2, 7] has no repeated value, but 7 is not a vector of F_2^2;
    # the map is refused when it is built, before any gather can use it
    with pytest.raises(BadParams, match=r"\[0, 4\)"):
        VectorMap(f2, 2, table)


def test_vector_map_owns_its_table(f2):
    arr = np.array([3, 2, 1, 0])
    g = VectorMap(f2, 2, arr)
    arr[0] = -1
    assert VectorMap.identity(f2, 2).compose(g).table.tolist() == [3, 2, 1, 0]
    with pytest.raises(ValueError, match="read-only"):
        g.table[0] = 7
    assert g.is_permutation()


@pytest.mark.parametrize("p, k, n", [(2, 2, 2), (3, 1, 3), (5, 1, 2), (3, 2, 2)])
def test_pointwise_scale_is_coordinatewise_base_scaling(p, k, n):
    base = build_tower(p, k=k)
    q, rng = base.order, random.Random(p * 100 + k * 10 + n)
    g = VectorMap.random_map(base, n, rng)
    for c in (0, 1, base.order - 1, rng.randrange(base.order)):
        expected = [_from_digits([base.mul(c, x) for x in _to_digits(t, q, n)], q)
                    for t in g.table.tolist()]
        assert g.pointwise_scale(c).table.tolist() == expected
