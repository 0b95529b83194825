"""Property and differential tests of the field arithmetic.

The bulk index-array operations are checked elementwise against the scalar
tower arithmetic (which recurses through the base fields), and prime-base
extensions are checked against sympy's galoistools.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from sympy import ZZ
from sympy.polys.galoistools import gf_irreducible_p, gf_mul, gf_rem

from ppf.fields import build_tower

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
    assert ctx._mul_structural(a, b) == ctx.encode(coords)
