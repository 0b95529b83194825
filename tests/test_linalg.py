"""Coordinates, independence, dual bases, the two homomorphisms, kernels."""

import functools
import itertools

import numpy as np
import pytest

from ppf.errors import BadParams, DimensionMismatch, NotABasis, SingularGram
from ppf.fields import build_tower, field_for_q_squared
from ppf.linalg import (
    Basis,
    _reduce,
    _solve_all,
    dual_basis,
    eta,
    eta_inverse,
    eta_table,
    is_linearly_independent,
    kernel_of_trace_maps,
    rho,
    rho_inverse,
    rho_table,
)


def all_bases(ctx):
    for v1 in range(1, ctx.order):
        for v2 in range(1, ctx.order):
            if is_linearly_independent(ctx, [v1, v2]):
                yield (v1, v2)


def test_coords_round_trip(f16, f25):
    assert f25.decode(0) == [0, 0]
    t_idx = 5  # the adjoined root has index q in the little-endian encoding
    assert f25.decode(t_idx) == [0, 1]
    for x in range(16):
        assert f16.encode(f16.decode(x)) == x


def test_independence_basics(f25):
    assert is_linearly_independent(f25, [1, 5])          # {1, t}
    for c in range(1, 5):
        assert not is_linearly_independent(f25, [7, f25.mul(7, c)])
    assert is_linearly_independent(f25, [])              # convention
    assert not is_linearly_independent(f25, [0])
    assert not is_linearly_independent(f25, [1, 2, 3])   # more than n


@pytest.mark.parametrize("q", [3, 4, 5])
def test_independence_matches_ratio_criterion(q):
    ctx = field_for_q_squared(q)
    for a1 in range(1, ctx.order):
        for a2 in range(1, ctx.order):
            ratio = ctx.pow(ctx.div(a2, a1), q - 1)
            assert is_linearly_independent(ctx, [a1, a2]) == (ratio != 1)


def test_dual_basis_involution_all_f9(f9):
    count = 0
    for v in all_bases(f9):
        count += 1
        b = Basis(f9, v)
        d = b.dual()
        gram = [[f9.trace(f9.mul(vi, uj)) for uj in d.elems] for vi in b.elems]
        assert gram == [[1, 0], [0, 1]]
        assert dual_basis(f9, d.elems).elems == b.elems
    assert count == 48


def test_self_dual_basis_f4(f4):
    # {w, w^2} has trace Gram identity over F_2
    b = Basis(f4, [2, 3])
    assert b.dual().elems == b.elems


def test_dual_basis_errors(f9):
    with pytest.raises(SingularGram):
        dual_basis(f9, [1, 2])      # 2 = 2*1: dependent
    with pytest.raises(DimensionMismatch):
        dual_basis(f9, [1])
    with pytest.raises(NotABasis):
        Basis(f9, [1, 1])


def test_rho_basics(f9):
    v = [1, 3]
    assert rho(f9, v, 0) == (0, 0)
    # F_q-linearity, exhaustive
    for c in range(3):
        for x in range(9):
            for y in range(9):
                lhs = rho(f9, v, f9.add(f9.mul(c, x), y))
                rx, ry = rho(f9, v, x), rho(f9, v, y)
                rhs = tuple(f9.base.add(f9.base.mul(c, rx[i]), ry[i]) for i in range(2))
                assert lhs == rhs


def test_rho_with_dual_of_power_basis_is_coords(f25):
    power = Basis(f25, [1, 5])
    v = power.dual()
    for x in range(25):
        assert rho(f25, v.elems, x) == tuple(f25.decode(x))


def test_rho_inverse_contract(f16):
    import random
    rng = random.Random(9)
    bases = [b for b in all_bases(f16)]
    for v in rng.sample(bases, 20):
        u = dual_basis(f16, v)
        for x in range(16):
            assert rho_inverse(f16, v, rho(f16, v, x)) == x
        for i in range(2):
            e_i = tuple(1 if j == i else 0 for j in range(2))
            assert rho_inverse(f16, v, e_i) == u.elems[i]
        assert rho_inverse(f16, v, (0, 0)) == 0


def test_eta_basics(f4, f25):
    a = [2, 3]
    assert eta(f4, a, (1, 0)) == 2 and eta(f4, a, (0, 1)) == 3
    # dependent set is non-injective: exhibit a collision over F_4
    dep = [1, 1]
    images = {}
    collision = None
    for xs in itertools.product(range(2), repeat=2):
        y = eta(f4, dep, xs)
        if y in images:
            collision = (images[y], xs)
        images[y] = xs
    assert collision is not None
    # power-basis eta inverts coords
    for x in range(25):
        assert eta(f25, [1, 5], f25.decode(x)) == x


def test_eta_inverse_contract(f9):
    for a in all_bases(f9):
        for xs in itertools.product(range(3), repeat=2):
            assert eta_inverse(f9, a, eta(f9, a, xs)) == xs
        assert eta_inverse(f9, a, 0) == (0, 0)
        assert eta_inverse(f9, a, a[0]) == (1, 0)


@pytest.mark.parametrize("cand", [[30, 1], [-1, 1], [1, 25]])
def test_element_indices_out_of_range_raise(f25, cand):
    # -1 would otherwise alias 24 through the log table, and 25 or 30 read
    # past its end
    for fn in (is_linearly_independent, rho_table, eta_table, kernel_of_trace_maps,
               Basis, dual_basis):
        with pytest.raises(BadParams, match="out of range for F_25"):
            fn(f25, cand)
    for x in (-1, 25):
        with pytest.raises(BadParams):
            rho(f25, [1, 5], x)
    with pytest.raises(BadParams):
        eta(f25, [1, 5], (5, 0))    # coordinates are base-field indices


def test_kernel_of_trace_maps(f9):
    assert kernel_of_trace_maps(f9, [1, 3]) == [0]
    assert len(kernel_of_trace_maps(f9, [3, 6])) == 3     # rank 1 -> q
    assert len(kernel_of_trace_maps(f9, [0])) == 9        # zero map
    # dimension property over all candidate pairs of F_4 and F_9
    for ctx in (field_for_q_squared(2), f9):
        q = ctx.base.order
        for v1 in range(ctx.order):
            for v2 in range(ctx.order):
                rank = (0 if (v1 == 0 and v2 == 0)
                        else 2 if is_linearly_independent(ctx, [v1, v2]) else 1)
                assert len(kernel_of_trace_maps(ctx, [v1, v2])) == q ** (2 - rank)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_trace_forms_exhaust_linear_functionals(q):
    """Every F_q-linear map to the base field is x -> Tr(vx) for a unique v."""
    ctx = field_for_q_squared(q)
    xs = ctx.all_indices()
    trace_tables = {ctx.arr_trace(ctx.arr_scale(xs, v)).tobytes() for v in range(ctx.order)}
    assert len(trace_tables) == ctx.order
    # every linear functional, by images of the power basis
    linear_tables = set()
    for c1 in range(q):
        for c2 in range(q):
            tab = np.array([ctx.base.add(ctx.base.mul(c1, x % q),
                                         ctx.base.mul(c2, x // q)) for x in range(ctx.order)],
                           dtype=np.int64)
            linear_tables.add(tab.tobytes())
    assert trace_tables == linear_tables


def test_bijectivity_iff_independent_f9(f9):
    """rho (resp. eta) is bijective exactly when the pair is independent."""
    size = f9.order
    for v1 in range(size):
        for v2 in range(size):
            indep = is_linearly_independent(f9, [v1, v2])
            rt = rho_table(f9, [v1, v2])
            et = eta_table(f9, [v1, v2])
            assert (int(np.bincount(rt, minlength=size).max()) == 1) == indep
            assert (int(np.bincount(et, minlength=size).max()) == 1) == indep


def _span_size(base, rows):
    """|span of rows| by enumerating every linear combination."""
    ncols = len(rows[0])
    span = set()
    for coeffs in itertools.product(range(base.order), repeat=len(rows)):
        vec = [0] * ncols
        for c, row in zip(coeffs, rows):
            vec = [base.add(v, base.mul(c, x)) for v, x in zip(vec, row)]
        span.add(tuple(vec))
    return len(span)


@pytest.mark.parametrize("p, k", [(2, 1), (3, 1), (2, 2)])
def test_elimination_rank_and_inverse_match_span_counts(p, k):
    """Rank r iff the rows span q^r vectors; a square matrix has an inverse
    (M M^-1 = I) iff its rows span all of F_q^n, else _solve_all is None."""
    base = build_tower(p, k=k)
    q, rng = base.order, np.random.default_rng(p * 10 + k)
    for _ in range(150):
        n = int(rng.integers(1, 4))
        nrows = int(rng.integers(1, 4))
        rows = rng.integers(0, q, (nrows, n)).tolist()
        if rng.random() < 0.3:   # force a dependent row
            rows[-1] = rows[0]
        assert q ** _reduce(base, rows, n)[1] == _span_size(base, rows)
        square = rng.integers(0, q, (n, n)).tolist()
        inv = _solve_all(base, square)
        if _span_size(base, square) < q ** n:
            assert inv is None
        else:
            prod = [[functools.reduce(base.add, (base.mul(square[i][l], inv[l][j])
                                                 for l in range(n)), 0)
                     for j in range(n)] for i in range(n)]
            assert prod == [[int(i == j) for j in range(n)] for i in range(n)]
