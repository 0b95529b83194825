"""Building permutations of F_{q^n} from self-maps of F_q^n and back.

The central construction composes: a permutation f of the field, the
component-trace homomorphism into F_q^n, an arbitrary self-map g of F_q^n,
and a linear-combination homomorphism back into the field.  The composite
permutes the field exactly when both element sets are bases and g permutes
the vector space; `composition_equivalence_check` tests that equivalence instance
by instance against the exhaustive oracle.

Self-maps of F_q^n are table-backed (VectorMap) over packed coordinate
vectors, with optional symbolic component polynomials where a construction
provides them.  A packed vector is its coordinates read as little-endian
base-q digits, by the same digit codec as a field element's index.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd, prod
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    ComponentNotPermutation,
    CtxMismatch,
    DimensionMismatch,
    NotPermutation,
)
from .fields import ExtensionField, FieldCtx, _digitwise_add, _from_digits, _to_digits
from .linalg import CandidateSet, _indices, eta_table, dual_basis, rho_table
from .polys import (FnTable, SparsePoly, _first_collision, _own_table, compose_univariate,
                    trace_poly)


class VectorMap:
    """A self-map of F_q^n as a table over packed coordinate vectors."""

    __slots__ = ("base", "n", "table", "components")

    def __init__(self, base: FieldCtx, n: int, table, components=None):
        self.base = base
        self.n = n
        self.table = _own_table(table, base.order ** n, DimensionMismatch)
        self.components = components

    @property
    def size(self) -> int:
        return self.base.order ** self.n

    @classmethod
    def identity(cls, base: FieldCtx, n: int) -> "VectorMap":
        return cls(base, n, np.arange(base.order ** n, dtype=np.int64))

    @classmethod
    def from_callable(cls, base: FieldCtx, n: int, fn: Callable) -> "VectorMap":
        """fn maps a coordinate tuple to a coordinate tuple."""
        q = base.order
        coords = zip(*(c.tolist() for c in _to_digits(np.arange(q ** n), q, n)))
        return cls(base, n, [_from_digits(fn(c), q) for c in coords])

    @classmethod
    def random_map(cls, base: FieldCtx, n: int, rng: random.Random) -> "VectorMap":
        size = base.order ** n
        return cls(base, n, [rng.randrange(size) for _ in range(size)])

    @classmethod
    def random_permutation(cls, base: FieldCtx, n: int, rng: random.Random) -> "VectorMap":
        table = list(range(base.order ** n))
        rng.shuffle(table)
        return cls(base, n, table)

    def _check(self, other: "VectorMap"):
        if self.base is not other.base or self.n != other.n:
            raise CtxMismatch("vector maps over different spaces")

    def is_permutation(self) -> bool:
        return _first_collision(self.table) is None

    def compose(self, other: "VectorMap") -> "VectorMap":
        """self after other."""
        self._check(other)
        return VectorMap(self.base, self.n, self.table[other.table])

    def pointwise_add(self, other: "VectorMap") -> "VectorMap":
        """Coordinatewise sum: a packed vector is a base-p digit string, like
        a field index, so this is the fields' digitwise addition."""
        self._check(other)
        return VectorMap(self.base, self.n,
                         _digitwise_add(self.table, other.table, self.base.p, self.size))

    def pointwise_scale(self, c: int) -> "VectorMap":
        q = self.base.order
        return VectorMap(self.base, self.n, _from_digits(
            [self.base.arr_scale(x, c) for x in _to_digits(self.table, q, self.n)], q))

    def __eq__(self, other):
        return (isinstance(other, VectorMap) and self.base is other.base
                and self.n == other.n and np.array_equal(self.table, other.table))

    def __hash__(self):  # pragma: no cover
        return hash((id(self.base), self.n, self.table.tobytes()))

    def __repr__(self):
        return f"VectorMap(F_{self.base.order}^{self.n})"


@dataclass(frozen=True)
class ComponentPerms:
    """Univariate component polynomials h_i over F_q, with optional
    lower-triangular shifts: component i maps to h_i(x_i) + s_i(x_1..x_{i-1})."""

    hs: tuple
    shifts: Optional[tuple] = None

    def __len__(self):
        return len(self.hs)


def _dims(ctx: ExtensionField, v: CandidateSet, a: CandidateSet):
    n = ctx.degree
    if len(list(v)) != n or len(list(a)) != n:
        raise DimensionMismatch(f"candidate sets must have {n} elements")


def compose_field_map(f: FnTable, v: CandidateSet, g: VectorMap, a: CandidateSet) -> FnTable:
    """Table of x -> eta_a( g( rho_v( f(x) ) ) ) over the extension field."""
    ctx = f.ctx
    _dims(ctx, v, a)
    if g.base is not ctx.base or g.n != ctx.degree:
        raise DimensionMismatch("vector map dimensions do not match the extension")
    rt = rho_table(ctx, v)
    et = eta_table(ctx, a)
    return FnTable(ctx, et[g.table[rt[f.values]]])


def composition_conditions(ctx: ExtensionField, v: CandidateSet, a: CandidateSet,
                         g: VectorMap) -> tuple:
    """(v is a basis, a is a basis, g permutes F_q^n)."""
    from .linalg import is_linearly_independent
    _dims(ctx, v, a)
    return (is_linearly_independent(ctx, v),
            is_linearly_independent(ctx, a),
            g.is_permutation())


def composition_equivalence_check(f: FnTable, v: CandidateSet, a: CandidateSet,
                          g: VectorMap) -> bool:
    """Whether [composite permutes] == [all three conditions hold], for a PP f."""
    if not f.is_permutation():
        raise NotPermutation("f must permute the field")
    lhs = compose_field_map(f, v, g, a).is_permutation()
    rhs = all(composition_conditions(f.ctx, v, a, g))
    return lhs == rhs


def compose_corollary_vec(v: CandidateSet, f: FnTable, a: CandidateSet) -> VectorMap:
    """The induced self-map of F_q^n: coordinates -> rho_v(f(eta_a(coords)))."""
    ctx = f.ctx
    _dims(ctx, v, a)
    rt = rho_table(ctx, v)
    et = eta_table(ctx, a)
    return VectorMap(ctx.base, ctx.degree, rt[f.values[et]])


def build_trace_composite(f: SparsePoly, comps: ComponentPerms, v: CandidateSet,
               a: CandidateSet) -> SparsePoly:
    """Reduced polynomial for sum_i a_i h_i(Tr(v_i f(x))), built symbolically.

    Each trace is expanded into its Frobenius twists, composed with the
    univariate h_i, recombined, and reduced; the result induces the same
    table as the pointwise composition.
    """
    ctx = f.ctx
    _dims(ctx, v, a)
    if len(comps) != ctx.degree:
        raise DimensionMismatch(f"need {ctx.degree} component polynomials")
    out = SparsePoly(ctx)
    for vi, ai, hi in zip(_indices(ctx, v), _indices(ctx, a), comps.hs):
        ti = trace_poly(f.scale(vi))
        out = out + compose_univariate(hi, ti).scale(ai)
    return out.reduce()


def build_triangular_g(base: FieldCtx, comps: ComponentPerms) -> VectorMap:
    """Componentwise map x_i -> h_i(x_i) + shift_i(x_1..x_{i-1}).

    Each h_i must permute the base field; the shifts are arbitrary, so the
    assembled map always permutes F_q^n.
    """
    n = len(comps)
    q = base.order
    htabs = []
    for i, h in enumerate(comps.hs):
        if h.ctx is not base:
            raise CtxMismatch("component polynomial over the wrong field")
        t = h.to_table()
        if not t.is_permutation():
            raise ComponentNotPermutation(f"component {i} does not permute F_{q}")
        htabs.append(t.values)
    shifts = comps.shifts or (None,) * n

    def fn(coords):
        out = []
        for i in range(n):
            y = int(htabs[i][coords[i]])
            if shifts[i] is not None:
                y = base.add(y, shifts[i](coords[:i]))
            out.append(y)
        return tuple(out)

    vm = VectorMap.from_callable(base, n, fn)
    vm = VectorMap(base, n, vm.table, components=comps)
    return vm


def monomial_family(f: SparsePoly, exps: Sequence[int], v: CandidateSet,
                    a: CandidateSet) -> tuple:
    """sum_i a_i Tr(v_i f(x))^(m_i) and the predicted permutation verdict
    gcd(m_1...m_n, q-1) = 1 (for bases v, a and a PP f)."""
    ctx = f.ctx
    if not f.to_table().is_permutation():
        raise NotPermutation("f must permute the field")
    from .polys import monomial
    hs = tuple(monomial(ctx.base, m, 1) for m in exps)
    poly = build_trace_composite(f, ComponentPerms(hs), v, a)
    predicted = gcd(prod(exps), ctx.base.order - 1) == 1
    return poly, predicted


def psi(v: CandidateSet, g: VectorMap, ctx: ExtensionField) -> FnTable:
    """Conjugate a vector-space self-map into a field self-map: rho^(-1) g rho."""
    rt = rho_table(ctx, v)
    rinv = eta_table(ctx, dual_basis(ctx, v).elems)
    return FnTable(ctx, rinv[g.table[rt]])


def psi_inverse(v: CandidateSet, fmap: FnTable) -> VectorMap:
    """The inverse conjugation: rho g' rho^(-1), back to a vector-space map."""
    ctx = fmap.ctx
    rt = rho_table(ctx, v)
    rinv = eta_table(ctx, dual_basis(ctx, v).elems)
    return VectorMap(ctx.base, ctx.degree, rt[fmap.values[rinv]])
