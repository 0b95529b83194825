"""Linear algebra of an extension field over its base field.

An extension of degree n over F_q is an n-dimensional F_q-vector space; this
module provides linear-independence testing, the trace-form dual basis, and
the two structural homomorphisms between the field and F_q^n: component
traces one way, linear combination the other.

Elements are plain integer indices, checked against the field's order where
they enter.  Coordinate vectors are tuples of base-field indices, and the
table forms pack them little-endian base q with the field's own digit codec
(`ctx.encode`/`ctx.decode`), so a packed vector is the element index whose
power-basis coordinates it lists.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import BadParams, DimensionMismatch, NotABasis, SingularGram
from .fields import ExtensionField, FieldCtx

CandidateSet = Sequence[int]


def _indices(ctx: FieldCtx, elems: CandidateSet) -> list:
    """Elements of the extension ctx as ints; BadParams for a prime field."""
    if ctx.base is None:
        raise BadParams(f"needs an extension field, got {ctx}")
    return _in_range(ctx, elems)


def _in_range(ctx: FieldCtx, elems: CandidateSet) -> list:
    """The elements as ints; BadParams unless each lies in 0..ctx.order-1."""
    out = [int(x) for x in elems]
    for x in out:
        if not 0 <= x < ctx.order:
            raise BadParams(f"element index {x} out of range for {ctx}")
    return out


def _reduce(base: FieldCtx, rows, ncols: int):
    """Gauss-Jordan elimination over the base field (exact), pivoting on the
    first ncols columns and carrying any further columns along.

    Returns the reduced rows and the rank of their first ncols columns.
    """
    rows = [list(r) for r in rows]
    rank, col = 0, 0
    while rank < len(rows) and col < ncols:
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = base.inv(rows[rank][col])
        rows[rank] = [base.mul(inv, v) for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [base.sub(v, base.mul(f, w)) for v, w in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rows, rank


def _solve_all(base: FieldCtx, matrix):
    """Inverse of a square matrix over the base field; None if singular."""
    n = len(matrix)
    aug = [list(matrix[i]) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    rows, rank = _reduce(base, aug, n)
    return [row[n:] for row in rows] if rank == n else None


def is_linearly_independent(ctx: ExtensionField, cand: CandidateSet) -> bool:
    """Rank test over the base field; the empty set is independent by convention."""
    elems = _indices(ctx, cand)
    if not elems:
        return True
    if len(elems) > ctx.degree:
        return False
    return _reduce(ctx.base, [ctx.decode(x) for x in elems], ctx.degree)[1] == len(elems)


class Basis:
    """An ordered basis of the extension over its base; validated on construction."""

    __slots__ = ("ctx", "elems", "_dual")

    def __init__(self, ctx: ExtensionField, elems: CandidateSet):
        idxs = _indices(ctx, elems)
        if len(idxs) != ctx.degree:
            raise DimensionMismatch(f"need {ctx.degree} elements, got {len(idxs)}")
        if not is_linearly_independent(ctx, idxs):
            raise NotABasis(f"{[ctx.format_idx(i) for i in idxs]} is dependent")
        self.ctx = ctx
        self.elems = tuple(idxs)
        self._dual = None

    def __iter__(self):
        return iter(self.elems)

    def __len__(self):
        return len(self.elems)

    def __getitem__(self, i):
        return self.elems[i]

    def __eq__(self, other):
        return (isinstance(other, Basis) and self.ctx is other.ctx
                and self.elems == other.elems)

    def __hash__(self):
        return hash((id(self.ctx), self.elems))

    def __repr__(self):
        return f"Basis[{', '.join(self.ctx.format_idx(i) for i in self.elems)}]"

    def dual(self) -> "Basis":
        if self._dual is None:
            self._dual = dual_basis(self.ctx, self.elems)
        return self._dual


def dual_basis(ctx: ExtensionField, v: CandidateSet) -> Basis:
    """The ordered dual {u_j} with Tr(v_i u_j) = delta_ij.

    Solved through the trace Gram matrix against the power basis; a singular
    system means the input was not actually a basis.
    """
    idxs = _indices(ctx, v)
    n, q = ctx.degree, ctx.base.order
    if len(idxs) != n:
        raise DimensionMismatch(f"need {n} elements, got {len(idxs)}")
    tpow = [q ** k for k in range(n)]  # indices of 1, t, ..., t^(n-1)
    gram = [[ctx.trace(ctx.mul(vi, tk)) for tk in tpow] for vi in idxs]
    inv = _solve_all(ctx.base, gram)
    if inv is None:
        raise SingularGram("trace Gram matrix is singular: not a basis")
    # column j of inv solves G c = e_j; c are power-basis coordinates of u_j
    us = [ctx.encode([inv[k][j] for k in range(n)]) for j in range(n)]
    out = Basis.__new__(Basis)
    out.ctx, out.elems, out._dual = ctx, tuple(us), None
    return out


def rho(ctx: ExtensionField, v: CandidateSet, x) -> tuple:
    """Component traces (Tr(v_1 x), ..., Tr(v_n x)) as a coordinate vector."""
    xi, = _indices(ctx, [x])
    return tuple(ctx.trace(ctx.mul(vi, xi)) for vi in _indices(ctx, v))


def rho_inverse(ctx: ExtensionField, v: CandidateSet, xs) -> int:
    """Inverse of rho for a true basis: the dual-weighted linear combination."""
    u = dual_basis(ctx, v)
    return eta(ctx, u.elems, xs)


def eta(ctx: ExtensionField, a: CandidateSet, xs) -> int:
    """Linear combination a_1 x_1 + ... + a_n x_n of base-field coordinates
    (a base element keeps its index in the extension)."""
    ai, xi = _indices(ctx, a), _in_range(ctx.base, xs)
    if len(ai) != len(xi):
        raise DimensionMismatch(f"{len(ai)} elements vs {len(xi)} coordinates")
    acc = 0
    for c, x in zip(ai, xi):
        acc = ctx.add(acc, ctx.mul(c, x))
    return acc


def eta_inverse(ctx: ExtensionField, a: CandidateSet, x) -> tuple:
    """Inverse of eta for a true basis: traces against the dual basis."""
    b = dual_basis(ctx, a)
    return rho(ctx, b.elems, x)


def kernel_of_trace_maps(ctx: ExtensionField, cand: CandidateSet) -> list:
    """All x with Tr(v x) = 0 for every v in cand, by exhaustive scan."""
    xs = ctx.all_indices()
    keep = np.ones(ctx.order, dtype=bool)
    for v in _indices(ctx, cand):
        keep &= ctx.arr_trace(ctx.arr_scale(xs, v)) == 0
    return [int(i) for i in xs[keep]]


# -- table forms used by the composition machinery ---------------------------

def rho_table(ctx: ExtensionField, v: CandidateSet):
    """rho as an array: element index -> packed coordinate vector."""
    xs = ctx.all_indices()
    return ctx.encode([ctx.arr_trace(ctx.arr_scale(xs, vi)) for vi in _indices(ctx, v)])


def eta_table(ctx: ExtensionField, a: CandidateSet):
    """eta as an array: packed coordinate vector -> element index."""
    acc = np.zeros(ctx.order, dtype=np.int64)
    for ai, coord in zip(_indices(ctx, a), ctx.decode(ctx.all_indices())):
        acc = ctx.arr_add(acc, ctx.arr_scale(coord, ai))
    return acc
