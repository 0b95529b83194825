"""Sparse polynomials over a field context and the permutation-test engine.

The canonical reduced form works modulo x^Q - x with the exponent
convention e >= 1  ->  ((e-1) mod (Q-1)) + 1, so x^(Q-1) is retained: it
and x^0 induce different functions (they differ at 0), hence collapsing
exponents into [0, Q-2] would be unsound.

Function tables (FnTable) are numpy index arrays over the canonical element
enumeration.  Bijectivity is decided by exhaustive counting, which at desk
scale doubles as the independent oracle for every algebraic condition in
the family modules: one row-wise count (`_row_counts`) gives every verdict,
for single tables and vector-space maps as for the sweep's 2-D table
arrays, and the witness comes off the same count (`_first_collision` for
one table, `first_collisions` row-wise).
"""

from __future__ import annotations

import re

import numpy as np

from .errors import BadParams, CtxMismatch, NotPermutation, ParseError
from .fields import FieldCtx


def reduce_exponent(e: int, order: int) -> int:
    """Fold e into [0, order-1] preserving the induced function x -> x^e."""
    if e == 0:
        return 0
    return (e - 1) % (order - 1) + 1


class SparsePoly:
    """A polynomial as a sorted tuple of (exponent, nonzero coefficient index).

    The constructor merges like terms and drops zeros but does not fold
    exponents; `reduce()` returns the canonical representative mod x^Q - x.
    Products (and powers) are always returned reduced.
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: FieldCtx, terms=()):
        acc: dict = {}
        for e, c in terms:
            e, c = int(e), int(c)
            if e < 0:
                raise BadParams(f"negative exponent {e}")
            if not 0 <= c < ctx.order:
                raise BadParams(f"coefficient index {c} out of range")
            if c:
                acc[e] = ctx.add(acc.get(e, 0), c)
        self.ctx = ctx
        self.terms = tuple(sorted((e, c) for e, c in acc.items() if c))

    # -- classification ---------------------------------------------------

    @property
    def degree(self) -> int:
        return self.terms[-1][0] if self.terms else -1

    def reduce(self) -> "SparsePoly":
        q = self.ctx.order
        return SparsePoly(self.ctx, ((reduce_exponent(e, q), c) for e, c in self.terms))

    # -- algebra ------------------------------------------------------------

    def _check(self, other):
        if self.ctx is not other.ctx:
            raise CtxMismatch("polynomials over different fields")

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        self._check(other)
        return SparsePoly(self.ctx, list(self.terms) + list(other.terms))

    def __sub__(self, other: "SparsePoly") -> "SparsePoly":
        self._check(other)
        neg = self.ctx.neg
        return SparsePoly(self.ctx, list(self.terms) + [(e, neg(c)) for e, c in other.terms])

    def __mul__(self, other: "SparsePoly") -> "SparsePoly":
        """Product, reduced mod x^Q - x (exponents folded during accumulation)."""
        self._check(other)
        ctx, q = self.ctx, self.ctx.order
        acc: dict = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = reduce_exponent(e1 + e2, q)
                c = ctx.mul(c1, c2)
                if c:
                    acc[e] = ctx.add(acc.get(e, 0), c)
        return SparsePoly(ctx, acc.items())

    def __pow__(self, k: int) -> "SparsePoly":
        if k < 0:
            raise BadParams("negative polynomial power")
        out = SparsePoly(self.ctx, [(0, 1)])
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def scale(self, c) -> "SparsePoly":
        ctx, c = self.ctx, int(c)
        if not 0 <= c < ctx.order:
            raise BadParams(f"element index {c} out of range for {ctx}")
        return SparsePoly(ctx, ((e, ctx.mul(cf, c)) for e, cf in self.terms))

    def frobenius_map(self, j: int = 1) -> "SparsePoly":
        """The polynomial inducing x -> f(x)^(q^j): termwise q^j-powering."""
        ctx, q = self.ctx, self.ctx.order
        return SparsePoly(ctx, ((reduce_exponent(e * ctx.base.order ** j, q),
                                 ctx.frobenius(c, j)) for e, c in self.terms))

    # -- evaluation -----------------------------------------------------------

    def eval(self, x: int) -> int:
        ctx, acc, x = self.ctx, 0, int(x)
        if not 0 <= x < ctx.order:
            raise BadParams(f"element index {x} out of range for {ctx}")
        for e, c in self.terms:
            acc = ctx.add(acc, ctx.mul(c, ctx.pow(x, e)))
        return acc

    def to_table(self) -> "FnTable":
        """Evaluate at every field element, in canonical enumeration order
        (see `FieldCtx.polynomial_table`: exp gathers summed by XOR at
        p = 2, a Zech-logarithm sum and one gather at odd p)."""
        return FnTable(self.ctx, self.ctx.polynomial_table(self.terms))

    # -- text form and equality ------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.terms:
            cs = self.ctx.format_idx(c)
            if e == 0:
                parts.append(cs)
            else:
                xs = "x" if e == 1 else f"x^{e}"
                parts.append(xs if c == 1 else f"{cs}*{xs}")
        return " + ".join(parts)

    def __repr__(self):
        return f"SparsePoly({self.ctx}, {self})"

    def __eq__(self, other):
        return (isinstance(other, SparsePoly) and self.ctx is other.ctx
                and self.terms == other.terms)

    def __hash__(self):
        return hash((id(self.ctx), self.terms))

    @classmethod
    def parse(cls, ctx: FieldCtx, text: str) -> "SparsePoly":
        return parse_poly(ctx, text)


def monomial(ctx: FieldCtx, e: int, c=1) -> SparsePoly:
    return SparsePoly(ctx, [(e, c)])


def compose_univariate(outer: SparsePoly, inner: SparsePoly) -> SparsePoly:
    """outer(inner(x)), reduced; outer may live over the base field of inner's."""
    ctx = inner.ctx
    if outer.ctx is not ctx and outer.ctx is not getattr(ctx, "base", None):
        raise CtxMismatch("outer polynomial is not over the field or its base")
    out = SparsePoly(ctx)
    for k, c in outer.terms:
        out = out + (inner ** k).scale(c)  # base coefficients embed as themselves
    return out


def trace_poly(p: SparsePoly) -> SparsePoly:
    """Polynomial inducing x -> Tr(p(x)) (sum of Frobenius twists), reduced."""
    out = p.reduce()
    for j in range(1, p.ctx.degree):
        out = out + p.frobenius_map(j)
    return out


_UNCOUNTED = object()


class FnTable:
    """The induced map of a polynomial (or any self-map), as an index array.

    The first of `is_permutation` and `first_collision` counts the table
    once, and both answers are kept: the values are read-only.
    """

    __slots__ = ("ctx", "values", "_collision")

    def __init__(self, ctx: FieldCtx, values):
        self.ctx = ctx
        self.values = _own_table(values, ctx.order, BadParams)
        self._collision = _UNCOUNTED

    def _count(self):
        if self._collision is _UNCOUNTED:
            self._collision = _first_collision(self.values)
        return self._collision

    @classmethod
    def identity(cls, ctx: FieldCtx) -> "FnTable":
        return cls(ctx, ctx.all_indices())

    def __getitem__(self, x: int) -> int:
        return int(self.values[x])

    def __eq__(self, other):
        return (isinstance(other, FnTable) and self.ctx is other.ctx
                and np.array_equal(self.values, other.values))

    def __hash__(self):  # pragma: no cover - tables are not dict keys in practice
        return hash((id(self.ctx), self.values.tobytes()))

    def is_permutation(self) -> bool:
        return self._count() is None

    def first_collision(self):
        """The first two positions x1 < x2 of the smallest repeated value,
        as `first_collisions` gives them; None if bijective."""
        return self._count()

    def compose(self, other: "FnTable") -> "FnTable":
        """self after other: x -> self(other(x))."""
        if self.ctx is not other.ctx:
            raise CtxMismatch("tables over different fields")
        return FnTable(self.ctx, self.values[other.values])

    def inverse(self) -> "FnTable":
        """Table of the compositional inverse; requires bijectivity."""
        if not self.is_permutation():
            raise NotPermutation("table is not a bijection")
        inv = np.empty_like(self.values)
        inv[self.values] = self.ctx.all_indices()
        return FnTable(self.ctx, inv)


def _own_table(values, n: int, length_error) -> np.ndarray:
    """A read-only int64 copy of a table over [0, n).

    length_error unless the table has n entries, BadParams unless each lies
    in [0, n).  Owning the copy keeps a later write to the caller's array
    from getting past the range check.
    """
    values = np.array(values, dtype=np.int64)
    if values.shape != (n,):
        raise length_error(f"table must have length {n}")
    _check_entries(values, n)
    values.flags.writeable = False
    return values


def _check_entries(values: np.ndarray, n: int):
    """BadParams unless every entry of an int64 index array lies in [0, n)."""
    if values.size and values.view(np.uint64).max() >= n:   # negatives wrap above 2^63
        raise BadParams(f"table entries must lie in [0, {n})")


def _row_counts(rows: np.ndarray) -> np.ndarray:
    """How often each value occurs in each row of a 2-D index array.

    Entries must lie in [0, n), n the row length (FnTable and VectorMap
    check theirs when built, first_collisions its argument); counts[r, v] is
    the number of times row r takes the value v, so row r is a bijection of
    [0, n) iff no count exceeds 1.  All rows are counted by one bincount,
    each row's values shifted by r * n.
    """
    r, n = rows.shape
    if r > 1:
        rows = rows + np.arange(0, r * n, n)[:, None]
    return np.bincount(rows.ravel(), minlength=r * n).reshape(r, n)


def _first_collision(values: np.ndarray):
    """One count of a 1-D index array of length n with entries in [0, n)
    (checked by its owner): None if it is a bijection, else the first two
    positions x1 < x2 of its smallest repeated value, as `first_collisions`
    gives them."""
    counts = _row_counts(values[None, :])[0]
    if counts.max() <= 1:
        return None
    at = values == (counts > 1).argmax()
    x1 = int(at.argmax())
    return x1, x1 + 1 + int(at[x1 + 1:].argmax())


def first_collisions(rows: np.ndarray):
    """Row-wise first collision of a 2-D array of element indices.

    Returns boolean and index arrays (hit, x1, x2), one entry per row: hit
    tells whether the row repeats a value, and then x1 < x2 are the first
    two positions of its smallest repeated value.  x1 and x2 are meaningless
    where hit is False.  BadParams if an entry lies outside [0, row length).
    """
    _check_entries(rows, rows.shape[1])
    dup = _row_counts(rows) > 1
    i, value = np.arange(len(rows)), dup.argmax(axis=1)
    at = rows == value[:, None]
    x1 = at.argmax(axis=1)
    at[i, x1] = False
    return dup[i, value], x1, at.argmax(axis=1)


def interpolate(table: FnTable) -> SparsePoly:
    """The unique reduced polynomial (degree <= Q-1) inducing `table`.

    Uses Lagrange bases in closed form: with P = x^Q - x one has P'(a) = -1,
    so L_a = -P/(x - a), whose coefficients are plain powers of a.
    """
    ctx = table.ctx
    Q = ctx.order
    t0 = int(table.values[0])
    xs = ctx.all_indices()[1:]
    vals = table.values[1:]
    terms = [(0, t0)] if t0 else []
    for j in range(1, Q):
        s = ctx.arr_sum(ctx.arr_mul(vals, ctx.arr_pow(xs, Q - 1 - j)))
        if j == Q - 1:
            s = ctx.add(s, t0)
        c = ctx.neg(s)
        if c:
            terms.append((j, c))
    return SparsePoly(ctx, terms)


# -- text forms ----------------------------------------------------------------

_TUPLE_RE = re.compile(r"^\((\d+(?:,\d+)*)\)$")
_GEN_RE = re.compile(r"^a(\d+)$")
_X_RE = re.compile(r"^x(?:\^(\d+))?$")


def parse_element(ctx: FieldCtx, text: str) -> int:
    """Element from text: coordinate tuple '(2,3)', integer constant, or 'a<k>'
    for the k-th power of the canonical generator."""
    text = text.strip().replace(" ", "")
    if (text.startswith("(") and text.endswith(")") and "," not in text):
        text = text[1:-1]  # parenthesized single factor, e.g. "(a2)"
    m = _TUPLE_RE.match(text)
    if m:
        coords = [int(c) for c in m.group(1).split(",")]
        if len(coords) != ctx.degree:
            raise ParseError(f"expected {ctx.degree} coordinates, got {len(coords)}")
        base_order = ctx.base.order if ctx.base is not None else ctx.p
        if any(not 0 <= c < base_order for c in coords):
            raise ParseError(f"coordinate out of range in {text!r}")
        return ctx.encode(coords)
    m = _GEN_RE.match(text)
    if m:
        return ctx.pow(ctx.generator, int(m.group(1)))
    neg = text.startswith("-")
    if neg:
        text = text[1:]
    if text.isdigit():
        idx = ctx.from_int(int(text))
        return ctx.neg(idx) if neg else idx
    raise ParseError(f"cannot parse element {text!r}")


def _split_signed_terms(text: str):
    """Split on top-level + and - (parentheses protected)."""
    out, depth, sign, cur = [], 0, 1, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced parentheses")
        if depth == 0 and ch in "+-" and cur:
            out.append((sign, "".join(cur)))
            sign, cur = (1 if ch == "+" else -1), []
        elif depth == 0 and ch in "+-" and not cur:
            sign *= 1 if ch == "+" else -1
        else:
            cur.append(ch)
    if depth:
        raise ParseError("unbalanced parentheses")
    if cur:
        out.append((sign, "".join(cur)))
    return out


def parse_poly(ctx: FieldCtx, text: str) -> SparsePoly:
    """Polynomial from '+'/'-'-joined monomials of '*'-joined factors.

    Factors: 'x' or 'x^e', integer constants, coordinate tuples '(c0,c1)',
    and generator powers 'a<k>'.  Example: 'x^3 + 3*(a8)*x^11'.
    """
    text = text.strip().replace(" ", "")
    if not text:
        raise ParseError("empty polynomial")
    if text == "0":
        return SparsePoly(ctx)
    terms = []
    for sign, mono in _split_signed_terms(text):
        if not mono:
            raise ParseError("empty monomial")
        e, c = 0, 1
        for factor in mono.split("*"):
            m = _X_RE.match(factor)
            if m:
                e += int(m.group(1)) if m.group(1) else 1
            else:
                c = ctx.mul(c, parse_element(ctx, factor))
        if sign < 0:
            c = ctx.neg(c)
        terms.append((e, c))
    return SparsePoly(ctx, terms)
