"""Finite fields built as explicit towers, with exact integer-indexed arithmetic.

A field of order Q is presented as a context object whose elements are the
integers 0..Q-1.  For a prime field the index is the residue itself; for an
extension of degree d over a base of order b, the index encodes the
coordinate vector (c_0, ..., c_{d-1}) relative to the power basis of the
defining modulus, little-endian: idx = c_0 + c_1*b + ... + c_{d-1}*b^{d-1}.
This makes the canonical enumeration order 0, 1, ..., Q-1 well defined, and
it embeds each base field into its extensions without re-indexing (the base
element c has extension index c).  Unrolled down the tower, an index is the
base-p digit string of its coordinates over F_p, D = log_p Q digits long, so
the field is F_p^D as an additive group and addition is digitwise mod p (XOR
when p = 2) in every context.

Scalar arithmetic is exact (Python ints).  Bulk operations on numpy arrays
of indices (`arr_*` methods) are what the permutation-sweep machinery runs
on: addition, negation and summation work on the base-p digits of the whole
tower, multiplication and powering on lazily built discrete log/exp tables.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    BadParams,
    CharThree,
    CtxMismatch,
    DivisionByZero,
    NoSolution,
    NotDivisor,
    NotPrime,
    TooLarge,
    ZeroElement,
)

DEFAULT_CAP = 1 << 20


def is_prime(n: int) -> bool:
    """Trial-division primality test; fields here are desk-scale."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


def factorize(n: int) -> dict:
    """Prime factorization {prime: multiplicity} by trial division."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _digitwise_add(u, v, p: int, order: int):
    """Digitwise sum mod p of index arrays whose entries are base-p digit
    strings below `order` (field elements, or packed vectors of F_q^n).

    Digit i of u + v is (u // p^i + v // p^i) mod p: the higher digits of each
    quotient are multiples of p.
    """
    if p == 2:
        return u ^ v
    out, w = (u + v) % p, p
    while w < order:
        u, v = u // p, v // p
        out += (u + v) % p * w
        w *= p
    return out


class FieldElement:
    """An element of a specific field context; a thin wrapper over its index."""

    __slots__ = ("ctx", "idx")

    def __init__(self, ctx: "FieldCtx", idx: int):
        self.ctx = ctx
        self.idx = idx

    @property
    def coords(self):
        """Coordinates over the immediate base field, low degree first."""
        return tuple(self.ctx.decode(self.idx))

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.ctx is not self.ctx:
                raise CtxMismatch(f"elements of {self.ctx} and {other.ctx}")
            return other.idx
        if isinstance(other, int):
            return other % self.ctx.p
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.ctx, self.ctx.add(self.idx, o))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.ctx, self.ctx.sub(self.idx, o))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.ctx, self.ctx.sub(o, self.idx))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.ctx, self.ctx.mul(self.idx, o))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.ctx, self.ctx.div(self.idx, o))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.ctx, self.ctx.div(o, self.idx))

    def __pow__(self, e: int):
        return FieldElement(self.ctx, self.ctx.pow(self.idx, e))

    def __neg__(self):
        return FieldElement(self.ctx, self.ctx.neg(self.idx))

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.ctx is other.ctx and self.idx == other.idx
        if isinstance(other, int):
            return self.idx == other % self.ctx.p
        return NotImplemented

    def __hash__(self):
        return hash((id(self.ctx), self.idx))

    def __bool__(self):
        return self.idx != 0

    def frobenius(self, i: int = 1) -> "FieldElement":
        return FieldElement(self.ctx, self.ctx.frobenius(self.idx, i))

    def trace(self) -> "FieldElement":
        ctx = self.ctx
        return FieldElement(ctx.base, ctx.trace(self.idx))

    def order(self) -> int:
        return self.ctx.element_order(self.idx)

    def inverse(self) -> "FieldElement":
        return FieldElement(self.ctx, self.ctx.inv(self.idx))

    def __str__(self):
        return self.ctx.format_idx(self.idx)

    def __repr__(self):
        return f"F{self.ctx.order}:{self}"


class FieldCtx:
    """Common behaviour of prime fields and extension fields.

    Immutable after construction; safe to share across workers.  All scalar
    methods operate on integer element indices, `element()` wraps an index
    into a FieldElement.
    """

    p: int
    order: int
    degree: int
    base: "FieldCtx | None"
    modulus: tuple | None

    def __init__(self):
        self._generator = None
        self._exp = None      # list, exp[i] = g^i for i in [0, order-2]
        self._log = None      # list, log[x] = i with g^i = x; log[0] = -1
        self._exp_np = None
        self._log_np = None
        self._frob_np = None
        self._order_factors = None
        self._mu_cache = {}

    # -- representation ------------------------------------------------

    def decode(self, idx: int) -> list:
        raise NotImplementedError

    def encode(self, coords) -> int:
        raise NotImplementedError

    def format_idx(self, idx: int) -> str:
        raise NotImplementedError

    def element(self, value) -> FieldElement:
        """Wrap an index (or coerce an integer constant / element) into this field."""
        if isinstance(value, FieldElement):
            if value.ctx is not self:
                raise CtxMismatch(f"element of {value.ctx} used in {self}")
            return value
        idx = int(value)
        if not 0 <= idx < self.order:
            raise BadParams(f"index {idx} out of range for {self}")
        return FieldElement(self, idx)

    def from_int(self, n: int) -> int:
        """Index of the constant n (i.e. n * 1, reduced mod p)."""
        return n % self.p

    def elements(self):
        for i in range(self.order):
            yield FieldElement(self, i)

    def zero(self) -> FieldElement:
        return FieldElement(self, 0)

    def one(self) -> FieldElement:
        return FieldElement(self, 1)

    # -- scalar arithmetic on indices -----------------------------------

    def add(self, a: int, b: int) -> int:
        raise NotImplementedError

    def neg(self, a: int) -> int:
        raise NotImplementedError

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        raise NotImplementedError

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero(f"inverse of 0 in {self}")
        return self.pow(a, self.order - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a, e = self.inv(a), -e
        if a == 0:
            return 1 if e == 0 else 0
        if self._log is not None:
            return self._exp[(self._log[a] * e) % (self.order - 1)]
        r, base = 1, a
        while e:
            if e & 1:
                r = self.mul(r, base)
            base = self.mul(base, base)
            e >>= 1
        return r

    # -- multiplicative structure ---------------------------------------

    def _factors_of_group_order(self):
        if self._order_factors is None:
            self._order_factors = factorize(self.order - 1) if self.order > 2 else {}
        return self._order_factors

    def element_order(self, a: int) -> int:
        """Least t >= 1 with a^t = 1, via exponent descent on order-1."""
        if a == 0:
            raise ZeroElement(f"order of 0 in {self}")
        t = self.order - 1
        for ell in self._factors_of_group_order():
            while t % ell == 0 and self.pow(a, t // ell) == 1:
                t //= ell
        return t

    @property
    def generator(self) -> int:
        """Smallest index (canonical enumeration) of full multiplicative order."""
        if self._generator is None:
            n = self.order - 1
            for cand in range(1, self.order):
                if self.element_order(cand) == n:
                    self._generator = cand
                    break
        return self._generator

    def ensure_tables(self):
        """Build discrete log/exp tables (lazily; basis of the bulk engine)."""
        if self._log is not None:
            return
        g, n = self.generator, self.order - 1
        exp = [1] * n
        for i in range(1, n):
            exp[i] = self.mul(exp[i - 1], g)
        log = [-1] * self.order
        for i, x in enumerate(exp):
            log[x] = i
        self._exp, self._log = exp, log
        self._exp_np = np.array(exp, dtype=np.int64)
        self._log_np = np.array(log, dtype=np.int64)

    def subgroup_mu(self, d: int) -> list:
        """The d-th roots of unity, as powers g^((order-1)/d * j), j = 0..d-1.

        The returned list is cached and shared; treat it as read-only.
        """
        n = self.order - 1
        if d <= 0 or n % d != 0:
            raise NotDivisor(f"{d} does not divide {n}")
        if d not in self._mu_cache:
            step = self.pow(self.generator, n // d)
            out, cur = [], 1
            for _ in range(d):
                out.append(cur)
                cur = self.mul(cur, step)
            self._mu_cache[d] = out
        return self._mu_cache[d]

    def element_of_order(self, d: int) -> int:
        """Canonical element of exact order d: g^((order-1)/d)."""
        n = self.order - 1
        if d <= 0 or n % d != 0:
            raise NotDivisor(f"{d} does not divide {n}")
        return self.pow(self.generator, n // d)

    def order3_element(self) -> int:
        """Canonical element of multiplicative order 3."""
        if self.p == 3:
            raise CharThree("no element of order 3 in characteristic 3")
        return self.element_of_order(3)

    # -- bulk (numpy) arithmetic on index arrays -------------------------

    def arr_add(self, u, v):
        return _digitwise_add(u, v, self.p, self.order)

    def arr_neg(self, u):
        p = self.p
        if p == 2:
            return np.copy(u)
        out, w = (-u) % p, p
        while w < self.order:
            u = u // p
            out += (-u) % p * w
            w *= p
        return out

    def arr_sub(self, u, v):
        return self.arr_add(u, self.arr_neg(v))

    def arr_mul(self, u, v):
        self.ensure_tables()
        out = self._exp_np[(self._log_np[u] + self._log_np[v]) % (self.order - 1)]
        return np.where((u == 0) | (v == 0), 0, out)

    def arr_scale(self, u, c: int):
        """Multiply an index array by the constant index c."""
        if c == 0:
            return np.zeros_like(u)
        if c == 1:
            return u.copy()
        self.ensure_tables()
        out = self._exp_np[(self._log_np[u] + self._log[c]) % (self.order - 1)]
        return np.where(u == 0, 0, out)

    def arr_pow(self, u, e: int):
        """Elementwise u^e for integer e >= 0 (0^0 = 1)."""
        if e == 0:
            return np.ones_like(u)
        self.ensure_tables()
        # reduce e first: log * e must not wrap in int64 (e > 0 keeps 0^e = 0)
        out = self._exp_np[(self._log_np[u] * (e % (self.order - 1))) % (self.order - 1)]
        return np.where(u == 0, 0, out)

    def arr_sum(self, u) -> int:
        """Sum of all entries (digitwise: per digit the entries' sum mod p)."""
        p = self.p
        if p == 2:
            return int(np.bitwise_xor.reduce(u, axis=None))
        out, w = 0, 1
        while w < self.order:
            out += int(u.sum() % p) * w
            u = u // p
            w *= p
        return out

    def all_indices(self):
        return np.arange(self.order, dtype=np.int64)


class PrimeField(FieldCtx):
    """F_p for prime p; element index = residue."""

    def __init__(self, p: int):
        super().__init__()
        self.p = p
        self.order = p
        self.degree = 1
        self.base = None
        self.modulus = None

    def decode(self, idx):
        return [idx]

    def encode(self, coords):
        return coords[0] % self.p

    def format_idx(self, idx):
        return str(idx)

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a == 0:
            raise DivisionByZero(f"inverse of 0 in {self}")
        return pow(a, self.p - 2, self.p)

    def pow(self, a, e):
        if e < 0:
            a, e = self.inv(a), -e
        if a == 0:
            return 1 if e == 0 else 0
        if self.p > 2:
            e %= self.p - 1
        return pow(a, e, self.p)

    def arr_mul(self, u, v):
        return (u * v) % self.p

    def arr_scale(self, u, c):
        return (u * c) % self.p

    def __str__(self):
        return f"F_{self.p}"

    def __repr__(self):
        return f"PrimeField({self.p})"


class ExtensionField(FieldCtx):
    """Degree-d extension of a base field, as F_b[t]/(modulus)."""

    def __init__(self, base: FieldCtx, d: int, modulus: tuple):
        super().__init__()
        self.base = base
        self.p = base.p
        self.degree = d
        self.order = base.order ** d
        self.modulus = tuple(modulus)
        # reduction rows: coords of t^k for k = d .. 2d-2
        rows = []
        cur = [base.neg(c) for c in modulus[:d]]  # t^d = -(m_0 + ... + m_{d-1} t^{d-1})
        rows.append(list(cur))
        for _ in range(d - 2):
            nxt = [0] + cur[:-1]
            top = cur[-1]
            if top:
                red = rows[0]
                nxt = [base.add(nxt[i], base.mul(top, red[i])) for i in range(d)]
            cur = nxt
            rows.append(list(cur))
        self._red_rows = rows

    # -- representation --------------------------------------------------

    def decode(self, idx):
        b, out = self.base.order, []
        for _ in range(self.degree):
            out.append(idx % b)
            idx //= b
        return out

    def encode(self, coords):
        i = 0
        for c in reversed(coords):
            i = i * self.base.order + c
        return i

    def format_idx(self, idx):
        return "(" + ",".join(str(c) for c in self.decode(idx)) + ")"

    def embed(self, base_idx: int) -> int:
        """Index of a base-field element inside this extension (identity)."""
        return base_idx

    def in_base(self, idx: int) -> bool:
        return idx < self.base.order

    # -- scalar arithmetic -------------------------------------------------

    def add(self, a, b):
        ca, cb = self.decode(a), self.decode(b)
        badd = self.base.add
        return self.encode([badd(x, y) for x, y in zip(ca, cb)])

    def neg(self, a):
        bneg = self.base.neg
        return self.encode([bneg(x) for x in self.decode(a)])

    def mul(self, a, b):
        if self._log is not None:
            if a == 0 or b == 0:
                return 0
            return self._exp[(self._log[a] + self._log[b]) % (self.order - 1)]
        return self._mul_structural(a, b)

    def _mul_structural(self, a, b):
        d, base = self.degree, self.base
        ca, cb = self.decode(a), self.decode(b)
        conv = [0] * (2 * d - 1)
        for i, x in enumerate(ca):
            if x:
                for j, y in enumerate(cb):
                    if y:
                        conv[i + j] = base.add(conv[i + j], base.mul(x, y))
        out = conv[:d]
        for k in range(d, 2 * d - 1):
            c = conv[k]
            if c:
                row = self._red_rows[k - d]
                out = [base.add(out[i], base.mul(c, row[i])) for i in range(d)]
        return self.encode(out)

    # -- Frobenius and trace ------------------------------------------------

    def frobenius(self, a: int, i: int = 1) -> int:
        """a^(q^i) where q is the immediate base order."""
        i %= self.degree
        if i == 0 or a == 0:
            return a
        return self.pow(a, pow(self.base.order, i, self.order - 1))

    def trace(self, a: int) -> int:
        """Sum of Frobenius conjugates; lands in (and is returned in) the base field."""
        s, y = a, a
        for _ in range(self.degree - 1):
            y = self.frobenius(y, 1)
            s = self.add(s, y)
        coords = self.decode(s)
        if any(coords[1:]):
            raise ArithmeticError(
                f"trace of {self.format_idx(a)} not fixed by Frobenius: arithmetic bug")
        return coords[0]

    def solve_power_q_minus_1(self, lam: int) -> int:
        """Canonical a with a^(q-1) = lam, q the base order.

        Solvable iff lam lies in the image subgroup (order (Q-1)/(q-1));
        the canonical solution is g^t for the least t with g^(t(q-1)) = lam.
        """
        q = self.base.order
        m = (self.order - 1) // (q - 1) if q > 2 else self.order - 1
        if q == 2:
            # x^(q-1) = x^1: every lam has itself as preimage
            if lam == 0:
                raise NoSolution("0 is not a (q-1)-th power of a unit")
            return lam
        if lam == 0 or self.pow(lam, m) != 1:
            raise NoSolution(f"{self.format_idx(lam)}^{m} != 1: no a with a^(q-1) = lam")
        g = self.generator
        h = self.pow(g, q - 1)
        cur = 1
        for t in range(m):
            if cur == lam:
                return self.pow(g, t)
            cur = self.mul(cur, h)
        raise NoSolution("discrete log scan failed")  # pragma: no cover

    # -- bulk arithmetic ----------------------------------------------------

    @property
    def frob_table(self):
        """Index array: frob_table[x] = x^q (q = base order)."""
        if self._frob_np is None:
            self._frob_np = self.arr_pow(self.all_indices(), self.base.order)
        return self._frob_np

    def arr_trace(self, u):
        """Trace of each entry; result entries are base-field indices."""
        s, y = u, u
        for _ in range(self.degree - 1):
            y = self.frob_table[y]
            s = self.arr_add(s, y)
        return s  # base elements embed as themselves

    def __str__(self):
        return f"F_{self.order}"

    def __repr__(self):
        mod = ",".join(str(c) for c in self.modulus)
        return f"ExtensionField(base={self.base!r}, d={self.degree}, mod=[{mod}])"


# -- polynomial helpers over a base context (coefficient lists, low first) --

def _poly_trim(cs):
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _poly_mul(base: FieldCtx, a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = base.add(out[i + j], base.mul(x, y))
    return _poly_trim(out)


def _poly_divmod(base: FieldCtx, num, den):
    num = list(num)
    dd = len(den) - 1
    inv_lead = base.inv(den[-1])
    quot = [0] * max(0, len(num) - dd)
    for k in range(len(num) - 1, dd - 1, -1):
        c = base.mul(num[k], inv_lead)
        if c:
            quot[k - dd] = c
            for j in range(dd + 1):
                num[k - dd + j] = base.sub(num[k - dd + j], base.mul(c, den[j]))
    return quot, _poly_trim(num[:dd])


def is_irreducible(base: FieldCtx, coeffs) -> bool:
    """Trial-division irreducibility for a monic polynomial over `base`.

    Checks divisibility by every monic polynomial of degree 1..deg/2.
    """
    d = len(coeffs) - 1
    if d < 1 or coeffs[-1] != 1:
        return False
    if d == 1:
        return True
    b = base.order
    for k in range(1, d // 2 + 1):
        for lowidx in range(b ** k):
            low, i = [], lowidx
            for _ in range(k):
                low.append(i % b)
                i //= b
            _, rem = _poly_divmod(base, coeffs, low + [1])
            if not rem:
                return False
    return True


def find_irreducible(base: FieldCtx, d: int) -> tuple:
    """Lexicographically smallest monic irreducible of degree d over `base`.

    Candidates are scanned by the base-b integer encoding of the non-leading
    coefficient tuple (low-degree coefficient least significant).
    """
    b = base.order
    for lowidx in range(b ** d):
        low, i = [], lowidx
        for _ in range(d):
            low.append(i % b)
            i //= b
        cand = low + [1]
        if is_irreducible(base, cand):
            return tuple(cand)
    raise NoSolution(f"no irreducible of degree {d} over {base}")  # pragma: no cover


# -- construction (memoized so repeated builds share a context) -------------

_prime_cache: dict = {}
_ext_cache: dict = {}


def build_prime_field(p: int, cap: int | None = None) -> PrimeField:
    """The prime field F_p."""
    cap = DEFAULT_CAP if cap is None else cap
    if p > cap:  # before the trial-division primality test
        raise TooLarge(f"order {p} exceeds cap {cap}")
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if p not in _prime_cache:
        _prime_cache[p] = PrimeField(p)
    return _prime_cache[p]


def build_extension(base: FieldCtx, d: int, modulus=None,
                    cap: int | None = None) -> ExtensionField:
    """Degree-d extension of `base`.

    Without an explicit modulus the lexicographically smallest monic
    irreducible of degree d is used, so the construction is reproducible.
    """
    cap = DEFAULT_CAP if cap is None else cap
    if d < 2:
        raise BadParams(f"extension degree must be >= 2, got {d}")
    # b^d >= 2^d: reject huge d before computing the power
    if d > cap.bit_length() or base.order ** d > cap:
        raise TooLarge(f"order {base.order}^{d} exceeds cap {cap}")
    if modulus is None:
        modulus = find_irreducible(base, d)
    else:
        modulus = tuple(int(c) for c in modulus)
        if len(modulus) != d + 1 or modulus[-1] != 1:
            raise BadParams(f"modulus must be monic of degree {d}")
        if not all(0 <= c < base.order for c in modulus):
            raise BadParams("modulus coefficients out of range for the base field")
        if not is_irreducible(base, list(modulus)):
            raise BadParams("modulus is reducible")
    key = (id(base), d, modulus)
    if key not in _ext_cache:
        _ext_cache[key] = ExtensionField(base, d, modulus)
    return _ext_cache[key]


def build_tower(p: int, k: int = 1, n: int | None = None, modulus=None,
                cap: int | None = None):
    """F_p -> F_{p^k} -> F_{(p^k)^n} tower; returns the outermost context.

    An explicit modulus applies to the outermost extension only.
    """
    ctx = build_prime_field(p, cap=cap)
    if k > 1:
        ctx = build_extension(ctx, k, modulus=modulus if n is None else None, cap=cap)
    if n is not None:
        if n < 2:
            raise BadParams(f"extension degree must be >= 2, got {n}")
        ctx = build_extension(ctx, n, modulus=modulus, cap=cap)
    return ctx


def field_for_q_squared(q: int, cap: int | None = None) -> ExtensionField:
    """The quadratic extension F_{q^2} over F_q, building F_q from q = p^k."""
    cap = DEFAULT_CAP if cap is None else cap
    if q * q > cap:  # before the trial-division factorization
        raise TooLarge(f"order {q}^2 exceeds cap {cap}")
    f = factorize(q)
    if len(f) != 1:
        raise NotPrime(f"{q} is not a prime power")
    (p, k), = f.items()
    return build_tower(p, k=k, n=2, cap=cap)

