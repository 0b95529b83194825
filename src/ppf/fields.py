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
when p = 2) in every context.  Elements are these plain indices throughout;
one digit codec (`_to_digits`/`_from_digits`, on ints and index arrays)
converts between an index and its coordinates, and also packs the vectors
of F_q^n.

Every context is built with its discrete log/exp tables (int64 arrays)
before it is handed out, and at odd characteristic also with its Zech
logarithms Z[d] = log(1 + g^d), an int32 table of Q - 1 entries (4 bytes
per element, 4 MB at F_{1021^2}).  Construction needs no tables
of its own: the modulus comes from Rabin's irreducibility test in scalar
base arithmetic, and the canonical generator and the exp table from a
structural array multiply (coordinate convolution over the base, then
reduction by the modulus), so a tower of low-degree steps builds in well
under a second up to the 2^20 cap.  After that, scalar multiplication,
powers, inverses and element orders are table lookups; scalar addition and
negation, and the bulk operations on numpy arrays of indices (`arr_*`
methods) which the permutation-sweep machinery runs on, work on the base-p
digits of the whole tower (addition, negation, summation) or on the tables
(multiplication, powering).  A polynomial's table (`polynomial_table`) is
one exp gather per term summed by XOR at p = 2; at odd p the terms are
summed as logarithms through the Zech table (Huber 1990), with one exp
gather at the end.

`FieldCtx` defines each of these rules once for every context; `PrimeField`
keeps only its one-digit mod-p products (and scalar sums, which Rabin's test
runs on), and `ExtensionField` its tower structure.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    BadParams,
    CharThree,
    DivisionByZero,
    NoSolution,
    NotDivisor,
    NotPrime,
    TooLarge,
    ZeroElement,
)

DEFAULT_CAP = 1 << 20
_GENERATOR_CHUNK = 64  # candidates tested per array pass of the generator search


def is_prime(n: int) -> bool:
    """Primality by `factorize`'s trial division; fields here are desk-scale."""
    return factorize(n) == {n: 1}


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
    """Digitwise sum mod p of ints or index arrays whose entries are base-p
    digit strings below `order` (field elements, or packed vectors of F_q^n).

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


def _digitwise_neg(u, p: int, order: int):
    """Digitwise negation mod p, on an int or an index array, like
    `_digitwise_add`; u itself at p = 2."""
    if p == 2:
        return u
    out, w = (-u) % p, p
    while w < order:
        u = u // p
        out += (-u) % p * w
        w *= p
    return out


def _to_digits(x, b: int, n: int) -> list:
    """The n little-endian base-b digits of x, an int or an index array: a
    field element's coordinates over its base, or a packed vector's
    coordinates in F_q^n.  Never writes into x."""
    out = []
    for _ in range(n):
        out.append(x % b)
        x = x // b
    return out


def _from_digits(digits, b: int):
    """Inverse of `_to_digits`: digits[0] + digits[1]*b + ... (ints or arrays)."""
    x = 0
    for c in reversed(digits):
        x = x * b + c
    return x


class FieldCtx:
    """Common behaviour of prime fields and extension fields.

    Immutable after construction; safe to share across workers.  Elements
    are plain integer indices, and every scalar method takes and returns them.
    """

    p: int
    order: int
    degree: int
    base: "FieldCtx | None"
    modulus: tuple | None

    def __init__(self):
        self._generator = None
        self._exp_np = None   # exp[i] = g^i for i in [0, order-2]
        self._log_np = None   # log[x] = i with g^i = x; log[0] = -1
        self._exp = None      # zero-copy memoryviews of the two arrays,
        self._log = None      # for scalar lookups that yield Python ints
        self._exp_code_np = None  # exp over the log codes: _exp_np plus a
                                  # trailing 0 at the zero code order-1
        self._zech_np = None  # odd p: Zech logarithms (int32)
        self._frob_np = None

    # -- representation ------------------------------------------------

    def from_int(self, n: int) -> int:
        """Index of the constant n (i.e. n * 1, reduced mod p)."""
        return n % self.p

    # -- scalar arithmetic on indices -----------------------------------

    def add(self, a: int, b: int) -> int:
        return _digitwise_add(a, b, self.p, self.order)

    def neg(self, a: int) -> int:
        return _digitwise_neg(a, self.p, self.order)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.order - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero(f"inverse of 0 in {self}")
        return self._exp[-self._log[a] % (self.order - 1)]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a, e = self.inv(a), -e
        if a == 0:
            return 1 if e == 0 else 0
        return self._exp[(self._log[a] * e) % (self.order - 1)]

    # -- multiplicative structure ---------------------------------------

    def element_order(self, a: int) -> int:
        """Least t >= 1 with a^t = 1: (order-1) / gcd(log a, order-1)."""
        if a == 0:
            raise ZeroElement(f"order of 0 in {self}")
        n = self.order - 1
        return n // math.gcd(self._log[a], n)

    @property
    def generator(self) -> int:
        """Smallest index (canonical enumeration) of full multiplicative order.

        Tests _GENERATOR_CHUNK candidates per pass: a has full order iff
        a^((order-1)/l) != 1 for every prime l dividing order-1.  Needs no
        tables (powers by the structural multiply).
        """
        if self._generator is None:
            n = self.order - 1
            cofactors = [n // ell for ell in factorize(n)]
            for start in range(1, self.order, _GENERATOR_CHUNK):
                cand = np.arange(start, min(start + _GENERATOR_CHUNK, self.order),
                                 dtype=np.int64)
                full = np.ones(len(cand), dtype=bool)
                for e in cofactors:
                    full &= self._arr_pow_structural(cand, e) != 1
                if full.any():
                    self._generator = int(cand[full.argmax()])
                    break
            else:
                raise ArithmeticError(f"{self} has no generator: modulus reducible")
        return self._generator

    def _arr_pow_structural(self, u, e: int):
        """Elementwise u^e (e >= 0) by square-and-multiply, without tables."""
        out = np.ones_like(u)
        while e:
            if e & 1:
                out = self._arr_mul_structural(out, u)
            e >>= 1
            if e:
                u = self._arr_mul_structural(u, u)
        return out

    def _powers(self, x: int, count: int):
        """x^0, ..., x^(count-1) as an array, by doubling: the powers so far
        times x^len, one structural multiply per step."""
        pw = np.ones(1, dtype=np.int64)
        while len(pw) < count:
            step = self._arr_mul_structural(pw[-1:], np.array([x], dtype=np.int64))
            pw = np.concatenate([pw, self._arr_mul_structural(pw, step)])
        return pw[:count]

    def ensure_tables(self):
        """Build the discrete log/exp tables (done at construction), and at
        odd p the Zech logarithms.

        exp is filled blockwise: with m = ceil(sqrt(order-1)) small powers
        g^j and the block starts G^k, G = g^m, one structural multiply of
        the outer product gives g^(km+j); it has at least order entries, and
        the one past the units becomes the image 0 of the zero code.  log is
        one scatter.  Raises ArithmeticError unless exp is a permutation of
        1..order-1.

        The Zech table is Z[d] = log(1 + g^d) for d in [0, order-1), built
        as Z[log x] = log(x + 1) over the units x in index order: adding 1
        changes only the lowest base-p digit of an index, so x + 1 is
        x + 1 - p where that digit is p-1.  At d = (order-1)/2, where
        g^d = -1, it holds the zero code order-1.  int32 halves its memory
        (4 MB at F_{1021^2}).
        """
        if self._exp is not None:
            return
        g, n = self.generator, self.order - 1
        m = math.isqrt(n - 1) + 1
        small = self._powers(g, m)                                  # g^j, j < m
        g_m = self._arr_mul_structural(small[-1:], np.array([g], dtype=np.int64))
        starts = self._powers(int(g_m[0]), n // m + 1)              # g^(km)
        exp_code = self._arr_mul_structural(starts[:, None], small[None, :]).ravel()[:n + 1]
        exp_code[n] = 0
        exp = exp_code[:n]
        log = np.full(self.order, -1, dtype=np.int64)
        log[exp] = np.arange(n, dtype=np.int64)
        if log[0] != -1 or (log[1:] < 0).any():
            raise ArithmeticError(f"powers of {self.format_idx(g)} in {self} "
                                  "are not a permutation of the units")
        self._exp_np, self._log_np, self._exp_code_np = exp, log, exp_code
        self._exp, self._log = memoryview(exp), memoryview(log)
        if self.p > 2:
            p = self.p
            succ = np.arange(2, self.order + 1, dtype=np.int64)    # x + 1, x = 1..n
            succ[p - 2::p] -= p
            zech = np.empty(n, dtype=np.int32)
            zech[log[1:]] = log[succ]
            zech[n // 2] = n
            self._zech_np = zech

    def subgroup_mu(self, d: int) -> list:
        """The d-th roots of unity, as powers g^((order-1)/d * j), j = 0..d-1."""
        n = self.order - 1
        if d <= 0 or n % d != 0:
            raise NotDivisor(f"{d} does not divide {n}")
        return self._exp_np[::n // d].tolist()

    def element_of_order(self, d: int) -> int:
        """Canonical element of exact order d: g^((order-1)/d)."""
        n = self.order - 1
        if d <= 0 or n % d != 0:
            raise NotDivisor(f"{d} does not divide {n}")
        return self._exp[n // d]

    def order3_element(self) -> int:
        """Canonical element of multiplicative order 3."""
        if self.p == 3:
            raise CharThree("no element of order 3 in characteristic 3")
        return self.element_of_order(3)

    # -- bulk (numpy) arithmetic on index arrays -------------------------

    def arr_add(self, u, v):
        return _digitwise_add(u, v, self.p, self.order)

    def arr_neg(self, u):
        return np.copy(u) if self.p == 2 else _digitwise_neg(u, self.p, self.order)

    def arr_sub(self, u, v):
        return self.arr_add(u, self.arr_neg(v))

    def arr_mul(self, u, v):
        out = self._exp_np[(self._log_np[u] + self._log_np[v]) % (self.order - 1)]
        return np.where((u == 0) | (v == 0), 0, out)

    def arr_scale(self, u, c: int):
        """Multiply an index array by the constant index c."""
        if c == 0:
            return np.zeros_like(u)
        if c == 1:
            return u.copy()
        out = self._exp_np[(self._log_np[u] + self._log[c]) % (self.order - 1)]
        return np.where(u == 0, 0, out)

    def arr_pow(self, u, e: int):
        """Elementwise u^e for integer e >= 0 (0^0 = 1)."""
        if e == 0:
            return np.ones_like(u)
        # reduce e first: log * e must not wrap in int64 (e > 0 keeps 0^e = 0)
        out = self._exp_np[(self._log_np[u] * (e % (self.order - 1))) % (self.order - 1)]
        return np.where(u == 0, 0, out)

    def _monomial_logs(self, e: int, c: int, plus=None):
        """log c + e log x (+ plus) mod (Q-1) at every index x, as an int64
        array; entry 0 is meaningless (log 0 = -1).

        The log table is the log of the enumeration itself.  e is reduced as
        a Python int first, so e log x stays below (Q-1)^2, far inside int64
        under the cap, for any e (negative e included).
        """
        n = self.order - 1
        logs = self._log_np * (e % n)
        logs += self._log[c]
        if plus is not None:
            logs += plus
        logs -= logs // n * n   # logs % n, but cheaper than % on int64 arrays
        return logs

    def monomial_table(self, e: int, c: int):
        """Table of x -> c x^e (e >= 1, c != 0) over the canonical enumeration:
        one exp gather of log c + e log x, entry 0 set to 0 afterwards."""
        out = self._exp_np[self._monomial_logs(e, c)]
        out[0] = 0
        return out

    def polynomial_table(self, terms):
        """Table of x -> sum of c x^e over the canonical enumeration, for
        (e, c) terms with distinct exponents, c != 0, sorted by e.

        At p = 2 the terms are gathered by `monomial_table` and summed by
        `arr_add`, an XOR.  At odd p the sum stays in the log domain.  With
        T_i = c_i x^(e_i) and r_i = T_(i+1)/T_i, a monomial of log
        log(c_(i+1)/c_i) + (e_(i+1) - e_i) log x,

            sum T_i = T_1 (1 + r_1 (1 + r_2 (... (1 + r_(k-1))))),

        and log(1 + y) = Z[log y] is one Zech lookup, from the innermost
        bracket out.  Where a bracket vanishes its log is the zero code
        Q-1, and the next bracket out is 1; where the whole sum vanishes the
        final gather maps the zero code to 0.  Each further term costs its
        monomial's logs and one Zech gather, and the table one exp gather.
        Entry 0 is the constant term.
        """
        if not terms:
            return np.zeros(self.order, dtype=np.int64)
        if self.p == 2:
            acc = None
            for e, c in terms:
                term = (np.full(self.order, c, dtype=np.int64) if e == 0
                        else self.monomial_table(e, c))
                acc = term if acc is None else self.arr_add(acc, term)
            return acc
        n, zech = self.order - 1, self._zech_np
        inner = zeros = None  # log of the bracket so far; where it is 0
        for (e, c), (e1, c1) in reversed(list(zip(terms, terms[1:]))):
            inner = zech[self._monomial_logs(e1 - e, self.div(c1, c), inner)]
            if zeros is not None:
                inner[zeros] = 0
            zeros = np.flatnonzero(inner == n)
        e, c = terms[0]
        logs = self._monomial_logs(e, c, inner)
        if zeros is not None:
            logs[zeros] = n
        out = self._exp_code_np[logs]
        out[0] = c if e == 0 else 0
        return out

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

    # one-digit fast paths of the shared rules: Rabin's test runs on them
    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def arr_mul(self, u, v):
        return (u * v) % self.p

    _arr_mul_structural = arr_mul

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
        return _to_digits(idx, self.base.order, self.degree)

    def encode(self, coords):
        return _from_digits(coords, self.base.order)

    def format_idx(self, idx):
        return "(" + ",".join(str(c) for c in self.decode(idx)) + ")"

    def in_base(self, idx: int) -> bool:
        return idx < self.base.order

    def _arr_mul_structural(self, u, v):
        """Elementwise product of index arrays (broadcasting) without this
        field's tables: the coordinates over the base are convolved with the
        base's array arithmetic, then t^d .. t^(2d-2) are reduced by the
        modulus rows."""
        d, base = self.degree, self.base
        cu, cv = self.decode(u), self.decode(v)
        conv = [None] * (2 * d - 1)
        for i in range(d):
            for j in range(d):
                t = base.arr_mul(cu[i], cv[j])
                conv[i + j] = t if conv[i + j] is None else base.arr_add(conv[i + j], t)
        out = conv[:d]
        for k in range(d, 2 * d - 1):
            for i, c in enumerate(self._red_rows[k - d]):
                if c:
                    out[i] = base.arr_add(out[i], base.arr_scale(conv[k], c))
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

        The canonical solution is g^t for the least t with g^(t(q-1)) = lam,
        that is t = log lam / (q-1); there is none unless q-1 divides log lam.
        """
        q = self.base.order
        if lam == 0 or self._log[lam] % (q - 1):
            raise NoSolution(f"no a with a^{q - 1} = {self.format_idx(lam)}")
        return self._exp[self._log[lam] // (q - 1)]

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


def _poly_rem(base: FieldCtx, num, den):
    """Remainder of num modulo den (den trimmed, nonzero)."""
    num = list(num)
    dd = len(den) - 1
    inv_lead = base.inv(den[-1])
    for k in range(len(num) - 1, dd - 1, -1):
        c = base.mul(num[k], inv_lead)
        if c:
            for j in range(dd + 1):
                num[k - dd + j] = base.sub(num[k - dd + j], base.mul(c, den[j]))
    return _poly_trim(num[:dd])


def _poly_mulmod(base: FieldCtx, a, b, f):
    prod = [0] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    prod[i + j] = base.add(prod[i + j], base.mul(x, y))
    return _poly_rem(base, prod, f)


def _poly_powmod(base: FieldCtx, a, e: int, f):
    out = [1]
    while e:
        if e & 1:
            out = _poly_mulmod(base, out, a, f)
        e >>= 1
        if e:
            a = _poly_mulmod(base, a, a, f)
    return out


def _poly_gcd(base: FieldCtx, a, b):
    while b:
        a, b = b, _poly_rem(base, a, b)
    return a


def is_irreducible(base: FieldCtx, coeffs) -> bool:
    """Rabin's test for a monic polynomial f of degree d over `base` (order b).

    f is irreducible iff x^(b^d) = x mod f and gcd(x^(b^(d/r)) - x, f) = 1
    for every prime r dividing d (Rabin 1980, "Probabilistic algorithms in
    finite fields").  The powers x^(b^i) mod f are taken one Frobenius step
    at a time, in scalar base arithmetic.
    """
    d = len(coeffs) - 1
    if d < 1 or coeffs[-1] != 1:
        return False
    f = list(coeffs)
    x = _poly_rem(base, [0, 1], f)
    stops = {d // r for r in factorize(d)}
    h = x
    for i in range(1, d + 1):
        h = _poly_powmod(base, h, base.order, f)
        if i in stops:
            diff = h + [0] * (2 - len(h))  # h - x; x mod f is x itself as d > 1
            diff[1] = base.sub(diff[1], 1)
            if len(_poly_gcd(base, f, _poly_trim(diff))) > 1:
                return False
    return h == x


def find_irreducible(base: FieldCtx, d: int) -> tuple:
    """Lexicographically smallest monic irreducible of degree d over `base`.

    Candidates are scanned by the base-b integer encoding of the non-leading
    coefficient tuple (low-degree coefficient least significant).
    """
    b = base.order
    for lowidx in range(b ** d):
        cand = _to_digits(lowidx, b, d) + [1]
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
        ctx = PrimeField(p)
        ctx.ensure_tables()
        _prime_cache[p] = ctx
    return _prime_cache[p]


def build_extension(base: FieldCtx, d: int, modulus=None,
                    cap: int | None = None) -> ExtensionField:
    """Degree-d extension of `base`.

    Without an explicit modulus the lexicographically smallest monic
    irreducible of degree d is used, so the construction is reproducible;
    that context is also cached under modulus None, so a repeat build skips
    the search.
    """
    cap = DEFAULT_CAP if cap is None else cap
    if d < 2:
        raise BadParams(f"extension degree must be >= 2, got {d}")
    # b^d >= 2^d: reject huge d before computing the power
    if d > cap.bit_length() or base.order ** d > cap:
        raise TooLarge(f"order {base.order}^{d} exceeds cap {cap}")
    default_key = (id(base), d, None)
    searched = modulus is None
    if searched:
        if default_key in _ext_cache:
            return _ext_cache[default_key]
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
        ctx = ExtensionField(base, d, modulus)
        ctx.ensure_tables()
        _ext_cache[key] = ctx
    if searched:
        _ext_cache[default_key] = _ext_cache[key]
    return _ext_cache[key]


def build_tower(p: int, k: int = 1, n: int | None = None, modulus=None,
                cap: int | None = None):
    """F_p -> F_{p^k} -> F_{(p^k)^n} tower; returns the outermost context.

    An explicit modulus applies to the outermost extension only.  BadParams
    for k < 1, or for a modulus when no extension is built.
    """
    if k < 1:
        raise BadParams(f"base degree k must be >= 1, got {k}")
    if modulus is not None and k == 1 and n is None:
        raise BadParams("a modulus needs an extension (k > 1 or n), got F_p alone")
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

