"""Eight families of binomial-power polynomials over F_{q^2} and their
necessary-and-sufficient permutation conditions, verified against the
exhaustive oracle.

Every family has the shape (c1 x + d1 x^q)^m + eps (c2 x + d2 x^q)^n with
the linear-form coefficients drawn from {1, +-1, +-omega} (omega of
multiplicative order 3) or from the norm-one subgroup mu_{q+1}:

    1:  (x + a x^q)^m + eps (x + b x^q)^n      a != b in mu_{q+1}, eps in F_{q^2}*
    2:  (x + x^q)^m + eps (x +- w x^q)^n       q = 1 (mod 3), eps in F_q*
    3:  (x + w x^q)^m + eps (w x + x^q)^n      q = 1 (mod 3), eps in F_q*
    4:  (x + w x^q)^m + eps (w x - x^q)^n      q = 1 (mod 3), eps in F_q*
    5:  (x + x^q)^m + eps (x + w x^q)^n        q = 2 (mod 3), extended eps
    6:  (x + x^q)^m + eps (x - w x^q)^n        q = 2 (mod 3), extended eps
    7:  (x + w x^q)^m + eps (w x + x^q)^n      q = 2 (mod 3), extended eps
    8:  (x + w x^q)^m + eps (w x - x^q)^n      q = 2 (mod 3), extended eps

where "extended eps" means F_q* together with the tagged specials
{+-w, +-w^2}.  In even characteristic the sign collapses (+1 = -1), so the
minus families 4, 6, 8 induce the same polynomials as 3, 5, 7 and inherit
their conditions.

The tabulated conditions for families 1 and 5-8 agree with the brute-force
oracle on every tested field.  For q = 1 (mod 3) the order-3 element is not
a (q-1)-th power in F_{q^2} (w^(q+1) != 1), the change of variables that
justifies the q = 2 (mod 3) families does not exist, and the tabulated
gcd-style conditions of families 2-4 are refuted by the oracle; the sweep
records those disagreements rather than hiding them.
"""

from __future__ import annotations

import functools
import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from math import comb, gcd
from typing import Optional

import numpy as np

from .errors import (
    BadCongruence,
    BadKind,
    BadModulusClass,
    BadParams,
    EpsilonDomain,
    ZeroElement,
)
from .fields import ExtensionField, field_for_q_squared
from .linalg import is_linearly_independent
from .polys import SparsePoly, first_collisions

BINOMIAL_CAP = 64  # exponents expanded with exact integer binomials

EPS_TAGS = ("base_star", "ext_star", "plus_omega", "minus_omega",
            "plus_omega_sq", "minus_omega_sq")


@dataclass(frozen=True)
class EpsilonSpec:
    """eps as a tagged value: the tag decides the condition branch for the
    extended-domain families, the value feeds family 1's inequality."""

    tag: str
    value: Optional[int] = None  # element index, for base_star / ext_star

    def __post_init__(self):
        if self.tag not in EPS_TAGS:
            raise EpsilonDomain(f"unknown epsilon tag {self.tag!r}")
        if self.tag in ("base_star", "ext_star") and not self.value:
            raise EpsilonDomain(f"tag {self.tag!r} requires a nonzero value")

    def resolve(self, ctx: ExtensionField, omega: int) -> int:
        if self.tag in ("base_star", "ext_star"):
            return self.value
        if not omega:
            raise EpsilonDomain(f"tag {self.tag!r} needs an order-3 element")
        w2 = ctx.mul(omega, omega)
        return {"plus_omega": omega, "minus_omega": ctx.neg(omega),
                "plus_omega_sq": w2, "minus_omega_sq": ctx.neg(w2)}[self.tag]

    def omega_residue(self) -> Optional[int]:
        """Exponent j with eps ~ (+-)w^j, or None for plain values."""
        return {"base_star": 0, "plus_omega": 1, "minus_omega": 1,
                "plus_omega_sq": 2, "minus_omega_sq": 2}.get(self.tag)


def eps_base(value: int) -> EpsilonSpec:
    return EpsilonSpec("base_star", value)


def eps_ext(value: int) -> EpsilonSpec:
    return EpsilonSpec("ext_star", value)


@dataclass(frozen=True)
class FamilyParams:
    """One instance of a family: which polynomial and which parameter choices."""

    family: int
    q: int
    m: int
    n: int
    epsilon: EpsilonSpec
    alpha_idx: Optional[int] = None   # mu_{q+1} indices, family 1 only
    beta_idx: Optional[int] = None
    omega_choice: int = 1             # 1: canonical order-3 element, 2: its square
    sign: int = 1                     # family 2 only: +-


def applicable_families(q: int) -> list:
    if q % 3 == 0:
        return [1]
    return [1, 2, 3, 4] if q % 3 == 1 else [1, 5, 6, 7, 8]


def _omega(ctx: ExtensionField, choice: int) -> int:
    w = ctx.order3_element()
    return w if choice == 1 else ctx.mul(w, w)


def _check_mu_index(q: int, idx: int, name: str) -> None:
    """mu_{q+1} has q + 1 elements, indexed 0..q."""
    if not 0 <= idx <= q:
        raise BadParams(f"{name} must lie in 0..{q} (an index into mu_{q + 1}), got {idx}")


def validate_params(ctx: ExtensionField, p: FamilyParams) -> None:
    if p.family not in range(1, 9):
        raise BadParams(f"family must be 1..8, got {p.family}")
    if ctx.base.order != p.q or ctx.degree != 2:
        raise BadParams("context is not the quadratic extension for this q")
    if p.m < 1 or p.n < 1:
        raise BadParams("m, n must be positive")
    if p.family != 1 and p.family not in applicable_families(p.q):
        raise BadModulusClass(f"family {p.family} needs q = "
                              f"{1 if p.family <= 4 else 2} (mod 3), got q={p.q}")
    if p.family == 1:
        if p.alpha_idx is None or p.beta_idx is None:
            raise BadParams("family 1 needs alpha_idx and beta_idx")
        _check_mu_index(p.q, p.alpha_idx, "alpha_idx")
        _check_mu_index(p.q, p.beta_idx, "beta_idx")
        if p.alpha_idx == p.beta_idx:
            raise BadParams("family 1 needs distinct alpha, beta")
        if p.epsilon.tag not in ("ext_star", "plus_omega", "minus_omega",
                                 "plus_omega_sq", "minus_omega_sq"):
            raise EpsilonDomain("family 1 takes eps in the full unit group")
    elif p.family in (2, 3, 4):
        if p.epsilon.tag != "base_star" or not (0 < p.epsilon.value < p.q):
            raise EpsilonDomain(f"family {p.family} takes eps in the base unit group")
    else:
        if p.epsilon.tag == "ext_star":
            raise EpsilonDomain(f"family {p.family} takes base units or omega specials")
        if p.epsilon.tag == "base_star" and not (0 < p.epsilon.value < p.q):
            raise EpsilonDomain("base_star epsilon must be a nonzero base element")
    if p.sign not in (1, -1) or (p.family != 2 and p.sign != 1):
        raise BadParams("sign is +-1 and only family 2 has a sign choice")
    if p.omega_choice not in (1, 2):
        raise BadParams("omega_choice is 1 or 2")


def _branches(ctx: ExtensionField, p: FamilyParams):
    """((c1, d1), (c2, d2), omega) element indices for the two linear forms.

    They depend only on the variant (family, alpha/beta, omega choice, sign),
    not on m, n or eps; omega is 0 for family 1.
    """
    one = 1
    if p.family == 1:
        mu = ctx.subgroup_mu(p.q + 1)
        return (one, mu[p.alpha_idx]), (one, mu[p.beta_idx]), 0
    w = _omega(ctx, p.omega_choice)
    if p.family == 2:
        d2 = w if p.sign == 1 else ctx.neg(w)
        return (one, one), (one, d2), w
    if p.family == 3:
        return (one, w), (w, one), w
    if p.family == 4:
        return (one, w), (w, ctx.neg(one)), w
    if p.family == 5:
        return (one, one), (one, w), w
    if p.family == 6:
        return (one, one), (one, ctx.neg(w)), w
    if p.family == 7:
        return (one, w), (w, one), w
    return (one, w), (w, ctx.neg(one)), w


def _eps_value(ctx: ExtensionField, spec: EpsilonSpec, w: int) -> int:
    """eps as an element; the omega tags of family 1 (w = 0) refer to the
    canonical order-3 element."""
    return spec.resolve(ctx, w or (ctx.order3_element() if ctx.base.order % 3 else 0))


def expand_linear_power(ctx: ExtensionField, c: int, d: int, e: int) -> SparsePoly:
    """(c x + d x^q)^e expanded with exact integer binomial coefficients."""
    if e > BINOMIAL_CAP:
        raise BadParams(f"exponent {e} exceeds the binomial expansion cap {BINOMIAL_CAP}")
    q = ctx.base.order
    terms = []
    for i in range(e + 1):
        coef = comb(e, i) % ctx.p
        if not coef:
            continue
        cf = ctx.mul(ctx.from_int(coef),
                     ctx.mul(ctx.pow(c, i), ctx.pow(d, e - i)))
        if cf:
            terms.append((i + q * (e - i), cf))
    return SparsePoly(ctx, terms)


def construct_family(ctx: ExtensionField, p: FamilyParams) -> SparsePoly:
    """The reduced sparse polynomial of the family instance."""
    validate_params(ctx, p)
    (c1, d1), (c2, d2), w = _branches(ctx, p)
    poly = (expand_linear_power(ctx, c1, d1, p.m)
            + expand_linear_power(ctx, c2, d2, p.n).scale(_eps_value(ctx, p.epsilon, w)))
    return poly.reduce()


def _effective_family(family: int, even_char: bool) -> int:
    # the minus-sign families coincide with their plus twins when +1 = -1
    if even_char:
        return {4: 3, 6: 5, 8: 7}.get(family, family)
    return family


def ns_condition(ctx: ExtensionField, p: FamilyParams) -> bool:
    """The family's tabulated permutation condition (see module docstring)."""
    validate_params(ctx, p)
    eps = _eps_value(ctx, p.epsilon, _branches(ctx, p)[2])
    return bool(_conditions(ctx, p, [p.epsilon], [eps], [p.m], [p.n])[0, 0, 0])


def _conditions(ctx: ExtensionField, p: FamilyParams, eps_specs, eps_values,
                ms, ns) -> np.ndarray:
    """The tabulated condition over the eps x m x n grid of p's variant (p's
    own m, n and eps are ignored), shape (len(eps_specs), len(ms), len(ns)).

    Exponents stay Python integers until they are reduced, so any m, n is exact.
    """
    q = p.q
    shape = (len(eps_specs), len(ms), len(ns))
    grid = np.array([[gcd(m * n, q - 1) == 1 for n in ns] for m in ms])
    fam = _effective_family(p.family, ctx.p == 2)
    if fam == 1:
        (_, alpha), (_, beta), _ = _branches(ctx, p)
        lhs = np.array([[ctx.mul(ctx.pow(eps, q - 1), ctx.pow(alpha, m)) for m in ms]
                        for eps in eps_values])
        rhs = np.array([ctx.pow(beta, n) for n in ns])
        return grid & (lhs[:, :, None] != rhs)
    if fam == 3:
        grid &= np.array([[gcd(3, m - 2 * n) == 1 for n in ns] for m in ms])
    if fam in (2, 3, 4):
        return np.broadcast_to(grid, shape)
    js = [s.omega_residue() for s in eps_specs]
    if None in js:
        tag = eps_specs[js.index(None)].tag
        raise EpsilonDomain(f"family {p.family} got epsilon tag {tag!r}")
    if fam in (5, 7):
        # family 5: 3 does not divide j - n; family 7: 3 does not divide j + m - n
        shift = np.array([[(n - m * (fam == 7)) % 3 for n in ns] for m in ms])
        return grid & ((np.array(js)[:, None, None] - shift) % 3 != 0)
    return np.broadcast_to(grid, shape)  # families 6, 8 in odd characteristic


@dataclass
class AgreementReport:
    """Condition-vs-oracle outcome for one family instance."""

    family: int
    q: int
    m: int
    n: int
    alpha: str
    beta: str
    omega: str
    sign: str
    epsilon: dict
    predicted: bool
    oracle: bool
    agree: bool
    witness: Optional[list]

    def to_json(self) -> dict:
        return {"family": self.family, "q": self.q, "m": self.m, "n": self.n,
                "alpha": self.alpha, "beta": self.beta, "omega": self.omega,
                "sign": self.sign, "epsilon": self.epsilon,
                "predicted": self.predicted, "oracle": self.oracle,
                "agree": self.agree, "witness": self.witness}


def _direct_table(ctx: ExtensionField, c1, d1, c2, d2, m, n, eps) -> np.ndarray:
    xs = ctx.all_indices()
    xq = ctx.frob_table
    u = ctx.arr_add(ctx.arr_scale(xs, c1), ctx.arr_scale(xq, d1))
    v = ctx.arr_add(ctx.arr_scale(xs, c2), ctx.arr_scale(xq, d2))
    return ctx.arr_add(ctx.arr_pow(u, m), ctx.arr_scale(ctx.arr_pow(v, n), eps))


# -- the batched engine ----------------------------------------------------------

CHUNK_VALUES = 1 << 20  # table entries per chunk: max(1, CHUNK_VALUES // Q) instances


def _summand_tables(ctx: ExtensionField, c: int, d: int, exponents) -> np.ndarray:
    """Tables of (c x + d x^q)^e, one row per exponent, from the binomial
    expansion, each checked against direct pointwise evaluation.  Equal
    summands give equal eps-weighted sums, so this covers every instance."""
    lin = ctx.arr_add(ctx.arr_scale(ctx.all_indices(), c), ctx.arr_scale(ctx.frob_table, d))
    rows = []
    for e in exponents:
        table = expand_linear_power(ctx, c, d, e).to_table().values
        if not np.array_equal(table, ctx.arr_pow(lin, e)):
            raise ArithmeticError("binomial expansion disagrees with direct evaluation")
        rows.append(table)
    return np.array(rows)


def _reports(fmt, head: tuple, cells, predicted, values: np.ndarray) -> list:
    """One AgreementReport per row of the 2-D table array `values`.

    head: (family, q, alpha, beta, omega, sign), shared by the rows; cells:
    (m, n, eps tag, eps) per row; predicted: the condition per row.  One
    row-wise collision search gives every verdict and first witness.
    """
    family, q, alpha, beta, omega, sign = head
    hit, x1, x2 = first_collisions(values)
    return [AgreementReport(family, q, m, n, alpha, beta, omega, sign,
                            {"tag": tag, "value": fmt(eps)}, pred, not h, pred != h,
                            [fmt(a), fmt(b)] if h else None)
            for (m, n, tag, eps), pred, h, a, b
            in zip(cells, predicted, hit.tolist(), x1.tolist(), x2.tolist())]


def _variant_reports(ctx: ExtensionField, p: FamilyParams, eps_specs, ms, ns,
                     fmt, summands) -> list:
    """Reports for the eps x m x n grid of p's variant (family, alpha/beta,
    omega choice, sign; p's own m, n and eps are ignored), in grid order.

    Instance (eps, m, n) is the row first[m] + eps * second[n] of one 2-D
    table array, built and decided CHUNK_VALUES table entries at a time.
    fmt formats element indices and summands(c, d, exponents) builds summand
    tables (_summand_tables over ctx; sweeps pass per-block memos of both).
    """
    (c1, d1), (c2, d2), w = _branches(ctx, p)
    eps_values = [_eps_value(ctx, s, w) for s in eps_specs]
    first = summands(c1, d1, ms)
    second = summands(c2, d2, ns)
    cells = [(m, n, s.tag, eps) for s, eps in zip(eps_specs, eps_values)
             for m in ms for n in ns]
    if not cells:
        return []
    predicted = _conditions(ctx, p, eps_specs, eps_values, ms, ns).ravel().tolist()
    head = (p.family, p.q, fmt(d1), fmt(d2), fmt(w) if w else "",
            "-" if p.sign < 0 else "+")
    eps_col = np.array(eps_values)[:, None]
    M, N = len(ms), len(ns)
    step = max(1, CHUNK_VALUES // ctx.order)
    reports = []
    for r0 in range(0, len(cells), step):
        r = np.arange(r0, min(r0 + step, len(cells)))
        values = ctx.arr_add(first[r // N % M],
                             ctx.arr_mul(eps_col[r // (M * N)], second[r % N]))
        reports += _reports(fmt, head, cells[r0:r0 + step], predicted[r0:r0 + step],
                            values)
    return reports


def check_family(ctx: ExtensionField, p: FamilyParams) -> AgreementReport:
    """Condition vs exhaustive oracle for one instance: the engine on a
    1 x 1 x 1 grid, with the expansion checked against direct evaluation."""
    validate_params(ctx, p)
    return _variant_reports(ctx, p, [p.epsilon], [p.m], [p.n], ctx.format_idx,
                            functools.partial(_summand_tables, ctx))[0]


def params_from_report(record: dict) -> FamilyParams:
    """Reconstruct FamilyParams from a report record (for re-running)."""
    from .polys import parse_element
    q = record["q"]
    ctx = field_for_q_squared(q)
    fam = record["family"]
    eps_tag = record["epsilon"]["tag"]
    if eps_tag in ("base_star", "ext_star"):
        eps = EpsilonSpec(eps_tag, parse_element(ctx, record["epsilon"]["value"]))
    else:
        eps = EpsilonSpec(eps_tag)
    alpha_idx = beta_idx = None
    omega_choice = 1
    if fam == 1:
        mu = ctx.subgroup_mu(q + 1)
        alpha_idx = mu.index(parse_element(ctx, record["alpha"]))
        beta_idx = mu.index(parse_element(ctx, record["beta"]))
    elif record["omega"]:
        omega_choice = 1 if parse_element(ctx, record["omega"]) == ctx.order3_element() else 2
    return FamilyParams(family=fam, q=q, m=record["m"], n=record["n"],
                        epsilon=eps, alpha_idx=alpha_idx, beta_idx=beta_idx,
                        omega_choice=omega_choice,
                        sign=-1 if record["sign"] == "-" else 1)


# -- sweep --------------------------------------------------------------------

EPS_EXHAUSTIVE_MAX_Q = 9
EPS_SAMPLE_SIZE = 10
OMEGA_SPECIAL_TAGS = ("plus_omega", "minus_omega", "plus_omega_sq", "minus_omega_sq")


def _eps_specs(ctx: ExtensionField, family: int, q: int, rng: random.Random) -> list:
    """The epsilon grid for one family: exhaustive for small q, otherwise a
    seeded sample plus the omega specials."""
    if family == 1:
        domain = range(1, ctx.order)
        if q <= EPS_EXHAUSTIVE_MAX_Q:
            return [eps_ext(v) for v in domain]
        vals = sorted(rng.sample(list(domain), EPS_SAMPLE_SIZE))
        if q % 3:
            w = ctx.order3_element()
            w2 = ctx.mul(w, w)
            for s in (w, ctx.neg(w), w2, ctx.neg(w2)):
                if s not in vals:
                    vals.append(s)
        return [eps_ext(v) for v in vals]
    base_domain = range(1, q)
    if q <= EPS_EXHAUSTIVE_MAX_Q:
        base = [eps_base(v) for v in base_domain]
    else:
        base = [eps_base(v) for v in sorted(rng.sample(list(base_domain),
                                                       min(EPS_SAMPLE_SIZE, q - 1)))]
    if family in (2, 3, 4):
        return base
    return base + [EpsilonSpec(t) for t in OMEGA_SPECIAL_TAGS]


def _sweep_variants(family: int, q: int, eps0: EpsilonSpec) -> list:
    """One FamilyParams per variant, in grid order (m, n and eps are
    placeholders: the engine runs each variant over the whole grid)."""
    if family == 1:
        return [FamilyParams(1, q, 1, 1, eps0, ai, bi)
                for ai in range(q + 1) for bi in range(q + 1) if ai != bi]
    signs = (1, -1) if family == 2 else (1,)
    return [FamilyParams(family, q, 1, 1, eps0, omega_choice=oc, sign=s)
            for oc in (1, 2) for s in signs]


def _run_block(args):
    """One (q, family) sweep block: each variant's eps x m x n grid through
    the batched engine, element strings formatted and summand tables built
    (family 1's first form depends only on alpha, its second only on beta)
    once per block."""
    q, family, m_max, n_max, seed, cap = args
    ctx = field_for_q_squared(q, cap=cap)
    rng = random.Random(seed * 1_000_003 + q * 1009 + family)
    eps_list = _eps_specs(ctx, family, q, rng)
    ms, ns = range(1, m_max + 1), range(1, n_max + 1)
    fmt = functools.cache(ctx.format_idx)
    summands = functools.cache(functools.partial(_summand_tables, ctx))
    reports = []
    for variant in _sweep_variants(family, q, eps_list[0]):
        reports += _variant_reports(ctx, variant, eps_list, ms, ns, fmt, summands)
    return reports


@dataclass
class SweepResult:
    reports: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    seed: int = 0

    @property
    def disagreements(self) -> int:
        return sum(1 for r in self.reports if not r.agree)

    def disagreeing(self) -> list:
        return [r for r in self.reports if not r.agree]


def sweep_families(q_list, m_max: int, n_max: int, families=None, seed: int = 0,
                 workers: int = 1, cap: int | None = None) -> SweepResult:
    """Run condition-vs-oracle over the full parameter grid.

    For each q, every applicable (or requested) family is enumerated over all
    alpha/beta pairs, both order-3 choices, both signs, and the epsilon grid
    (exhaustive for q <= 9, seeded sample plus specials above).  Inapplicable
    requested families are recorded as errors, not raised.
    """
    result = SweepResult(seed=seed)
    blocks = []
    for q in q_list:
        valid = applicable_families(q)
        wanted = valid if families is None else list(families)
        for fam in wanted:
            if fam not in valid:
                result.errors.append(
                    {"q": q, "family": fam, "error": "BadModulusClass",
                     "detail": f"family {fam} is not admissible at q={q}"})
                continue
            blocks.append((q, fam, m_max, n_max, seed, cap))
    workers = min(workers, os.cpu_count() or 1, len(blocks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for reports in pool.map(_run_block, blocks):
                result.reports.extend(reports)
    else:
        for block in blocks:
            result.reports.extend(_run_block(block))
    return result


# -- worked examples and cross-checks -----------------------------------------

def example_polys(ctx: ExtensionField, kind: str, alpha_idx: int,
                  pqrs: Optional[tuple] = None) -> SparsePoly:
    """Closed-form example polynomials, built directly from their printed
    shape (not via construct_family, and not reduced: exponents may exceed
    Q-1 on small fields); alpha indexes mu_{q+1}."""
    q = ctx.base.order
    _check_mu_index(q, alpha_idx, "alpha_idx")
    alpha = ctx.subgroup_mu(q + 1)[alpha_idx]

    def a(k):
        return ctx.pow(alpha, k)

    def c(n, k):
        return ctx.mul(ctx.from_int(n), a(k))

    if kind == "tri3":
        return SparsePoly(ctx, [(3, 1), (1 + 2 * q, c(3, 2))])
    if kind == "tri5":
        return SparsePoly(ctx, [(5, 1), (3 + 2 * q, c(10, 2)), (1 + 4 * q, c(5, 4))])
    if kind == "quad7":
        return SparsePoly(ctx, [(7, 1), (5 + 2 * q, c(21, 2)),
                                (3 + 4 * q, c(35, 4)), (1 + 6 * q, c(7, 6))])
    if kind == "pqrs":
        if not pqrs or len(pqrs) != 3:
            raise BadKind("pqrs needs a (Q, R, S) triple")
        Qe, Re, Se = pqrs
        for v in (Qe, Re, Se):
            if not _is_p_power(ctx.p, v):
                raise BadKind(f"{v} is not a power of the characteristic {ctx.p}")
        return SparsePoly(ctx, [
            (Qe + Re + Se, 1),
            (Qe + q * (Re + Se), a(Re + Se)),
            (Re + q * (Qe + Se), a(Qe + Se)),
            (Se + q * (Qe + Re), a(Qe + Re)),
        ])
    raise BadKind(f"unknown example kind {kind!r}")


def _is_p_power(p: int, v: int) -> bool:
    if v < 1:
        return False
    while v % p == 0:
        v //= p
    return v == 1


def lappano_check(ctx: ExtensionField, a: int) -> tuple:
    """Binomial a x^3 + x^(1+2q): the three-case condition vs the oracle.

    Returns (predicted, oracle).  Requires odd q and nonzero a in the base
    field.  The case a = 1 requires q = 1 (mod 4); a = 1/3 requires
    q = -1 (mod 6); a = -1/3 requires q = -1 (mod 12).
    """
    q = ctx.base.order
    if ctx.p == 2:
        raise BadParams("odd characteristic required")
    if a == 0:
        raise ZeroElement("a must be nonzero")
    if not ctx.in_base(a):
        raise BadParams("a must lie in the base field")
    third = ctx.base.inv(3 % ctx.p) if ctx.p != 3 else None
    predicted = (a == 1 and q % 4 == 1)
    if third is not None:
        predicted = predicted or (a == third and q % 6 == 5)
        predicted = predicted or (a == ctx.base.neg(third) and q % 12 == 11)
    poly = SparsePoly(ctx, [(3, a), (1 + 2 * q, 1)])
    return predicted, poly.to_table().is_permutation()


@dataclass
class TraceIdentityReport:
    """Exhaustive verification of one trace-form linear identity."""

    part: int
    q: int
    ok: bool
    admissible_count: int
    checked: int

    def __bool__(self):
        return self.ok


def _solutions_of_power(ctx: ExtensionField, lam: int) -> list:
    """All a with a^(q-1) = lam (empty when lam is outside the image subgroup)."""
    q = ctx.base.order
    if ctx.pow(lam, (ctx.order - 1) // (q - 1) if q > 2 else ctx.order - 1) != 1:
        return []
    a0 = ctx.solve_power_q_minus_1(lam)
    return [ctx.mul(a0, c) for c in range(1, q)] if q > 2 else [a0]


def trace_identity_check(ctx: ExtensionField, part: int, omega_choice: int = 1,
                  alpha: Optional[int] = None) -> TraceIdentityReport:
    """Check one of the seven trace identities Tr(a x) = a (x + lam x^q) /
    Tr(a w x) = a (w x +- x^q) for every admissible a and every x.

    Parts 2/3 need 3 not dividing q; parts 4/6 need q = 1 (mod 3); parts
    5/7 need q = 2 (mod 3).  A part whose constraint has no admissible a is
    vacuously true (admissible_count = 0).
    """
    q = ctx.base.order
    if part not in range(1, 8):
        raise BadParams(f"part must be 1..7, got {part}")
    if part in (2, 3) and q % 3 == 0:
        raise BadCongruence("parts 2 and 3 need 3 not dividing q")
    if part in (4, 6) and q % 3 != 1:
        raise BadCongruence("parts 4 and 6 need q = 1 (mod 3)")
    if part in (5, 7) and q % 3 != 2:
        raise BadCongruence("parts 5 and 7 need q = 2 (mod 3)")
    w = _omega(ctx, omega_choice) if part > 1 else 0
    neg = ctx.neg
    if part == 1:
        alphas = ctx.subgroup_mu(q + 1) if alpha is None else [alpha]
        cases = [(al, 1, (1, al)) for al in alphas]          # Tr(ax) = a(x + al x^q)
    elif part == 2:
        cases = [(w, 1, (1, w))]                             # Tr(ax) = a(x + w x^q)
    elif part == 3:
        cases = [(neg(w), 1, (1, neg(w)))]                   # Tr(ax) = a(x - w x^q)
    elif part in (4, 5):
        lam = ctx.mul(w, w) if part == 4 else w
        cases = [(lam, w, (w, 1))]                           # Tr(awx) = a(wx + x^q)
    else:
        lam = neg(ctx.mul(w, w)) if part == 6 else neg(w)
        cases = [(lam, w, (w, neg(1)))]                      # Tr(awx) = a(wx - x^q)
    xs = ctx.all_indices()
    xq = ctx.frob_table
    ok, admissible, checked = True, 0, 0
    for lam, inner, (cx, cxq) in cases:
        rhs_lin = ctx.arr_add(ctx.arr_scale(xs, cx), ctx.arr_scale(xq, cxq))
        for a in _solutions_of_power(ctx, lam):
            admissible += 1
            lhs = ctx.arr_trace(ctx.arr_scale(xs, ctx.mul(a, inner)))
            rhs = ctx.arr_scale(rhs_lin, a)
            checked += ctx.order
            if not np.array_equal(lhs, rhs):
                ok = False
    return TraceIdentityReport(part=part, q=q, ok=ok,
                         admissible_count=admissible, checked=checked)


def two_trace_check(ctx: ExtensionField, a1: int, a2: int, b1: int, b2: int,
                      g1: SparsePoly, g2: SparsePoly) -> AgreementReport:
    """b1 g1(Tr(a1 x)) + b2 g2(Tr(a2 x)): two-trace composite vs the oracle.

    Predicted: both {a1, a2} and {b1, b2} independent and both g's permute
    the base field.
    """
    base = ctx.base
    if g1.ctx is not base or g2.ctx is not base:
        raise BadParams("g1, g2 must be polynomials over the base field")
    predicted = (is_linearly_independent(ctx, [a1, a2])
                 and is_linearly_independent(ctx, [b1, b2])
                 and g1.to_table().is_permutation()
                 and g2.to_table().is_permutation())
    xs = ctx.all_indices()
    g1t, g2t = g1.to_table().values, g2.to_table().values
    tr1 = ctx.arr_trace(ctx.arr_scale(xs, a1))
    tr2 = ctx.arr_trace(ctx.arr_scale(xs, a2))
    vals = ctx.arr_add(ctx.arr_scale(g1t[tr1], b1), ctx.arr_scale(g2t[tr2], b2))
    fmt = ctx.format_idx
    head = (0, base.order, fmt(a1), fmt(a2), "", "+")
    return _reports(fmt, head, [(0, 0, "ext_star", b1)], [predicted], vals[None, :])[0]


@dataclass
class PentanomialReport:
    """Outcome of one pentanomial cross-check."""

    variant: str
    q: int
    Q: int
    R: int
    S: int
    exponent: int
    identity_ok: Optional[bool]   # None when the trace form is not instantiable
    predicted: bool
    oracle: bool

    @property
    def gcd_ok(self) -> bool:
        return self.predicted == self.oracle

    @property
    def ok(self) -> bool:
        return self.gcd_ok and self.identity_ok is not False


PENTANOMIAL_VARIANTS = ("z1", "z2", "z1qr", "z2qr", "twisted")


def pentanomial_identity_check(ctx: ExtensionField, Qe: int, Re: int, Se: int,
                               variant: str, omega_choice: int = 1,
                               alpha_idx: int = 0) -> PentanomialReport:
    """Pentanomial shapes built from order-3 twists of two conjugate linear
    forms; checks (a) that the expansion equals its trace-form expression
    pointwise, where that form exists, and (b) permutation iff
    gcd(exponent, q-1) = 1.

    The trace form needs elements a with a^(q-1) = w (or +-alpha w), which
    exist exactly when q = 2 (mod 3); for q = 1 (mod 3) the identity half is
    reported as None (not instantiable) and only the expansion and gcd
    checks run.
    """
    q = ctx.base.order
    if variant not in PENTANOMIAL_VARIANTS:
        raise BadKind(f"unknown variant {variant!r}")
    if q % 3 == 0:
        raise BadCongruence("3 must not divide q")
    for v in (Qe, Re, Se):
        if not _is_p_power(ctx.p, v):
            raise BadParams(f"{v} is not a power of the characteristic {ctx.p}")
    if variant == "twisted":
        if q % 3 != 2:
            raise BadCongruence("the twisted form needs q = 2 (mod 3)")
        _check_mu_index(q, alpha_idx, "alpha_idx")
    E = Qe + q * Re + Se if variant in ("z1qr", "z2qr") else Qe + Re + Se
    w = _omega(ctx, omega_choice)
    neg, mul, powi = ctx.neg, ctx.mul, ctx.pow
    alpha = ctx.subgroup_mu(q + 1)[alpha_idx] if variant == "twisted" else None

    if variant in ("z1", "z1qr"):
        branches = ((1, w), (w, 1))          # (x + w x^q)^E - w (w x + x^q)^E
    elif variant in ("z2", "z2qr"):
        branches = ((w, 1), (1, w))          # (w x + x^q)^E - w (x + w x^q)^E
    else:
        branches = ((w, alpha), (1, neg(mul(alpha, w))))
    (c1, d1), (c2, d2) = branches
    poly = (expand_linear_power(ctx, c1, d1, E)
            + expand_linear_power(ctx, c2, d2, E).scale(neg(w))).reduce()
    table = poly.to_table()
    direct = _direct_table(ctx, c1, d1, c2, d2, E, E, neg(w))
    if not np.array_equal(table.values, direct):
        raise ArithmeticError("pentanomial expansion disagrees with direct evaluation")

    identity_ok = None
    if q % 3 == 2:
        xs = ctx.all_indices()
        if variant == "twisted":
            a = ctx.solve_power_q_minus_1(mul(alpha, w))
            b = ctx.solve_power_q_minus_1(neg(mul(alpha, w)))
            t1 = ctx.arr_trace(ctx.arr_scale(xs, mul(a, w)))
            t2 = ctx.arr_trace(ctx.arr_scale(xs, b))
        else:
            a = ctx.solve_power_q_minus_1(w)
            b = ctx.solve_power_q_minus_1(w)
            ta = ctx.arr_trace(ctx.arr_scale(xs, a))
            tb = ctx.arr_trace(ctx.arr_scale(xs, mul(b, w)))
            t1, t2 = (ta, tb) if variant in ("z1", "z1qr") else (tb, ta)
            a, b = (a, b) if variant in ("z1", "z1qr") else (b, a)
        lhs = ctx.arr_sub(
            ctx.arr_scale(ctx.arr_pow(t1, E), ctx.inv(powi(a, E))),
            ctx.arr_scale(ctx.arr_pow(t2, E), mul(w, ctx.inv(powi(b, E)))))
        identity_ok = bool(np.array_equal(lhs, table.values))

    predicted = gcd(E, q - 1) == 1
    oracle = table.is_permutation()
    return PentanomialReport(variant=variant, q=q, Q=Qe, R=Re, S=Se,
                             exponent=E, identity_ok=identity_ok,
                             predicted=predicted, oracle=oracle)
