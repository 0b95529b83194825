"""The benchmark's workloads: seeded inputs, the timed operations, and the
reference checks, which all run outside the timed regions.

Each workload runs one pass: it repeats its operation until the timed
seconds reach the budget (and, for `verify_*`, at least `min_ops` samples
were taken), or exactly `ops` operations when the budget fixes a count.
`sweep`, whose one call is longer than the budget, stops before a call that
would end past it.

Import this module only after `ppf` is importable (see coldstart.py).
"""

import contextlib
import functools
import hashlib
import itertools
import json
import random
import resource
import time
from dataclasses import dataclass, field
from functools import partial
from math import gcd
from pathlib import Path

import numpy as np

from ppf import cli, families, maps, polys

from coldstart import CROSSCHECK_QS, SWEEP_QS

HERE = Path(__file__).resolve().parent

SWEEP_M_N_MAX = 4           # m_max = n_max of the criterion-1 grid
VERIFY_MIN_OPS = {"full": 100, "smoke": 20}
VERIFY_SAMPLE_POINTS = 16   # scalar evaluations per table
SAFE_UNREDUCED_MAX = 10 ** 12  # e * log stays below 2^63 for Q <= 2^20
INT64_WRAP_RANGE = (10 ** 17, 10 ** 18)
ABOVE_INT64_RANGE = (2 ** 63, 2 ** 64 * 10 ** 3)
UNREDUCED_EVERY = 10        # verify_unreduced: every 10th input


@dataclass
class Budget:
    seconds: float = 0.0
    ops: int = 0            # when set, run exactly this many operations
    min_ops: int = 1

    def done(self, n, timed, next_s=0.0):
        """next_s: the expected length of the next operation, when the pass
        must not run past the budget."""
        if self.ops:
            return n >= self.ops
        return n >= self.min_ops and timed + next_s >= self.seconds


@dataclass
class Pass:
    spans: list = field(default_factory=list)   # (start, end) perf_counter of each operation
    items: int = 0          # work items: instances, polynomials or checks
    attempted: int = 0
    failed: int = 0
    peak_rss_mb: float = 0.0
    notes: list = field(default_factory=list)

    def record(self, t0):
        """Close the operation that started at perf_counter() t0."""
        self.spans.append((t0, time.perf_counter()))

    @property
    def latencies(self):
        """Wall seconds per operation."""
        return [t1 - t0 for t0, t1 in self.spans]

    @property
    def timed_s(self):
        return sum(self.latencies)


@functools.cache
def reference():
    """Outcomes pinned at the seed commit (see pin_reference.py)."""
    return json.loads((HERE / "reference.json").read_text())


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- sweep -------------------------------------------------------------------

def sweep(seed, size, budget, out_dir, paused=contextlib.nullcontext,
          wrong_reference=False):
    """`ppf table1` over q in {5, 7, 8} (order shuffled by the seed), m, n <= 4."""
    qs = list(SWEEP_QS[size])
    random.Random(seed).shuffle(qs)
    ref = {int(q): r for q, r in reference()["sweep"]["per_q"].items()}
    if wrong_reference:
        q0 = qs[0]
        ref[q0] = dict(ref[q0], sha256="0" * 64)
    instances = sum(ref[q]["instances"] for q in qs)
    expect_rc = cli.EXIT_DISAGREE if any(ref[q]["disagreements"] for q in qs) else cli.EXIT_OK
    argv_head = ["--seed", str(seed), "--format", "json"]
    argv_tail = ["table1", "--q", ",".join(map(str, qs)), "--m-max", str(SWEEP_M_N_MAX),
                 "--n-max", str(SWEEP_M_N_MAX), "--workers", "1"]
    res, outputs = Pass(), []
    while not budget.done(len(res.latencies), res.timed_s,
                          res.latencies[-1] if res.latencies else 0.0):
        out = out_dir / f"sweep-seed{seed}-{len(outputs)}.json"
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv_head + ["--out", str(out)] + argv_tail)
        except Exception as exc:  # a crash is a failed operation, not a benchmark error
            rc = f"{type(exc).__name__}: {exc}"
        res.record(t0)
        outputs.append((out, rc))
        res.items += instances
    res.peak_rss_mb = peak_rss_mb()
    res.attempted = res.items
    with paused():
        for out, rc in outputs:
            res.failed += _check_sweep(out, rc, expect_rc, seed, qs, ref, res.notes)
            out.unlink(missing_ok=True)
    return res


def _check_sweep(out, rc, expect_rc, seed, qs, ref, notes):
    """Instances whose output differs from the pinned reference."""
    total = sum(ref[q]["instances"] for q in qs)
    if rc != expect_rc or not out.is_file():
        notes.append(f"table1 returned {rc!r}, expected {expect_rc}")
        return total
    data = json.loads(out.read_text())
    if data.get("seed") != seed or data.get("q") != qs or data.get("instances") != total:
        notes.append("table1 header differs from the reference")
        return total
    failed = 0
    for q in qs:
        reports = [r for r in data["reports"] if r["q"] == q]
        blob = json.dumps(reports, sort_keys=True, separators=(",", ":")).encode()
        bad = sum(1 for r in reports if not r["agree"])
        if (len(reports), bad, hashlib.sha256(blob).hexdigest()) != (
                ref[q]["instances"], ref[q]["disagreements"], ref[q]["sha256"]):
            notes.append(f"q={q}: {len(reports)} reports, {bad} disagreements, "
                         "report digest differs from the reference")
            failed += ref[q]["instances"]
    return failed


# -- verify_large / verify_unreduced ------------------------------------------

# One cycle of the input stream: (field 0 = F_{2^16}, 1 = F_{1021^2}; number of
# terms; for monomials, whether the exponent is chosen to permute), in a fixed
# shuffled order.  Latency grows with the number of terms and field size.  The
# 13 monomials sort lowest and the 8 big-field inputs highest, so p50 sits in
# the middle of the 14 F_{2^16} 2-term inputs (sorted fractions 0.325-0.675)
# and p90 in the middle of the big-field ones (0.8-1.0), away from group edges.
CYCLE = ([(0, 1, True)] * 7 + [(0, 1, False)] * 6 + [(0, 2, None)] * 14
         + [(0, 3, None)] * 2 + [(0, 4, None), (0, 5, None), (0, 6, None)]
         + [(1, 2, None)] * 8)
random.Random(0).shuffle(CYCLE)


def _red(e, order):
    """x^e and x^red(e) induce the same map on F_order (e >= 1)."""
    return (e - 1) % (order - 1) + 1


def _coef_text(ctx, rng):
    base = ctx.base.order
    form = rng.randrange(3)
    if form == 0 and ctx.p > 2:
        return str(rng.randrange(1, ctx.p))
    if form == 1:
        return f"a{rng.randrange(ctx.order - 1)}"
    c0, c1 = rng.randrange(base), rng.randrange(1, base)
    return f"({c0},{c1})"


def _exponent(ctx, rng):
    if rng.randrange(4) == 0:  # unreduced, as users type them
        return rng.randrange(ctx.order, SAFE_UNREDUCED_MAX)
    return rng.randrange(1, ctx.order)


def _monomial_exponent(ctx, rng, permutes, lo_hi=None):
    while True:
        e = rng.randrange(*lo_hi) if lo_hi else _exponent(ctx, rng)
        if (gcd(_red(e, ctx.order), ctx.order - 1) == 1) == permutes:
            return e


def verify_stream(ctxs, seed, unreduced):
    """Endless seeded stream of (field, polynomial text, is unreduced input)."""
    rng = random.Random(seed)
    for i in itertools.count():
        if unreduced and i % UNREDUCED_EVERY == UNREDUCED_EVERY - 1:
            ctx = ctxs[(i // UNREDUCED_EVERY) % 2]
            lo_hi = INT64_WRAP_RANGE if (i // (2 * UNREDUCED_EVERY)) % 2 else ABOVE_INT64_RANGE
            e = _monomial_exponent(ctx, rng, rng.random() < 0.5, lo_hi)
            yield ctx, f"{_coef_text(ctx, rng)}*x^{e}", True
            continue
        fi, nterms, permutes = CYCLE[i % len(CYCLE)]
        ctx = ctxs[fi]
        if nterms == 1:
            terms = [(_coef_text(ctx, rng), _monomial_exponent(ctx, rng, permutes))]
        else:
            terms = [(_coef_text(ctx, rng), _exponent(ctx, rng)) for _ in range(nterms)]
        yield ctx, " + ".join(f"{c}*x^{e}" for c, e in terms), False


def verify(ctxs, seed, size, budget, unreduced=False, paused=contextlib.nullcontext):
    """parse -> to_table -> is_permutation (+ first_collision when negative)."""
    res = Pass()
    budget.min_ops = max(budget.min_ops, VERIFY_MIN_OPS[size])
    check_rng = random.Random(seed + 1)
    n_unreduced = failed_unreduced = 0
    stream = verify_stream(ctxs, seed, unreduced)
    while not budget.done(len(res.latencies), res.timed_s):
        ctx, text, is_unreduced = next(stream)
        t0 = time.perf_counter()
        try:
            poly = polys.parse_poly(ctx, text)
            table = poly.to_table()
            verdict = table.is_permutation()
            witness = None if verdict else table.first_collision()
            error = None
        except Exception as exc:  # a crash is a failed operation, not a benchmark error
            error = f"{type(exc).__name__}: {exc}"
        res.record(t0)
        with paused():
            try:
                problem = error or _check_verify(ctx, poly, table, verdict, witness,
                                                 check_rng)
            except Exception as exc:  # a crashing reference check fails the input
                problem = f"reference check raised {type(exc).__name__}: {exc}"
        res.items += 1
        n_unreduced += is_unreduced
        if problem:
            res.failed += 1
            failed_unreduced += is_unreduced
            if len(res.notes) < 5:
                res.notes.append(f"{ctx} {text[:60]}: {problem}")
    res.attempted = res.items
    res.peak_rss_mb = peak_rss_mb()
    if unreduced:
        res.notes.append(f"unreduced-exponent inputs: {n_unreduced}, failed: "
                         f"{failed_unreduced}; other failures: "
                         f"{res.failed - failed_unreduced}")
    return res


def _check_verify(ctx, poly, table, verdict, witness, rng):
    """References that do not share the array path; None when all agree."""
    order, values = ctx.order, table.values
    # distinct values by sort and neighbour comparison (np.unique is hash-based
    # in numpy >= 2.3 and takes about 1 s at Q = 10^6)
    distinct = 1 + int(np.count_nonzero(np.diff(np.sort(values))))
    if (distinct == order) != verdict:
        return "verdict differs from the count of distinct values"
    if len(poly.terms) == 1:
        e = poly.terms[0][0]
        if verdict != (gcd(_red(e, order), order - 1) == 1):
            return "monomial verdict differs from gcd(red(e), Q-1) = 1"
    if not verdict:
        if witness is None:
            return "negative verdict without a witness"
        x1, x2 = witness
        if x1 == x2 or poly.eval(x1) != poly.eval(x2):
            return f"witness {witness} is not a collision under scalar eval"
    for x in [0, 1] + [rng.randrange(order) for _ in range(VERIFY_SAMPLE_POINTS - 2)]:
        if int(values[x]) != poly.eval(x):
            return f"table differs from scalar eval at x={x}"
    return None


# -- crosscheck ----------------------------------------------------------------

def _p_power_triples(p, q):
    powers = [p ** i for i in range(20) if p ** i <= q]
    return list(itertools.product(powers, repeat=3))


def _example_expected(kind, q, triple=None):
    deg = {"tri3": 3, "tri5": 5, "quad7": 7}.get(kind) or sum(triple)
    return gcd(deg, q - 1) == 1


def _run_trace(ctx, part, omega):
    return families.trace_identity_check(ctx, part, omega_choice=omega).ok


def _run_penta(ctx, triple, variant, omega, alpha_idx=0):
    return families.pentanomial_identity_check(
        ctx, *triple, variant, omega_choice=omega, alpha_idx=alpha_idx).ok


def _run_lappano(ctx, a):
    predicted, oracle = families.lappano_check(ctx, a)
    return predicted == oracle


def _run_example(ctx, kind, ai, triple, expected):
    poly = families.example_polys(ctx, kind, ai, pqrs=triple)
    return poly.to_table().is_permutation() == expected


def _random_f(ctx, rng, choice):
    if choice == 0:
        return polys.FnTable.identity(ctx)
    if choice == 1:
        return polys.FnTable(ctx, ctx.arr_pow(ctx.all_indices(), ctx.base.order))
    perm = list(range(ctx.order))
    rng.shuffle(perm)
    return polys.FnTable(ctx, perm)


def _compose_inputs(ctx, rng, t):
    n = ctx.degree
    f = _random_f(ctx, rng, t % 3)
    g = (maps.VectorMap.random_permutation(ctx.base, n, rng) if t % 2
         else maps.VectorMap.random_map(ctx.base, n, rng))
    v = [rng.randrange(ctx.order) for _ in range(n)]
    a = [rng.randrange(ctx.order) for _ in range(n)]
    return f, v, a, g


def _run_compose(f, v, a, g):
    return maps.composition_equivalence_check(f, v, a, g)


def _run_psi(ctx, g1, g2, c):
    q, n = ctx.base.order, ctx.degree
    v = [q ** i for i in range(n)]  # the power basis
    p1, p2 = maps.psi(v, g1, ctx), maps.psi(v, g2, ctx)
    comp_ok = maps.psi(v, g1.compose(g2), ctx) == p1.compose(p2)
    lin_lhs = maps.psi(v, g1.pointwise_scale(c).pointwise_add(g2), ctx)
    lin_rhs = polys.FnTable(ctx, ctx.arr_add(ctx.arr_scale(p1.values, c), p2.values))
    return comp_ok and lin_lhs == lin_rhs and maps.psi_inverse(v, p1) == g1


def _run_interpolate(table):
    poly = polys.interpolate(table)
    return table, poly, poly.to_table()


def _judge_interpolate(result, rng):
    table, poly, back = result
    ctx = table.ctx
    if back != table or poly.degree > ctx.order - 1:
        return False
    return all(poly.eval(x) == table[x]
               for x in [rng.randrange(ctx.order) for _ in range(4)])


SEEDED_PER_FIELD = {"compose": 20, "psi": 20, "interpolate": 2}
SEEDED_QS = {"compose": (3, 4, 5), "psi": (3, 4, 5), "interpolate": (7, 8, 13)}


def crosscheck_list(seed, size):
    """[(key, run, judge)]: fixed checks from the acceptance suite, then seeded
    ones.  run() is timed; judge(result) -> bool is not."""
    qs = CROSSCHECK_QS[size]
    ctx = {q: families.field_for_q_squared(q) for q in qs}
    rng = random.Random(seed)
    out = []

    def add(key, run, judge=bool):
        out.append((key, run, judge))

    for q in (4, 5, 7, 8, 11, 13):
        if q not in ctx:
            continue
        parts = [1, 2, 3] + ([4, 6] if q % 3 == 1 else [5, 7])
        for part, w in itertools.product(parts, (1, 2)):
            add(f"trace q={q} part={part} omega={w}", partial(_run_trace, ctx[q], part, w))
    for q in (4, 5, 7, 8):
        if q not in ctx:
            continue
        variants = ("z1", "z2", "z1qr", "z2qr") if q % 3 == 1 else ("z1", "z2")
        for triple in _p_power_triples(ctx[q].p, q):
            for variant, w in itertools.product(variants, (1, 2)):
                add(f"penta q={q} {variant} {triple} omega={w}",
                    partial(_run_penta, ctx[q], triple, variant, w))
            if q % 3 == 2:
                for ai, w in itertools.product(range(q + 1), (1, 2)):
                    add(f"penta q={q} twisted {triple} alpha={ai} omega={w}",
                        partial(_run_penta, ctx[q], triple, "twisted", w, ai))
    for q in (5, 7, 11, 13):
        if q in ctx:
            for a in range(1, q):
                add(f"lappano q={q} a={a}", partial(_run_lappano, ctx[q], a))
    for q in (5, 11, 7, 13):
        if q in ctx:
            for ai in range(q + 1):
                add(f"example tri3 q={q} alpha={ai}",
                    partial(_run_example, ctx[q], "tri3", ai, None, _example_expected("tri3", q)))
    for q in (3, 5, 7):
        if q not in ctx:
            continue
        for kind, ai in itertools.product(("tri5", "quad7"), range(q + 1)):
            add(f"example {kind} q={q} alpha={ai}",
                partial(_run_example, ctx[q], kind, ai, None, _example_expected(kind, q)))
        for triple, ai in itertools.product(_p_power_triples(ctx[q].p, q), range(q + 1)):
            add(f"example pqrs q={q} {triple} alpha={ai}",
                partial(_run_example, ctx[q], "pqrs", ai, triple,
                        _example_expected("pqrs", q, triple)))
    # seeded: random maps and tables from the workload seed
    for kind, count in SEEDED_PER_FIELD.items():
        for q, t in itertools.product(SEEDED_QS[kind], range(count)):
            if q not in ctx:
                continue
            c = ctx[q]
            key = f"{kind} q={q} #{t}"
            if kind == "compose":
                add(key, partial(_run_compose, *_compose_inputs(c, rng, t)))
            elif kind == "psi":
                n = c.degree
                g1 = maps.VectorMap.random_map(c.base, n, rng)
                g2 = maps.VectorMap.random_map(c.base, n, rng)
                add(key, partial(_run_psi, c, g1, g2, rng.randrange(1, q)))
            else:
                table = polys.FnTable(c, [rng.randrange(c.order) for _ in range(c.order)])
                add(key, partial(_run_interpolate, table),
                    partial(_judge_interpolate, rng=random.Random(rng.random())))
    return out


def crosscheck(seed, size, budget, paused=contextlib.nullcontext):
    """Whole passes over the check list, one operation each (what a user of the
    acceptance cross-checks waits for), after one untimed warm-up pass: the
    first pass in a process runs about 20% slower.  Every outcome, the warm-up
    pass's too, is compared with the pinned seed outcomes (every check agrees
    except the recorded refutations)."""
    checks = crosscheck_list(seed, size)
    refuted = set(reference()["crosscheck"]["refuted"])
    res, results = Pass(), []

    def one_pass():
        for key, run, judge in checks:
            try:
                result = run()
            except Exception as exc:  # a crash is a failed check, not a benchmark error
                result = exc
            results.append((key, judge, result))

    with paused():
        one_pass()
    while not budget.done(len(res.latencies), res.timed_s):
        t0 = time.perf_counter()
        one_pass()
        res.record(t0)
        res.items += len(checks)
    res.peak_rss_mb = peak_rss_mb()
    res.attempted = len(results)
    with paused():
        for key, judge, result in results:
            try:
                ok = (not isinstance(result, Exception)
                      and judge(result) == (key not in refuted))
            except Exception as exc:  # a crashing judge fails the check
                ok, result = False, exc
            if not ok:
                res.failed += 1
                if len(res.notes) < 5:
                    res.notes.append(f"{key}: outcome differs from the pinned one ({result!r})")
    return res
