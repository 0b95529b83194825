"""Command-line driver: field construction, single checks, sweeps, reports.

Exit codes: 0 pass/agreement, 1 usage or parse error, 2 disagreement or
property failure, 3 negative verdict (not a permutation / not a basis).
JSON output is deterministic for a fixed seed: sorted keys, no timestamps.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import os
import random
import sys

from . import families as fam
from . import maps as maps_mod
from .errors import BadParams, NotABasis, PPFError
from .fields import DEFAULT_CAP, build_tower
from .linalg import Basis, dual_basis
from .polys import FnTable, parse_element, parse_poly
from .errors import ParseError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DISAGREE = 2
EXIT_NEGATIVE = 3
_REPORTS_PER_CHUNK = 4096  # table1 JSON reports per write
_JSON_BOOL = ("false", "true")


def parse_field_spec(spec: str, cap: int):
    """Build a field from 'p=<prime>[,k=<int>][,n=<int>][,mod=[c0,...,1]]'."""
    parts, depth, cur = [], 0, []
    for ch in spec:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur:
        parts.append("".join(cur))
    kv = {}
    for part in parts:
        if "=" not in part:
            raise ParseError(f"bad field spec component {part!r}")
        k, v = part.split("=", 1)
        kv[k.strip()] = v.strip()
    if "p" not in kv:
        raise ParseError("field spec needs p=<prime>")
    p = int(kv.pop("p"))
    k = int(kv.pop("k", "1"))
    n = int(kv.pop("n")) if "n" in kv else None
    modulus = None
    if "mod" in kv:
        txt = kv.pop("mod").strip()
        if not (txt.startswith("[") and txt.endswith("]")):
            raise ParseError("mod must be a bracketed coefficient list")
        modulus = [int(c) for c in txt[1:-1].split(",")]
    if kv:
        raise ParseError(f"unknown field spec keys {sorted(kv)}")
    return build_tower(p, k=k, n=n, modulus=modulus, cap=cap)


def _extension_field(args):
    """The --field context, for commands that work over its base field."""
    ctx = parse_field_spec(args.field, args.cap)
    if ctx.base is None:
        raise BadParams(f"needs an extension field, got {ctx}")
    return ctx


def _render(args, payload: dict, text_lines: list) -> list:
    """A command's output as chunks: payload as one JSON line, or the text lines."""
    if args.format == "json":
        return [json.dumps(payload, sort_keys=True, separators=(",", ":")), "\n"]
    return [line + "\n" for line in text_lines]


def _emit(args, chunks) -> None:
    """Write the chunks, each of bounded size, to --out or stdout."""
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        for chunk in chunks:
            fh.write(chunk)


def cmd_verify(args) -> int:
    ctx = parse_field_spec(args.field, args.cap)
    poly = parse_poly(ctx, args.poly)
    table = poly.to_table()
    is_pp = table.is_permutation()
    payload = {"seed": args.seed, "field": str(ctx), "poly": str(poly.reduce()),
               "is_permutation": is_pp, "inverse_table_available": is_pp}
    _emit(args, _render(args, payload, [f"seed: {args.seed}",
                                        f"field: {ctx}",
                                        f"poly: {poly.reduce()}",
                                        f"is_permutation: {is_pp}",
                                        f"inverse_table_available: {is_pp}"]))
    return EXIT_OK if is_pp else EXIT_NEGATIVE


def _table1_json(args, qs: list, result: fam.SweepResult):
    """table1's JSON line, byte for byte as json.dumps(payload, sort_keys=True,
    separators=(",", ":")) + "\\n" writes it, in chunks of at most
    _REPORTS_PER_CHUNK reports.

    Each report is formatted from its variant's key-sorted template straight
    from the columns; element and tag strings are escaped by json.dumps once
    per sweep block (the variants sharing one names dict).
    """
    dumps = functools.partial(json.dumps, sort_keys=True, separators=(",", ":"))
    yield ('{"disagreements":%d,"errors":%s,"instances":%d,"m_max":%d,"n_max":%d,'
           '"q":%s,"reports":[' % (result.disagreements, dumps(result.errors),
                                   result.instances, args.m_max, args.n_max, dumps(qs)))
    names, sep = None, ""
    for v in result.variants:
        if v.names is not names:  # a new block
            names = v.names
            esc = functools.cache(json.dumps)
            wit = {i: json.dumps(text) for i, text in names.items()}
        family, q, *texts = v.head
        alpha, beta, omega, sign = (esc(t).replace("%", "%%") for t in texts)
        template = ('{"agree":%s,"alpha":' + alpha + ',"beta":' + beta
                    + ',"epsilon":{"tag":%s,"value":%s},"family":' + str(family)
                    + ',"m":%d,"n":%d,"omega":' + omega + ',"oracle":%s,"predicted":%s,"q":'
                    + str(q) + ',"sign":' + sign + ',"witness":%s}')
        eps = [(esc(tag), esc(value)) for tag, value in v.eps]
        for r0 in range(0, len(v.m), _REPORTS_PER_CHUNK):
            rows = slice(r0, r0 + _REPORTS_PER_CHUNK)
            reports = [
                template % (_JSON_BOOL[pred == orc], *eps[e], m, n, _JSON_BOOL[orc],
                            _JSON_BOOL[pred], "null" if orc else f"[{wit[a]},{wit[b]}]")
                for m, n, e, pred, orc, a, b in zip(
                    *(c[rows].tolist() for c in (v.m, v.n, v.eps_idx, v.predicted,
                                                 v.oracle, v.x1, v.x2)))]
            yield sep + ",".join(reports)
            sep = ","
    yield '],"seed":%d}\n' % args.seed


def cmd_table1(args) -> int:
    qs = [int(q) for q in args.q.split(",") if q]
    if not qs:
        raise ParseError("empty q list")
    if args.workers < 1:
        raise ParseError("workers must be positive")
    families = None
    if args.families is not None:
        families = [int(f) for f in args.families.split(",") if f]
    result = fam.sweep_families(qs, args.m_max, args.n_max, families=families,
                              seed=args.seed, workers=args.workers, cap=args.cap)
    if args.format == "json":
        _emit(args, _table1_json(args, qs, result))
    else:
        lines = [f"seed: {args.seed}",
                 f"instances: {result.instances}",
                 f"disagreements: {result.disagreements}"]
        for err in result.errors:
            lines.append(f"error: q={err['q']} family={err['family']}: {err['error']}")
        for r in itertools.islice(result.disagreeing(), 20):
            lines.append(f"disagree: family={r.family} q={r.q} m={r.m} n={r.n} "
                         f"alpha={r.alpha} beta={r.beta} eps={r.epsilon} "
                         f"predicted={r.predicted} oracle={r.oracle}")
        _emit(args, [line + "\n" for line in lines])
    return EXIT_OK if result.disagreements == 0 else EXIT_DISAGREE


def cmd_ast_check(args) -> int:
    if args.trials <= 0:
        raise ParseError("trials must be positive")
    ctx = _extension_field(args)
    rng = random.Random(args.seed)
    q, n = ctx.base.order, ctx.degree
    f_tables = [FnTable.identity(ctx),
                FnTable(ctx, ctx.arr_pow(ctx.all_indices(), q))]
    perm = list(range(ctx.order))
    rng.shuffle(perm)
    f_tables.append(FnTable(ctx, perm))
    failures = 0
    checked = 0
    for t in range(args.trials):
        g = (maps_mod.VectorMap.random_permutation(ctx.base, n, rng) if t % 2
             else maps_mod.VectorMap.random_map(ctx.base, n, rng))
        v = [rng.randrange(ctx.order) for _ in range(n)]
        a = [rng.randrange(ctx.order) for _ in range(n)]
        for f in f_tables:
            checked += 1
            if not maps_mod.composition_equivalence_check(f, v, a, g):
                failures += 1
    payload = {"seed": args.seed, "field": str(ctx), "trials": args.trials,
               "checked": checked, "failures": failures}
    _emit(args, _render(args, payload, [f"seed: {args.seed}", f"checked: {checked}",
                                        f"failures: {failures}"]))
    return EXIT_OK if failures == 0 else EXIT_DISAGREE


def cmd_psi_check(args) -> int:
    if args.trials <= 0:
        raise ParseError("trials must be positive")
    ctx = _extension_field(args)
    rng = random.Random(args.seed)
    n, q = ctx.degree, ctx.base.order
    v = Basis(ctx, [q ** i for i in range(n)])  # power basis
    failures = 0
    for _ in range(args.trials):
        g1 = maps_mod.VectorMap.random_map(ctx.base, n, rng)
        g2 = maps_mod.VectorMap.random_map(ctx.base, n, rng)
        c = rng.randrange(1, q)
        p1, p2 = maps_mod.psi(v, g1, ctx), maps_mod.psi(v, g2, ctx)
        comp_ok = maps_mod.psi(v, g1.compose(g2), ctx) == p1.compose(p2)
        lin_lhs = maps_mod.psi(v, g1.pointwise_scale(c).pointwise_add(g2), ctx)
        lin_rhs = FnTable(ctx, ctx.arr_add(ctx.arr_scale(p1.values, c), p2.values))
        inv_ok = maps_mod.psi_inverse(v, p1) == g1
        if not (comp_ok and lin_lhs == lin_rhs and inv_ok):
            failures += 1
    payload = {"seed": args.seed, "field": str(ctx), "trials": args.trials,
               "failures": failures}
    _emit(args, _render(args, payload, [f"seed: {args.seed}", f"failures: {failures}"]))
    return EXIT_OK if failures == 0 else EXIT_DISAGREE


def cmd_dual_basis(args) -> int:
    ctx = _extension_field(args)
    elems = [parse_element(ctx, e) for e in args.elems]
    try:
        basis = Basis(ctx, elems)
    except NotABasis as exc:  # a wrong element count is a usage error
        _emit(args, _render(args, {"seed": args.seed, "error": "NotABasis", "detail": str(exc)},
                             [f"NotABasis: {exc}"]))
        return EXIT_NEGATIVE
    dual = basis.dual()
    gram_ok = all(
        ctx.trace(ctx.mul(vi, uj)) == (1 if i == j else 0)
        for i, vi in enumerate(basis.elems) for j, uj in enumerate(dual.elems))
    payload = {"seed": args.seed, "field": str(ctx),
               "basis": [ctx.format_idx(i) for i in basis.elems],
               "dual": [ctx.format_idx(i) for i in dual.elems],
               "gram_ok": gram_ok}
    _emit(args, _render(args, payload, [f"dual: {' '.join(ctx.format_idx(i) for i in dual.elems)}",
                                        f"gram_ok: {gram_ok}"]))
    return EXIT_OK


def _parse_epsilon(ctx, text: str) -> fam.EpsilonSpec:
    tags = {"w": "plus_omega", "-w": "minus_omega",
            "w2": "plus_omega_sq", "-w2": "minus_omega_sq"}
    if text in tags:
        return fam.EpsilonSpec(tags[text])
    value = parse_element(ctx, text)
    if ctx.in_base(value):
        return fam.eps_base(value)
    return fam.eps_ext(value)


def cmd_family(args) -> int:
    ctx = fam.field_for_q_squared(args.q, cap=args.cap)
    eps = _parse_epsilon(ctx, args.epsilon)
    if args.family == 1 and eps.tag == "base_star":
        eps = fam.eps_ext(eps.value)
    params = fam.FamilyParams(
        family=args.family, q=args.q, m=args.m, n=args.n, epsilon=eps,
        alpha_idx=args.alpha_idx, beta_idx=args.beta_idx,
        omega_choice=args.omega, sign=-1 if args.sign == "-" else 1)
    report = fam.check_family(ctx, params)
    payload = {"seed": args.seed, **report.to_json()}
    _emit(args, _render(args, payload, [f"predicted: {report.predicted}",
                                        f"oracle: {report.oracle}",
                                        f"agree: {report.agree}",
                                        f"witness: {report.witness}"]))
    return EXIT_OK if report.agree else EXIT_DISAGREE


def cmd_lemma31(args) -> int:
    ctx = fam.field_for_q_squared(args.q, cap=args.cap)
    alpha = parse_element(ctx, args.alpha) if args.alpha else None
    report = fam.trace_identity_check(ctx, args.part, omega_choice=args.omega, alpha=alpha)
    payload = {"seed": args.seed, "part": args.part, "q": args.q, "ok": report.ok,
               "admissible": report.admissible_count, "checked": report.checked}
    _emit(args, _render(args, payload, [f"part {args.part} q={args.q}: ok={report.ok} "
                                        f"admissible={report.admissible_count}"]))
    return EXIT_OK if report.ok else EXIT_DISAGREE


def cmd_pentanomial(args) -> int:
    ctx = fam.field_for_q_squared(args.q, cap=args.cap)
    report = fam.pentanomial_identity_check(
        ctx, args.Q, args.R, args.S, args.variant,
        omega_choice=args.omega, alpha_idx=args.alpha_idx)
    payload = {"seed": args.seed, "q": args.q, "variant": args.variant,
               "Q": args.Q, "R": args.R, "S": args.S, "exponent": report.exponent,
               "identity_ok": report.identity_ok, "predicted": report.predicted,
               "oracle": report.oracle, "ok": report.ok}
    _emit(args, _render(args, payload, [f"exponent: {report.exponent}",
                                        f"identity_ok: {report.identity_ok}",
                                        f"predicted: {report.predicted}",
                                        f"oracle: {report.oracle}",
                                        f"ok: {report.ok}"]))
    return EXIT_OK if report.ok else EXIT_DISAGREE


def cmd_lappano(args) -> int:
    ctx = fam.field_for_q_squared(args.q, cap=args.cap)
    a_values = ([parse_element(ctx, args.a)] if args.a
                else list(range(1, args.q)))
    rows, disagreements = [], 0
    for a in a_values:
        predicted, oracle = fam.lappano_check(ctx, a)
        if predicted != oracle:
            disagreements += 1
        rows.append({"a": ctx.format_idx(a), "predicted": predicted,
                     "oracle": oracle, "agree": predicted == oracle})
    payload = {"seed": args.seed, "q": args.q, "rows": rows,
               "disagreements": disagreements}
    lines = [f"q={args.q} checked={len(rows)} disagreements={disagreements}"]
    lines += [f"a={r['a']} predicted={r['predicted']} oracle={r['oracle']}"
              for r in rows if not r["agree"]]
    _emit(args, _render(args, payload, lines))
    return EXIT_OK if disagreements == 0 else EXIT_DISAGREE


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ppf",
        description="Finite-field permutation polynomial checks and sweeps.")
    ap.add_argument("--field", help="field spec, e.g. p=5,n=2 or p=2,k=2,n=2")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--cap", type=int, default=None,
                    help="field size cap (default 2^20; env PPF_CAP overrides)")
    ap.add_argument("--format", choices=("text", "json"), default="text")
    ap.add_argument("--out", help="write output to this path instead of stdout")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="test whether a polynomial permutes the field")
    p.add_argument("poly")
    p.set_defaults(fn=cmd_verify, needs_field=True)

    p = sub.add_parser("table1", help="full condition-vs-oracle family sweep")
    p.add_argument("--q", required=True, help="comma-separated q values")
    p.add_argument("--families", help="comma-separated family ids (default: all applicable)")
    p.add_argument("--m-max", type=int, default=6)
    p.add_argument("--n-max", type=int, default=6)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(fn=cmd_table1, needs_field=False)

    p = sub.add_parser("ast-check", help="composition-equivalence property suite")
    p.add_argument("--trials", type=int, default=100)
    p.set_defaults(fn=cmd_ast_check, needs_field=True)

    p = sub.add_parser("psi-check", help="conjugation-isomorphism property suite")
    p.add_argument("--trials", type=int, default=100)
    p.set_defaults(fn=cmd_psi_check, needs_field=True)

    p = sub.add_parser("dual-basis", help="print the trace-form dual of a basis")
    p.add_argument("elems", nargs="+")
    p.set_defaults(fn=cmd_dual_basis, needs_field=True)

    p = sub.add_parser("family", help="check one family instance")
    p.add_argument("--family", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha-idx", type=int, default=None)
    p.add_argument("--beta-idx", type=int, default=None)
    p.add_argument("--omega", type=int, default=1, choices=(1, 2))
    p.add_argument("--sign", default="+", choices=("+", "-"))
    p.add_argument("--epsilon", default="1",
                   help="element text, or one of w, -w, w2, -w2")
    p.set_defaults(fn=cmd_family, needs_field=False)

    p = sub.add_parser("lemma31", help="exhaustive trace-identity check")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--part", type=int, required=True, choices=range(1, 8))
    p.add_argument("--omega", type=int, default=1, choices=(1, 2))
    p.add_argument("--alpha", default=None)
    p.set_defaults(fn=cmd_lemma31, needs_field=False)

    p = sub.add_parser("pentanomial", help="pentanomial identity and gcd check")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--Q", type=int, required=True)
    p.add_argument("--R", type=int, required=True)
    p.add_argument("--S", type=int, required=True)
    p.add_argument("--variant", default="z1", choices=fam.PENTANOMIAL_VARIANTS)
    p.add_argument("--omega", type=int, default=1, choices=(1, 2))
    p.add_argument("--alpha-idx", type=int, default=0)
    p.set_defaults(fn=cmd_pentanomial, needs_field=False)

    p = sub.add_parser("lappano", help="binomial three-case cross-check")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--a", default=None, help="single a (default: all of the base units)")
    p.set_defaults(fn=cmd_lappano, needs_field=False)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    if args.cap is None:
        args.cap = int(os.environ.get("PPF_CAP", DEFAULT_CAP))
    if getattr(args, "needs_field", False) and not args.field:
        sys.stderr.write("error: this command requires --field\n")
        return EXIT_USAGE
    try:
        return args.fn(args)
    except (PPFError, ValueError) as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
