"""The batched sweep engine against a per-instance reference, a pinned digest
of `ppf table1`, chunking, and the worker clamp."""

import concurrent.futures
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ppf import families
from ppf.cli import main
from ppf.errors import BadParams
from ppf.families import (
    BINOMIAL_CAP,
    OMEGA_SPECIAL_TAGS,
    AgreementReport,
    VariantColumns,
    EpsilonSpec,
    FamilyParams,
    applicable_families,
    construct_family,
    eps_base,
    eps_ext,
    field_for_q_squared,
    ns_condition,
    sweep_families,
)
from ppf.polys import first_collisions

from conftest import reports

# `ppf --seed 0 --format json table1 --q 2,4,5,7,8 --m-max 4 --n-max 4` before
# the batched engine: 136,416 instances, 80 disagreements
GOLDEN_TABLE1_SHA256 = "53caa52eb183e48748a7e2252bd93bca3b05c1857b5d4f947290d594e5b4751e"


def test_table1_golden_digest(tmp_path, capsys):
    out = tmp_path / "table1.json"
    code = main(["--seed", "0", "--format", "json", "--out", str(out), "table1",
                 "--q", "2,4,5,7,8", "--m-max", "4", "--n-max", "4"])
    assert code == 2  # the q = 4, 7 disagreements of families 2-4
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_TABLE1_SHA256


# -- the per-instance reference -------------------------------------------------


def reference_instances(ctx, family, q, m_max, n_max):
    """FamilyParams in sweep order, with the exhaustive eps grid of q <= 9."""
    if family == 1:
        eps_list = [eps_ext(v) for v in range(1, ctx.order)]
        variants = [dict(alpha_idx=ai, beta_idx=bi)
                    for ai in range(q + 1) for bi in range(q + 1) if ai != bi]
    else:
        eps_list = [eps_base(v) for v in range(1, q)]
        if family >= 5:
            eps_list += [EpsilonSpec(t) for t in OMEGA_SPECIAL_TAGS]
        signs = (1, -1) if family == 2 else (1,)
        variants = [dict(omega_choice=w, sign=s) for w in (1, 2) for s in signs]
    for v in variants:
        for eps in eps_list:
            for m in range(1, m_max + 1):
                for n in range(1, n_max + 1):
                    yield FamilyParams(family, q, m, n, eps, **v)


def stable_argsort_collision(values):
    """First equal neighbour pair of the stable argsort, as (min, max)."""
    order = np.argsort(values, kind="stable")
    sv = values[order]
    eq = np.nonzero(sv[1:] == sv[:-1])[0]
    if eq.size == 0:
        return None
    a, b = int(order[eq[0]]), int(order[eq[0] + 1])
    return min(a, b), max(a, b)


def _check_rows(rows):
    hit, x1, x2 = first_collisions(rows)
    for r, row in enumerate(rows):
        want = stable_argsort_collision(row)
        assert bool(hit[r]) == (want is not None)
        if want is not None:
            assert (int(x1[r]), int(x2[r])) == want


@st.composite
def index_rows(draw):
    """R x n index arrays: random rows (mostly colliding), planted
    permutations, and planted collisions at value 0 or the last position."""
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = []
    for kind in draw(st.lists(st.sampled_from(["random", "perm", "zero", "last"]),
                              min_size=1, max_size=6)):
        row = rng.permutation(n)
        if kind == "random":
            row = rng.integers(0, n, n)
        elif kind == "zero" and n > 1:   # a second 0, anywhere but at the first
            row[(row.argmin() + rng.integers(1, n)) % n] = 0
        elif kind == "last" and n > 1:
            row[-1] = row[rng.integers(0, n - 1)]
        rows.append(row)
    return np.array(rows, dtype=np.int64)


@settings(max_examples=200, deadline=None)
@given(rows=index_rows())
def test_first_collisions_match_the_stable_sort(rows):
    _check_rows(rows)


def test_first_collisions_on_a_large_row():
    rng = np.random.default_rng(5)
    perm = rng.permutation(1 << 16)
    hit = perm.copy()
    hit[[40_000, 65_535]] = hit[[7, 9]]      # two collisions; the smaller value wins
    _check_rows(np.array([perm, hit]))


def reference_report(ctx, p):
    table = construct_family(ctx, p).to_table()
    collision = stable_argsort_collision(table.values)
    oracle = collision is None
    predicted = ns_condition(ctx, p)
    fmt = ctx.format_idx
    if p.family == 1:
        mu = ctx.subgroup_mu(p.q + 1)
        alpha, beta, omega = mu[p.alpha_idx], mu[p.beta_idx], 0
        eps = p.epsilon.resolve(ctx, 0)
    else:
        w = ctx.order3_element()
        omega = w if p.omega_choice == 1 else ctx.mul(w, w)
        alpha = {2: 1, 3: omega, 4: omega, 5: 1, 6: 1, 7: omega, 8: omega}[p.family]
        beta = {2: omega if p.sign == 1 else ctx.neg(omega), 3: 1, 4: ctx.neg(1),
                5: omega, 6: ctx.neg(omega), 7: 1, 8: ctx.neg(1)}[p.family]
        eps = p.epsilon.resolve(ctx, omega)
    witness = None if oracle else [fmt(x) for x in collision]
    return AgreementReport(
        family=p.family, q=p.q, m=p.m, n=p.n, alpha=fmt(alpha), beta=fmt(beta),
        omega=fmt(omega) if omega else "", sign="-" if p.sign < 0 else "+",
        epsilon={"tag": p.epsilon.tag, "value": fmt(eps)},
        predicted=predicted, oracle=oracle, agree=predicted == oracle,
        witness=witness).to_json()


@pytest.mark.parametrize("q", [3, 4, 5, 7])
def test_sweep_matches_per_instance_reference(q):
    ctx = field_for_q_squared(q)
    got = [r.to_json() for r in reports(sweep_families([q], 3, 3, seed=0))]
    want = [reference_report(ctx, p) for fam in applicable_families(q)
            for p in reference_instances(ctx, fam, q, 3, 3)]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w


def test_check_family_is_the_one_instance_grid(f49):
    for p in [FamilyParams(1, 7, 3, 3, eps_ext(9), 0, 1),
              FamilyParams(2, 7, 1, 1, eps_base(3), sign=-1),
              FamilyParams(4, 7, 1, 5, eps_base(1), omega_choice=2)]:
        assert families.check_family(f49, p).to_json() == reference_report(f49, p)


@pytest.mark.parametrize("chunk_values", [1, 100])
def test_chunking_does_not_change_reports(monkeypatch, chunk_values):
    whole = [r.to_json() for r in reports(sweep_families([4, 5], 3, 2, seed=0))]
    monkeypatch.setattr(families, "CHUNK_VALUES", chunk_values)
    chunked = [r.to_json() for r in reports(sweep_families([4, 5], 3, 2, seed=0))]
    assert chunked == whole


def test_summand_mismatch_raises(monkeypatch, f25):
    """The expansion-vs-direct check runs once per summand table."""
    real = families.expand_linear_power

    def off_by_one_term(ctx, c, d, e):
        poly = real(ctx, c, d, e)
        return poly + families.SparsePoly(ctx, [(0, 1)]) if e == 2 else poly

    monkeypatch.setattr(families, "expand_linear_power", off_by_one_term)
    with pytest.raises(ArithmeticError, match="binomial expansion disagrees"):
        sweep_families([5], 2, 1, families=[5], seed=0)


def test_summands_built_once_per_block(monkeypatch):
    """Family 1's first form depends only on alpha and its second only on
    beta: a block expands (q + 1) * (m_max + n_max) summands, not that many
    per (alpha, beta) pair, and a fresh block builds its own."""
    real, calls = families.expand_linear_power, []

    def counting(ctx, c, d, e):
        calls.append((c, d, e))
        return real(ctx, c, d, e)

    monkeypatch.setattr(families, "expand_linear_power", counting)
    sweep_families([4], 2, 3, families=[1], seed=0)
    assert len(calls) == 5 * (2 + 3)
    sweep_families([4], 2, 3, families=[1], seed=0)
    assert len(calls) == 2 * 5 * (2 + 3)


# -- workers ------------------------------------------------------------------------


class RecordingPool:
    """Stands in for ProcessPoolExecutor: runs in-process, records max_workers."""

    created = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_workers_clamped_to_cpus_and_blocks(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(families.os, "cpu_count", lambda: 3)
    RecordingPool.created = []
    serial = sweep_families([2], 1, 1, seed=0)
    res = sweep_families([2], 1, 1, seed=0, workers=10 ** 6)   # 5 blocks
    assert RecordingPool.created == [3]
    assert [r.to_json() for r in reports(res)] == [r.to_json() for r in reports(serial)]
    sweep_families([2], 1, 1, families=[1, 5], seed=0, workers=10 ** 6)
    assert RecordingPool.created == [3, 2]
    sweep_families([2], 1, 1, families=[1], seed=0, workers=10 ** 6)
    assert RecordingPool.created == [3, 2]  # one block runs in this process


def test_sweep_result_is_columnar():
    res = sweep_families([4, 5], 2, 3, seed=0)
    assert all(isinstance(v, VariantColumns) for v in res.variants)
    assert not hasattr(res, "reports")   # reports are built from the columns on demand only
    assert res.instances == len(reports(res)) == sum(len(v.m) for v in res.variants)
    bad = [r for r in reports(res) if not r.agree]
    assert res.disagreements == len(bad) > 0
    assert [r.to_json() for r in res.disagreeing()] == [r.to_json() for r in bad]
    for v in res.variants:   # grid order: eps-major, then m, then n
        assert v.m.tolist() == [1, 1, 1, 2, 2, 2] * len(v.eps)
        assert v.n.tolist() == [1, 2, 3] * 2 * len(v.eps)
        assert v.eps_idx.tolist() == [e for e in range(len(v.eps)) for _ in range(6)]


def test_import_leaves_multiprocessing_unloaded():
    # the process pool is imported only when a sweep runs with workers > 1
    src = str(Path(families.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    probe = ("import sys, ppf, ppf.cli; "
             "print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_every_traced_benchmark_metric_names_a_wrapped_callable():
    # the per-layer metrics in BENCHMARK.json read spans of perfbench's tracer;
    # a callable they name that the tracer no longer wraps would read 0
    root = Path(families.__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), str(root / "perfbench")]
        + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    probe = ("import json, sys; from tracer import Tracer; "
             "t = Tracer(); t.install(); t.uninstall(); "
             "spec = json.load(open(sys.argv[1])); "
             "print(sorted(m['name'] for m in spec['per_layer'] if m['name'] not in "
             "('trace.overhead_frac', 'families.useful_report_ratio') "
             "and not t.knows(m['name'].rsplit('.', 1)[0])))")
    out = subprocess.run([sys.executable, "-c", probe, str(root / "BENCHMARK.json")],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


# -- grid bounds --------------------------------------------------------------------


@pytest.mark.parametrize("m_max, n_max", [(0, 1), (1, 0), (BINOMIAL_CAP + 1, 1),
                                          (1, BINOMIAL_CAP + 1), (-3, 4)])
def test_empty_or_oversized_grid_is_refused_up_front(monkeypatch, deadline, m_max, n_max):
    # an empty grid would report 0 instances and 0 disagreements: a vacuous pass
    monkeypatch.setattr(families, "_run_block", lambda args: pytest.fail("a block ran"))
    with deadline(1), pytest.raises(BadParams, match=rf"1\.\.{BINOMIAL_CAP}"):
        sweep_families([5], m_max, n_max)


@pytest.mark.parametrize("fams", [[9], [0, -3], [5, 9], [], [5, 5], [1, 5, 1]])
def test_family_ids_outside_1_to_8_or_none_are_refused_up_front(monkeypatch, deadline, fams):
    # unknown ids used to be filed as inadmissible and an empty list ran
    # nothing: 0 instances and exit 0, a vacuous pass; a repeated id ran and
    # counted its blocks again
    monkeypatch.setattr(families, "_run_block", lambda args: pytest.fail("a block ran"))
    with deadline(1), pytest.raises(BadParams, match=r"ids in 1\.\.8"):
        sweep_families([5], 2, 2, families=fams)


@pytest.mark.parametrize("q_list", [[], [5, 5], [5, 7, 5]], ids=str)
def test_an_empty_or_repeated_q_list_is_refused_up_front(monkeypatch, deadline, q_list):
    # a repeated q ran and counted its blocks again, and an empty list ran
    # nothing: 0 instances, a vacuous pass
    monkeypatch.setattr(families, "_run_block", lambda args: pytest.fail("a block ran"))
    with deadline(1), pytest.raises(BadParams, match="non-empty list of distinct values"):
        sweep_families(q_list, 1, 1)


@pytest.mark.parametrize("flags", [("--m-max", "0"), ("--n-max", "0"),
                                   ("--m-max", str(BINOMIAL_CAP + 1)),
                                   ("--n-max", str(BINOMIAL_CAP + 1)),
                                   ("--families", "9"), ("--families", "0,-3"),
                                   ("--families", "5,9"), ("--families", ","),
                                   ("--families", ""), ("--families", "5,5"),
                                   ("--q", "5,5")])
def test_cli_refuses_an_empty_or_oversized_grid(capsys, deadline, flags):
    with deadline(1):
        code = main(["table1", "--q", "5", *flags])
    captured = capsys.readouterr()
    assert code == 1 and not captured.out and "BadParams" in captured.err


def test_grid_at_the_cap_is_accepted():
    res = sweep_families([2], BINOMIAL_CAP, 1, families=[5], seed=0)
    # omega choices x eps (the one base unit and four omega specials) x m
    assert res.instances == 2 * 5 * BINOMIAL_CAP
