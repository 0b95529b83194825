"""The batched sweep engine against a per-instance reference, a pinned digest
of `ppf table1`, chunking, and the worker clamp."""

import hashlib

import numpy as np
import pytest

from ppf import families
from ppf.cli import main
from ppf.families import (
    OMEGA_SPECIAL_TAGS,
    AgreementReport,
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


def reference_report(ctx, p):
    table = construct_family(ctx, p).to_table()
    oracle = table.is_permutation()
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
    witness = None if oracle else [fmt(x) for x in stable_argsort_collision(table.values)]
    return AgreementReport(
        family=p.family, q=p.q, m=p.m, n=p.n, alpha=fmt(alpha), beta=fmt(beta),
        omega=fmt(omega) if omega else "", sign="-" if p.sign < 0 else "+",
        epsilon={"tag": p.epsilon.tag, "value": fmt(eps)},
        predicted=predicted, oracle=oracle, agree=predicted == oracle,
        witness=witness).to_json()


@pytest.mark.parametrize("q", [3, 4, 5, 7])
def test_sweep_matches_per_instance_reference(q):
    ctx = field_for_q_squared(q)
    got = [r.to_json() for r in sweep_families([q], 3, 3, seed=0).reports]
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
    whole = [r.to_json() for r in sweep_families([4, 5], 3, 2, seed=0).reports]
    monkeypatch.setattr(families, "CHUNK_VALUES", chunk_values)
    chunked = [r.to_json() for r in sweep_families([4, 5], 3, 2, seed=0).reports]
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
    monkeypatch.setattr(families, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(families.os, "cpu_count", lambda: 3)
    RecordingPool.created = []
    serial = sweep_families([2], 1, 1, seed=0)
    res = sweep_families([2], 1, 1, seed=0, workers=10 ** 6)   # 5 blocks
    assert RecordingPool.created == [3]
    assert [r.to_json() for r in res.reports] == [r.to_json() for r in serial.reports]
    sweep_families([2], 1, 1, families=[1, 5], seed=0, workers=10 ** 6)
    assert RecordingPool.created == [3, 2]
    sweep_families([2], 1, 1, families=[1], seed=0, workers=10 ** 6)
    assert RecordingPool.created == [3, 2]  # one block runs in this process
