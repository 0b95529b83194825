import contextlib
import signal

import pytest

from ppf.families import EpsilonSpec, FamilyParams
from ppf.fields import build_extension, build_prime_field, build_tower, field_for_q_squared
from ppf.polys import parse_element


@pytest.fixture(scope="session")
def f2():
    return build_prime_field(2)


@pytest.fixture(scope="session")
def f4(f2):
    return build_extension(f2, 2)


@pytest.fixture(scope="session")
def f9():
    return build_tower(3, n=2)


@pytest.fixture(scope="session")
def f16(f2):
    """F_16 as the quadratic extension over F_4 (the q=4 tower)."""
    return build_tower(2, k=2, n=2)


@pytest.fixture(scope="session")
def f25():
    return build_tower(5, n=2)


@pytest.fixture(scope="session")
def f49():
    return build_tower(7, n=2)


@contextlib.contextmanager
def _deadline(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def deadline():
    """deadline(seconds): a context manager that raises TimeoutError in the
    block once it has run for `seconds` (interrupts Python-level loops)."""
    return _deadline


def reports(result):
    """Every instance's AgreementReport of a sweep result, in sweep order."""
    return [r for v in result.variants for r in v.reports()]


def params_from_report(record: dict) -> FamilyParams:
    """Reconstruct FamilyParams from a report record (for re-running)."""
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
