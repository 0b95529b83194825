import contextlib
import signal

import pytest

from ppf.fields import build_extension, build_prime_field, build_tower


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
