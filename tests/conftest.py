import io
from contextlib import redirect_stdout

import pytest
from mpmath import iv, mp

from esfscan import sieve
from esfscan.cli import main as cli_main

# The complete small-n tables of omit-one values, as reduced fractions.
GOLDEN_OMIT = {
    (2, 1, 1): "1/2",
    (2, 2, 1): "1/1",
    (3, 1, 1): "5/6",
    (3, 1, 2): "1/6",
    (3, 2, 1): "4/3",
    (3, 2, 2): "1/3",
    (3, 3, 1): "3/2",
    (3, 3, 2): "1/2",
    (4, 1, 1): "13/12",
    (4, 1, 2): "3/8",
    (4, 1, 3): "1/24",
    (4, 2, 1): "19/12",
    (4, 2, 2): "2/3",
    (4, 2, 3): "1/12",
    (4, 3, 1): "7/4",
    (4, 3, 2): "7/8",
    (4, 3, 3): "1/8",
    (4, 4, 1): "11/6",
    (4, 4, 2): "1/1",
    (4, 4, 3): "1/6",
}

# Full-set values fixed alongside the tables above.
GOLDEN_FULL = {
    (1, 1): "1/1",
    (3, 2): "1/1",
}


@pytest.fixture(autouse=True)
def mpmath_precision_restored():
    """Fail any test that leaves the global mpmath precisions changed.

    The package does not use mpmath; the tests use it as an independent
    reference (256-bit logs, e and b(n), and 128-bit restatements of the
    margin bounds), each in a precision scope of its own.  A leaked
    precision would let a later test pass or fail for a reason of its
    own: every precision change must be scoped.
    """
    before = mp.prec, iv.prec
    yield
    after = mp.prec, iv.prec
    if after != before:
        pytest.fail(f"(mp.prec, iv.prec) left at {after}, was {before}")


@pytest.fixture(scope="session")
def table_50216():
    return sieve(50216)


@pytest.fixture(scope="session")
def table_5000():
    return sieve(5000)


@pytest.fixture
def golden_omit():
    return dict(GOLDEN_OMIT)


@pytest.fixture
def golden_full():
    return dict(GOLDEN_FULL)


@pytest.fixture
def run_cli():
    """Invoke the CLI in-process; returns (exit_code, stdout_text)."""

    def _run(argv):
        buf = io.StringIO()
        try:
            with redirect_stdout(buf):
                code = cli_main(argv)
        except SystemExit as exc:  # argparse usage failures
            code = exc.code
        return code, buf.getvalue()

    return _run
