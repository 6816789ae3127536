"""`_blocks.run_blocks`: results in index order, the first failure in index
order, and no thread left behind, at any thread count."""

import threading

import numpy as np
import pytest

from hypb._blocks import run_blocks


@pytest.mark.parametrize("threads", [1, 2, 5])
@pytest.mark.parametrize("n", [0, 1, 7])
def test_results_come_back_in_index_order(block_threads, threads, n):
    # one block starts no helper, whatever the thread count
    block_threads(threads)
    before, alive = threading.active_count(), []

    def square(i):
        alive.append(threading.active_count())
        return i * i

    assert run_blocks(n, square) == [i * i for i in range(n)]
    assert threading.active_count() == before
    if n == 1:
        assert alive == [before]


def test_the_first_failure_in_index_order_is_raised(block_threads):
    # block 0, the helper's first, is held until block 3, the caller's first,
    # has failed: the caller still raises block 0's exception
    block_threads(2)
    last_failed = threading.Event()
    first = ValueError("block 0")

    def fail(i):
        if i == 0:
            assert last_failed.wait(10)
            raise first
        if i == 3:
            last_failed.set()
            raise ZeroDivisionError("block 3")

    with pytest.raises(ValueError) as raised:
        run_blocks(4, fail)
    assert raised.value is first and last_failed.is_set()


def test_the_callers_numpy_error_state_reaches_the_helpers(block_threads):
    # twin: under the default state the helper's overflow warns
    block_threads(2)
    held = threading.Barrier(2, timeout=10)

    def overflow(i):
        held.wait()  # each block on its own thread
        np.float64(1e308) * 10.0
        return np.geterr()["over"]

    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            run_blocks(2, overflow)
    with np.errstate(over="ignore"):
        assert run_blocks(2, overflow) == ["ignore", "ignore"]
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert run_blocks(2, overflow) == ["warn", "warn"]
