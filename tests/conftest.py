"""Helpers shared by several test modules."""

import tracemalloc
from concurrent.futures import Future, ThreadPoolExecutor

import pytest

from hypb import whittaker as wh


def _strip_runtime(payload):
    """Drop runtime_ms recursively: the one report field that varies between identical runs."""
    if isinstance(payload, list):
        return [_strip_runtime(p) for p in payload]
    if isinstance(payload, dict):
        return {k: _strip_runtime(v) for k, v in payload.items() if k != "runtime_ms"}
    return payload


@pytest.fixture
def strip_runtime():
    return _strip_runtime


def _peak_bytes(fn) -> int:
    """tracemalloc's peak, in bytes, of the allocations made while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def peak_bytes():
    return _peak_bytes


class _NoWorkers:
    """A pool without threads: nothing it is given starts, so the caller runs it."""

    def submit(self, fn, *args):
        return Future()


@pytest.fixture
def classify_threads(monkeypatch):
    """threads(n) has n threads run the cokernel classifier's blocks for the
    rest of the test: the caller and a fresh pool of n - 1 (none for n = 1);
    each pool is shut down after the test."""
    pools = []

    def threads(n: int) -> None:
        if n == 1:
            monkeypatch.setattr(wh, "_pool", _NoWorkers())
            return
        pools.append(ThreadPoolExecutor(n - 1))
        monkeypatch.setattr(wh, "_pool", pools[-1])

    yield threads
    for pool in pools:
        pool.shutdown()
