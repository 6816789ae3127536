"""Helpers shared by several test modules."""

import tracemalloc

import pytest

from hypb import _blocks


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


@pytest.fixture
def block_threads(monkeypatch):
    """threads(n) has n threads run every loop of `_blocks.run_blocks` (the
    classifier's row blocks, the fft path's panels) for the rest of the test:
    the caller and n - 1 helpers that each loop starts."""
    return lambda n: monkeypatch.setattr(_blocks, "THREADS", n)
