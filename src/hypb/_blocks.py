"""One loop over independent blocks, run by the caller and short-lived helpers.

`run_blocks(n, fn)` runs fn(i) for each i in range(n) on THREADS threads:
the calling thread and THREADS - 1 helpers that the call starts and joins
before it returns or raises, so no thread outlives it.  Both take indices
from one deque, the helpers from the front and the caller from the back
(a deque's pops are thread-safe).  numpy releases the GIL in its FFTs and
ufuncs, so blocks of that work run side by side.

Each block must write only its own part of any shared array and return a
value that depends on i alone; then every result is the same at any thread
count.  Each block's result or exception is kept, and after the join the
first exception in index order is raised, whichever thread met it.  An
interrupt (a BaseException that is no Exception) in a helper leaves the
other threads no new block and reaches the caller, and one in the caller
ends its loop at once.  Each helper runs in a copy of the caller's
context, so numpy's error state (`np.errstate`) is the caller's there too.
"""

from __future__ import annotations

import contextvars
import threading
from collections import deque

__all__ = ["THREADS", "run_blocks"]

# threads per loop, the caller one of them.  Each thread that runs blocks
# keeps a glibc malloc arena of its own, about 2.5 MB over a whittaker bench
# pass, and each block in flight holds its own temporaries.  glibc hands an
# exited thread's arena on to the next thread, so a helper per call costs no
# arena per call
THREADS = 2


def run_blocks(n: int, fn) -> list:
    """[fn(i) for i in range(n)], run by the caller and THREADS - 1 helpers
    (module docstring); with one block, or THREADS = 1, no helper starts."""
    todo, results, failed, interrupts = deque(range(n)), [None] * n, {}, []

    def drain(take) -> None:
        while True:
            try:
                i = take()
            except IndexError:
                return
            try:
                results[i] = fn(i)
            except Exception as exc:
                failed[i] = exc

    def helper() -> None:
        try:
            drain(todo.popleft)
        except BaseException as exc:  # an interrupt: no thread takes a new block
            todo.clear()
            interrupts.append(exc)

    helpers = [threading.Thread(target=contextvars.copy_context().run, args=(helper,))
               for _ in range(min(THREADS, n) - 1)]
    for thread in helpers:
        thread.start()
    try:
        drain(todo.pop)
    finally:
        todo.clear()  # an interrupted caller leaves the helpers no new block
        for thread in helpers:
            thread.join()
    if interrupts:
        raise interrupts[0]
    if failed:
        raise failed[min(failed)]
    return results
