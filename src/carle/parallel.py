"""One in-order map over items on every usable CPU: the one scheduling rule
of feature extraction's threads and the forest fit's forked workers."""

import contextvars
import itertools
import os
import threading

_take = None  # the fork kind's take-loop: the workers inherit it, unpickled


def usable_cpus() -> int:
    """The number of CPUs this process may run on; 1 where the platform does not say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def in_order(fn, items, kind: str) -> list:
    """``[fn(item) for item in items]``, on every usable CPU: this process
    computes item 0, which builds what the items share once; then one worker
    per other usable CPU, a thread or a forked process by ``kind``, starts on
    an item of its own, and the workers and this process claim the rest one
    at a time. All run in process with fewer than two takers for the items
    after the first, or for kind "fork" while another thread runs (a forked
    child holds only this thread) or without the fork start method."""
    global _take
    n_workers = min(usable_cpus(), len(items) - 1) - 1
    if n_workers < 1 or kind == "fork" and not _can_fork():
        return [fn(item) for item in items]
    done = [(0, fn(items[0]))]

    def take(i):
        while i < len(items):
            yield i, fn(items[i])
            i = claim()

    if kind == "thread":
        from concurrent.futures import ThreadPoolExecutor

        claim = itertools.count(n_workers + 1).__next__  # one call, so atomic under the GIL
        pool = ThreadPoolExecutor(n_workers)
        context = contextvars.copy_context()  # holds numpy's error state, which a new thread lacks

        def task(first):
            return context.copy().run(list, take(first))
    else:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        fork = multiprocessing.get_context("fork")
        counter = fork.Value("q", n_workers + 1)  # in shared memory, which the workers inherit

        def claim():
            with counter.get_lock():
                counter.value += 1
                return counter.value - 1

        pool = ProcessPoolExecutor(n_workers, mp_context=fork)
        task = _take_inherited
        _take = take
    with pool:
        futures = [pool.submit(task, first) for first in range(1, n_workers + 1)]
        done += take(claim())
        for future in futures:  # a worker's exception is raised here
            done += future.result()
    _take = None
    return [result for _, result in sorted(done, key=lambda pair: pair[0])]


def _can_fork() -> bool:
    import multiprocessing  # here: it would add to every ``import carle``

    return threading.active_count() == 1 and "fork" in multiprocessing.get_all_start_methods()


def _take_inherited(first):
    return list(_take(first))
