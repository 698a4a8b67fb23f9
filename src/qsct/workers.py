"""The worker map that runs a sweep of `qsct run --jobs N`.

`qsct run` imports this module only for a sweep of more than one point at
--jobs above 1; a single config, or a sweep at --jobs 1, runs on the built-in
map and neither compiles nor holds it. There is no pool: the calling thread
is a worker, and the others are threads started for one map and joined
before it returns. The points are mostly Python work, which holds the
interpreter lock, so on a 2-vCPU machine more workers do not shorten a small
sweep.
"""

from __future__ import annotations

import threading


def worker_map(jobs: int, fn, items) -> list:
    """fn over items on min(jobs, len(items)) workers, the calling thread the
    first of them; the results in input order.

    Workers claim items in index order. Once a call fails, or the caller's
    own work ends early (an interrupt between items), no worker claims
    another; every worker is joined, and then the exception of the
    lowest-indexed failed item is raised, the one the built-in map would raise.
    """
    items = list(items)
    results = [None] * len(items)
    failures = {}               # item index -> its exception
    lock = threading.Lock()     # guards claimed and failures
    claimed = 0

    def work():
        nonlocal claimed
        while True:
            with lock:
                if failures or claimed == len(items):
                    return
                i, claimed = claimed, claimed + 1
            try:
                results[i] = fn(items[i])
            except BaseException as exc:    # an interrupt too: raised below
                with lock:
                    failures[i] = exc

    workers = []
    try:
        for _ in range(min(jobs, len(items)) - 1):
            worker = threading.Thread(target=work)
            worker.start()
            workers.append(worker)
        work()
    finally:
        with lock:
            claimed = len(items)
        for worker in workers:
            worker.join()
    if failures:
        raise failures[min(failures)]
    return results
