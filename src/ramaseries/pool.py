"""One process-pool helper, which knows nothing of what it maps: verify hands
it units of suite tasks, table units of grid points. It loads no other
module of the package."""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence


def ordered_map(fn: Callable, items: Sequence, workers: int = 1) -> list:
    """[fn(x) for x in items], in this process or in a pool of at most one
    process an item and one a CPU this process may run on (a forking pool
    starts all its processes at once, so a large count would fork the host
    out of them). The results are in item order whatever the worker count.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(workers, len(items), cpus)
    if workers <= 1:
        return [fn(x) for x in items]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
