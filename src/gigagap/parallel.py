"""Deterministic map helper, formerly behind the --threads option.

Nothing in the package calls it any more: pricing runs in one thread,
because a thread pool over the interpreter-bound per-item work measured
3-4x slower. perfbench's tracer still imports this module by name.

Results are always reduced in input order, so outputs are identical
for any worker count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def ordered_map(fn: Callable[[T], R], items: Iterable[T], threads: int = 1) -> list[R]:
    """Apply fn to every item, preserving input order in the result."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))
