"""Memory accounting helpers.

Two complementary measurements back ``memory_report()``:

* :func:`deep_sizeof` — a recursive ``sys.getsizeof`` walk that charges
  every reachable object once (a shared ``seen`` set lets callers
  measure several components without double counting shared objects);
* :func:`traced_peak` — the peak allocation while running an action,
  via ``tracemalloc`` (what the E2/E13 benchmarks report).

``sys.getsizeof`` is shallow and implementation-specific, but it is
consistent across the backends being compared, which is all the
space-efficiency measurements need.
"""

from __future__ import annotations

import sys
import tracemalloc
from typing import Any, Callable, Optional, Set, Tuple

__all__ = ["deep_sizeof", "traced_peak"]

#: Atomic types whose payload getsizeof already covers.
_ATOMIC = (str, bytes, bytearray, int, float, complex, bool, type(None))


def deep_sizeof(obj: Any, seen: Optional[Set[int]] = None) -> int:
    """Bytes of *obj* and everything reachable from it, counted once.

    Pass the same *seen* set across several calls to charge shared
    substructure only to the first call that reaches it.
    """
    if seen is None:
        seen = set()
    total = 0
    stack = [obj]
    while stack:
        current = stack.pop()
        ident = id(current)
        if ident in seen:
            continue
        seen.add(ident)
        try:
            total += sys.getsizeof(current)
        except TypeError:  # pragma: no cover - exotic objects
            continue
        if isinstance(current, _ATOMIC):
            continue
        if isinstance(current, dict):
            stack.extend(current.keys())
            stack.extend(current.values())
        elif isinstance(current, (list, tuple, set, frozenset)):
            stack.extend(current)
        else:
            attrs = getattr(current, "__dict__", None)
            if attrs is not None:
                stack.append(attrs)
            slots = getattr(type(current), "__slots__", ())
            if isinstance(slots, str):
                slots = (slots,)
            for name in slots:
                if hasattr(current, name):
                    stack.append(getattr(current, name))
    return total


def traced_peak(action: Callable[[], Any]) -> Tuple[Any, int]:
    """Run *action*, returning ``(result, peak allocated bytes)``."""
    tracemalloc.start()
    try:
        result = action()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak
