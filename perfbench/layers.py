"""Per-layer instruments for the traced run, all outside the engine.

* :class:`CallTimer` wraps public functions of the engine's modules and
  adds up the time spent in them and the number of calls;
* :class:`GcPauses` times the interpreter's generation-2 collections
  through ``gc.callbacks``;
* :func:`span_medians` folds the service's request spans into per-phase
  medians.
"""

from __future__ import annotations

import functools
import gc
import statistics
import threading
import time
from typing import Dict, Iterable, List


class CallTimer:
    """Time every call to a set of wrapped attributes."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self._lock = threading.Lock()
        self._undo: list = []

    def wrap(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        own = attr in vars(owner)

        @functools.wraps(original)
        def timed(*args, **kwargs):
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                with self._lock:
                    self.seconds[name] = self.seconds.get(name, 0.0) + elapsed
                    self.calls[name] = self.calls.get(name, 0) + 1

        setattr(owner, attr, timed)
        self._undo.append((owner, attr, original if own else None))

    def reset(self) -> None:
        with self._lock:
            self.seconds.clear()
            self.calls.clear()

    def mean_ms(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return 1000.0 * self.seconds.get(name, 0.0) / calls if calls else 0.0

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    def __enter__(self) -> "CallTimer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()


class GcPauses:
    """Count and time generation-2 collections while installed."""

    #: true while the benchmark collects between timed regions; those
    #: collections are not counted
    explicit = False

    def __init__(self) -> None:
        self.collections = 0
        self.pause_s = 0.0
        self._started = None

    def __call__(self, phase: str, info: dict) -> None:
        if info.get("generation") != 2 or GcPauses.explicit:
            return
        if phase == "start":
            self._started = time.perf_counter()
        elif self._started is not None:
            self.pause_s += time.perf_counter() - self._started
            self.collections += 1
            self._started = None

    def __enter__(self) -> "GcPauses":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc_info) -> None:
        gc.callbacks.remove(self)


#: Service metric -> the request spans whose durations it adds up.
SPAN_PHASES = {
    "queue_ms": ("queue",),
    "ipc_ms": ("ipc_send", "ipc_recv"),
    "serialize_ms": (
        "serialize", "worker.deserialize", "worker.result_serialize",
        "result_deserialize",
    ),
    "worker_execute_ms": ("worker.execute",),
    "merge_ms": ("merge",),
}


def span_medians(captures: Iterable) -> Dict[str, float]:
    """Per-request median milliseconds of each phase in SPAN_PHASES."""
    per_phase: Dict[str, List[float]] = {key: [] for key in SPAN_PHASES}
    for capture in captures:
        totals: Dict[str, float] = {}
        for span in capture.spans:
            totals[span.name] = totals.get(span.name, 0.0) + span.seconds
        for key, names in SPAN_PHASES.items():
            per_phase[key].append(1000.0 * sum(totals.get(n, 0.0) for n in names))
    return {
        key: statistics.median(values) if values else 0.0
        for key, values in per_phase.items()
    }


def worker_execute_seconds(captures: Iterable) -> float:
    """Total ``worker.execute`` span time over the captures."""
    return sum(
        span.seconds
        for capture in captures
        for span in capture.spans
        if span.name == "worker.execute"
    )
