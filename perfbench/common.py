"""Shared measurement helpers: the reference loop, percentiles, the
benchmark's own span recorder and process memory readings."""

from __future__ import annotations

import json
import os
import statistics
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Optional

#: Nominal duration of one :meth:`SpeedProbe.loop` (its median on the
#: 2-core VM the bounds were set on, CPython 3.11, in a quiet phase).
#: Normalised timings are ``raw * REF_NOMINAL_S / ref`` with ``ref`` the
#: loop timed next to the measurement, so they read "as if the machine
#: ran at its nominal speed".
REF_NOMINAL_S = 0.0025

#: the percentile reported as ``latency_tail_ms``: the highest one that
#: has ten samples beyond it in every workload (≥40 samples) and repeats
#: across runs (p90 did not on serve_tokens; see README.md)
TAIL_Q = 0.75

_REF_ITERATIONS = 20_000


def placement() -> Optional[tuple[int, int]]:
    """``(harness CPU, program CPU)``, or None on a one-CPU machine.

    The program (the batch process, the server) runs pinned to one CPU
    and the reference loop is read on that CPU while the program is idle;
    the harness keeps the other CPU, so it never competes with the
    program.  Readings then track the speed of the CPU that did the
    work, which neighbours on a shared host can slow independently.
    """
    allowed = sorted(os.sched_getaffinity(0))
    return (allowed[0], allowed[-1]) if len(allowed) > 1 else None


class SpeedProbe:
    """The reference loop and its readings.

    The loop is fixed pure-Python work (a dict read-modify-write), the
    kind of interpretive work the program's scan loops do.  It touches no
    large buffer: a buffer's placement in memory differs from process to
    process and would bias each run's readings differently.  Readings are
    taken next to the measurements they normalise, and before, during and
    after each run for the run header.
    """

    def __init__(self, cpu: Optional[int] = None) -> None:
        #: the CPU the program runs on; readings are taken there
        self.cpu = cpu
        self.readings: list[tuple[float, float]] = []  # (perf_counter, seconds)

    @staticmethod
    def loop() -> float:
        """One pass of the reference loop; returns seconds."""
        table: dict[int, int] = {}
        started = time.perf_counter()
        for i in range(_REF_ITERATIONS):
            key = i & 1023
            table[key] = table.get(key, 0) + i
        return time.perf_counter() - started

    def take(self, repeats: int = 3) -> float:
        """Median of ``repeats`` loops on the program's CPU, recorded as
        one reading.  Callers take readings while the program is idle."""
        previous = os.sched_getaffinity(0)
        if self.cpu is not None:
            os.sched_setaffinity(0, {self.cpu})
        try:
            value = statistics.median(self.loop() for _ in range(repeats))
        finally:
            os.sched_setaffinity(0, previous)
        self.readings.append((time.perf_counter(), value))
        return value

    def recent(self, count: int) -> float:
        """Median of the last ``count`` readings."""
        return statistics.median(v for _, v in self.readings[-count:])

    def between(self, started: float, ended: float) -> float:
        """Median of the readings taken in ``[started, ended]``, widening
        the interval until it holds one."""
        span = max(ended - started, 0.5)
        while True:
            inside = [v for t, v in self.readings if started <= t <= ended]
            if inside or span > 3600:
                return statistics.median(inside) if inside else self.recent(3)
            started, ended, span = started - span, ended + span, span * 2

    def summary(self) -> dict[str, float]:
        values = [v for _, v in self.readings]
        if not values:
            return {}
        return {
            "before_ms": values[0] * 1e3,
            "during_median_ms": statistics.median(values) * 1e3,
            "after_ms": values[-1] * 1e3,
            "min_ms": min(values) * 1e3,
            "max_ms": max(values) * 1e3,
            "readings": len(values),
        }


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))
    return ordered[index]


def tail_ok(count: int, q: float = TAIL_Q) -> bool:
    """True when ``q`` leaves at least ten samples beyond it."""
    return count - int(q * count + 0.5) >= 10


def compile_layers(compiled) -> dict[str, float]:
    """Front-end, construction and merging figures of a
    ``CompilationResult``: its ``stage_times`` and automaton sizes."""
    times = compiled.stage_times.as_dict()
    return {
        "frontend.parse_s": times["FE"],
        "automata.construct_s": times["AST to FSA"] + times["ME-single"],
        "automata.fsa_states": compiled.total_input_states,
        "mfsa.merge_s": times["ME-merging"],
        "mfsa.states": compiled.total_output_states,
        "mfsa.transitions": sum(m.num_transitions for m in compiled.mfsas),
        "mfsa.compression": float(compiled.merge_report.state_compression),
    }


def counter_value(snapshot: Optional[dict], name: str) -> float:
    """A counter's value in a ``MetricsRegistry.as_dict()`` snapshot (0
    when the program never created it)."""
    entry = (snapshot or {}).get(name) or {}
    return float(entry.get("value", 0.0))


def vm_hwm_mb(pid: int) -> float:
    """High-water resident set of ``pid`` in MB (``VmHWM``)."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class SpanLog:
    """The benchmark's own spans, kept in memory and written once.

    Rows use the program's exported-span layout (``name``, ``span_id``,
    ``parent_id``, ``trace_id``, ``start``/``end`` on the machine-wide
    ``perf_counter`` clock, ``attributes``), so rows the program's tracer
    exports (``start_abs``/``end_abs``) sit on the same timeline.
    """

    def __init__(self) -> None:
        self.rows: list[dict[str, Any]] = []
        self._lock = threading.Lock()
        self._next = 0
        self._local = threading.local()

    def _new_id(self) -> str:
        with self._lock:
            self._next += 1
            return f"b{os.getpid()}-{self._next}"

    @contextmanager
    def span(self, name: str, trace_id: Optional[str] = None, **attributes: Any):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        row = {
            "name": name,
            "span_id": self._new_id(),
            "parent_id": stack[-1]["span_id"] if stack else None,
            "trace_id": trace_id or (stack[-1]["trace_id"] if stack else None),
            "process_id": os.getpid(),
            "thread": threading.get_ident(),
            "start": time.perf_counter(),
            "attributes": dict(attributes),
        }
        stack.append(row)
        try:
            yield row
        finally:
            stack.pop()
            row["end"] = time.perf_counter()
            with self._lock:
                self.rows.append(row)

    def add(self, rows: list[dict[str, Any]]) -> None:
        """Append rows exported by the program's tracer."""
        converted = [
            {**r, "start": r["start_abs"], "end": r["end_abs"], "thread": r.get("thread_id", 0)}
            for r in rows
        ]
        with self._lock:
            self.rows.extend(converted)

    def write(self, directory: Path, stem: str) -> tuple[Path, Path]:
        directory.mkdir(parents=True, exist_ok=True)
        jsonl = directory / f"{stem}.spans.jsonl"
        chrome = directory / f"{stem}.trace.json"
        rows = sorted(self.rows, key=lambda r: r.get("start", 0.0))
        jsonl.write_text("".join(json.dumps(r, default=str) + "\n" for r in rows))
        events = []
        for r in rows:
            start = float(r.get("start", 0.0))
            end = float(r.get("end", start))
            events.append({
                "name": r.get("name", "?"),
                "cat": str(r.get("name", "?")).split(".")[0],
                "ph": "X",
                "ts": start * 1e6,
                "dur": max(0.0, end - start) * 1e6,
                "pid": r.get("process_id", 0),
                "tid": r.get("thread", 0),
                "args": {"trace_id": r.get("trace_id"), **(r.get("attributes") or {})},
            })
        chrome.write_text(json.dumps({"traceEvents": events}, default=str))
        return jsonl, chrome


def durations(rows: list[dict[str, Any]], name: str) -> list[float]:
    """Durations in seconds of every span row called ``name``."""
    return [r["end"] - r["start"] for r in rows if r.get("name") == name and "end" in r]
