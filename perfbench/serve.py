"""``serve_tokens`` and ``serve_tcp``: ``repro serve`` as a separate
process, driven over its socket protocol by this process (at most two
threads and two connections).

* ``serve_tokens`` — the ``tokens_exact`` builtin (24 rules, width
  bounded, so shards take the overlap path), 16 KiB payloads, open-loop
  arrival: a fixed rate for the latency figures, then a bisection over a
  fixed rate ladder for ``sustained_rps``.
* ``serve_tcp`` — the full 300-rule TCP-like suite (19 unbounded rules,
  so ``--scan-strategy auto`` picks SFA mappings), 16 KiB payloads,
  closed loop on one connection; a second connection hot-reloads a
  second 300-rule suite while the loop keeps going.

Every reply is checked against the block oracle (``inputs.py``).
"""

from __future__ import annotations

import math
import os
import re
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

from common import (
    REF_NOMINAL_S, TAIL_Q, SpanLog, SpeedProbe, compile_layers, counter_value, percentile,
    tail_ok, vm_hwm_mb,
)
import inputs

SETUPS = 3
SERVER_START_TIMEOUT = 120.0
#: set-ups are normalised by the readings from this long before launch
SETUP_REF_SPAN = 3.0
#: distinct payloads per run and warm-up rounds over them (a fixed
#: *count*, never time-boxed)
TOKENS_PAYLOADS = 8
TOKENS_WARMUP_ROUNDS = 12
TCP_PAYLOADS = 4
TCP_WARMUP_ROUNDS = 2
#: open-loop rate of the latency figures (below today's capacity)
TOKENS_RATE = 20.0
#: sustained_rps: the latency limit on each probe's p90 (100 requests,
#: so ten beyond it), and the rate ladder
LIMIT_MS = 50.0
LIMIT_Q = 0.90
LADDER = [round(16.0 * 1.08 ** k, 3) for k in range(43)]  # 16 .. ~406 req/s
PROBE_REQUESTS = 100
#: a probe stops offering load once this many requests are outstanding
PROBE_ABORT_BACKLOG = 24
#: outstanding requests at the last send above which the backlog grows
PROBE_MAX_BACKLOG = 4
#: hot reloads on serve_tokens, each to a new rotation of the rule order
TOKENS_RELOADS = 5
#: the open-loop receiver reads the reference loop while idle only when
#: the next send is at least this far away
IDLE_READING_S = 0.008
#: requests sent after the reload acknowledged, checked against the new set
TCP_POST_RELOAD = TCP_PAYLOADS
#: closed-loop serve_tcp requests are ~0.4 s each: the measured window
#: runs at least this many, so its tail (p75) has 15 samples beyond it
TCP_MIN_REQUESTS = 60


@dataclass
class Tally:
    """Every match request this run offered, and how each ended."""

    attempted: int = 0
    ok: int = 0
    #: 200s that differ from the oracle
    wrong: int = 0
    #: answers that are neither a 200 nor a 429 refusal
    errors: int = 0
    notes: list[str] = field(default_factory=list)

    def check(self, status: str, got: set, expected_any: tuple) -> bool:
        self.attempted += 1
        if status != "ok":
            if status != "rejected":
                self.errors += 1
                if len(self.notes) < 5:
                    self.notes.append(f"status {status}")
            return False
        if any(got == expected for expected in expected_any):
            self.ok += 1
            return True
        self.wrong += 1
        if len(self.notes) < 5:
            self.notes.append("reply differs from the oracle")
        return False

    @property
    def failed(self) -> int:
        return self.attempted - self.ok


def reply_matches(document: dict[str, Any], payload_len: int) -> set:
    matches = {(rule, end) for rule, end in document.get("matches", [])}
    for rule in document.get("all_offsets_rules", []):
        matches.update((rule, end) for end in range(payload_len + 1))
    return matches


class Server:
    """One ``python -m repro serve`` process with a fresh artifact dir."""

    def __init__(self, args: list[str], workdir: Path, trace: bool,
                 cpu: Optional[int] = None) -> None:
        name = f"server-{os.getpid()}-{time.monotonic_ns()}"
        self.artifact_dir = workdir / name
        self.log_path = workdir / f"{name}.log"
        cmd = [
            sys.executable, "-m", "repro", "serve", *args,
            "--backend", "dense", "--port", "0",
            "--artifact-dir", str(self.artifact_dir),
        ]
        if trace:
            cmd.append("--trace-requests")
        env = {**os.environ, "PYTHONPATH": str(Path.cwd() / "src")}
        self.started = time.perf_counter()
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=env)
        if cpu is not None:
            # threads the server starts later inherit its main thread's CPU
            os.sched_setaffinity(self.proc.pid, {cpu})
        self.states = 0
        self.address = self._await_address()

    def _await_address(self) -> tuple[str, int]:
        """Poll the server's log for its state count and address (its
        output goes to a file, so no thread has to drain a pipe)."""
        deadline = time.perf_counter() + SERVER_START_TIMEOUT
        while time.perf_counter() < deadline:
            text = self.log_path.read_text()
            served = re.search(r"^serving on (\S+):(\d+) ", text, re.MULTILINE)
            if served:
                self.states = int(re.search(r"(\d+) state\(s\)", text).group(1))
                return served.group(1), int(served.group(2))
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        self.proc.kill()
        self.proc.wait(timeout=10)
        tail = self.log_path.read_text()[-2000:]
        shutil.rmtree(self.artifact_dir, ignore_errors=True)
        self.log_path.unlink(missing_ok=True)
        raise RuntimeError("server did not start: " + tail)

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def stop(self) -> None:
        from repro.serve import MatchClient
        from repro.serve.resilience import RetryPolicy

        if self.proc.poll() is None:
            try:
                with MatchClient.connect(self.address, timeout=10, retry=RetryPolicy.none()) as client:
                    client.shutdown()
                self.proc.wait(timeout=15)
            except Exception:  # a server that will not stop cleanly is killed
                self.proc.kill()
                self.proc.wait(timeout=10)
        shutil.rmtree(self.artifact_dir, ignore_errors=True)
        self.log_path.unlink(missing_ok=True)


@dataclass
class Payloads:
    bodies: list[bytes]
    expected: list[frozenset]
    #: expected match sets under the hot-reloaded ruleset (serve_tcp)
    expected_reload: Optional[list[frozenset]] = None


def _payloads(pool: inputs.BlockPool, seed: int, count: int,
              reload_pool: Optional[inputs.BlockPool] = None) -> Payloads:
    picks = inputs.serve_indices(seed, count)
    bodies, expected, expected_reload = [], [], []
    for indices in picks:
        body, want = pool.payload(indices)
        bodies.append(body)
        expected.append(want)
        if reload_pool is not None:
            expected_reload.append(reload_pool.payload(indices)[1])
    return Payloads(bodies, expected, expected_reload if reload_pool is not None else None)


def _warm(server: Server, payloads: Payloads, rounds: int, tally: Tally) -> float:
    """Send every payload ``rounds`` times; returns launch-to-steady seconds."""
    from repro.serve import MatchClient

    with MatchClient.connect(server.address, timeout=120) as client:
        for _ in range(rounds):
            for body, want in zip(payloads.bodies, payloads.expected):
                result = client.match(body)
                tally.check(result.status, result.matches, (want,))
    return time.perf_counter() - server.started


def _setups(args: list[str], payloads: Payloads, rounds: int, out: Path, tally: Tally,
            probe: SpeedProbe, segment: Callable[[Server], None]) -> tuple[Server, list[float], list[float]]:
    """``SETUPS`` launches, each warmed by a fixed count of requests and
    then given one measured segment (``segment(server)``), so a run's
    samples come from three servers spread over the run rather than one
    window of it.  The last server stays up for the caller.  Returns it
    with the raw and normalised set-up times."""
    raw, normalised = [], []
    for index in range(SETUPS):
        probe.take()
        server = Server(args, out, trace=False, cpu=probe.cpu)
        try:
            elapsed = _warm(server, payloads, rounds, tally)
            probe.take()
            raw.append(elapsed)
            ref = probe.between(server.started - SETUP_REF_SPAN, time.perf_counter())
            normalised.append(elapsed * REF_NOMINAL_S / ref)
            segment(server)
        except BaseException:
            server.stop()
            raise
        if index < SETUPS - 1:
            server.stop()
    return server, raw, normalised


# -- open loop (serve_tokens) ----------------------------------------------------


@dataclass
class Probe:
    rate: float
    offered: int
    latencies: list[float]
    lag: list[float]
    backlog_at_end: int
    aborted: bool
    spans: list[dict] = field(default_factory=list)
    #: per-request normalisation factors (readings within ±0.5 s of due)
    factors: list[float] = field(default_factory=list)
    #: the first replies of a traced probe, without their span rows
    replies: list[dict] = field(default_factory=list)

    def normalised(self) -> list[float]:
        return [lat * f for lat, f in zip(self.latencies, self.factors)]

    def passes(self, all_ok: bool) -> bool:
        """Judged in nominal time: the p90 of normalised latencies."""
        if self.aborted or not all_ok or self.backlog_at_end > PROBE_MAX_BACKLOG:
            return False
        return percentile(self.normalised(), LIMIT_Q) * 1e3 <= LIMIT_MS


def open_loop(address, payloads: Payloads, rate: float, count: int, tally: Tally,
              probe: SpeedProbe, trace: bool = False, abort_backlog: Optional[int] = None) -> tuple[Probe, bool]:
    """Offer ``count`` requests at ``rate`` on one pipelined connection.

    A sender thread writes each frame at its due time; this thread reads
    replies.  Latency runs from the due time, so a stall is charged to
    every request queued behind it.  Returns the probe and whether every
    reply was a correct 200.
    """
    from repro import obs
    from repro.serve.protocol import encode_frame, encode_payload, recv_frame

    frames = []
    trace_ids: dict[int, str] = {}
    for i in range(count):
        which = i % len(payloads.bodies)
        document: dict[str, Any] = {"op": "match", "id": i + 1,
                                    "payload": encode_payload(payloads.bodies[which])}
        if trace:
            document["trace_id"] = trace_ids[i] = obs.new_trace_id()
            document["ship_spans"] = True
        frames.append(encode_frame(document))
    due = [0.0] * count
    lag = []
    state = {"sent": 0, "answered": 0, "abort": False, "backlog_at_end": 0, "next_due": 0.0}
    probe.take()
    sock = socket.create_connection(address, timeout=120)

    def sender() -> None:
        start = time.perf_counter() + 0.01
        for i in range(count):
            due[i] = start + i / rate
            state["next_due"] = due[i]
            now = time.perf_counter()
            if due[i] > now:
                time.sleep(due[i] - now)
            if abort_backlog is not None and state["sent"] - state["answered"] >= abort_backlog:
                state["abort"] = True
                break
            lag.append(max(0.0, time.perf_counter() - due[i]))
            sock.sendall(frames[i])
            state["sent"] += 1
        state["backlog_at_end"] = state["sent"] - state["answered"]
        state["done_sending"] = True

    thread = threading.Thread(target=sender, name="perfbench-sender")
    latencies = []
    answered_ids: list[int] = []
    replies: list[dict] = []
    spans: list[dict] = []
    all_ok = True
    try:
        thread.start()
        while True:
            if state.get("done_sending") and state["answered"] >= state["sent"]:
                break
            if state["answered"] >= state["sent"]:
                # idle: nothing in flight.  Read the reference loop when
                # the next send is far enough away not to be delayed.
                if state["next_due"] - time.perf_counter() > IDLE_READING_S:
                    probe.take(1)
                else:
                    time.sleep(0.0005)
                continue
            document = recv_frame(sock)
            arrived = time.perf_counter()
            index = document["id"] - 1
            which = index % len(payloads.bodies)
            latencies.append(arrived - due[index])
            answered_ids.append(index)
            state["answered"] += 1
            got = reply_matches(document, len(payloads.bodies[which]))
            if not tally.check(document.get("status", "error"), got, (payloads.expected[which],)):
                all_ok = False
            if trace:
                spans.extend(document.get("spans") or [])
                spans.append({
                    "name": "bench.open_loop.request", "span_id": f"req-{index}",
                    "parent_id": None, "trace_id": trace_ids[index],
                    "process_id": os.getpid(), "thread_id": threading.get_ident(),
                    "start_abs": due[index], "end_abs": arrived,
                    "attributes": {"rate": rate, "lag_s": lag[index] if index < len(lag) else None},
                })
            if trace and len(replies) < 20:
                replies.append({k: v for k, v in document.items() if k != "spans"})
    finally:
        thread.join(timeout=120)
        sock.close()
    probe.take()
    result = Probe(
        rate=rate, offered=state["sent"], latencies=latencies, lag=lag,
        backlog_at_end=state["backlog_at_end"], aborted=state["abort"],
        spans=spans, replies=replies,
        factors=[REF_NOMINAL_S / probe.between(due[i] - 0.5, due[i] + 0.5) for i in answered_ids],
    )
    return result, all_ok


def rate_search(address, payloads: Payloads, tally: Tally, probe: SpeedProbe) -> tuple[Probe, list[dict]]:
    """Bisection over ``LADDER`` for the highest rate whose p90 meets
    ``LIMIT_MS`` with no growing backlog.  A refused, failed or wrong
    reply fails a probe.  A rung fails only when a second probe fails
    too: one stall of the shared VM should not define capacity.  Returns
    the best passing probe and the probe history."""
    lo, hi = -1, len(LADDER)  # LADDER[lo] passed, LADDER[hi] failed
    best = None
    history = []
    while hi - lo > 1:
        mid = (lo + hi) // 2
        for attempt in range(2):
            result, all_ok = open_loop(address, payloads, LADDER[mid], PROBE_REQUESTS, tally,
                                       probe, abort_backlog=PROBE_ABORT_BACKLOG)
            ok = result.passes(all_ok)
            history.append({
                "rate": LADDER[mid], "attempt": attempt, "pass": ok, "offered": result.offered,
                "p90_ms": percentile(result.normalised(), LIMIT_Q) * 1e3 if result.latencies else None,
                "backlog_at_end": result.backlog_at_end, "aborted": result.aborted,
            })
            if ok:
                break
        if ok:
            lo, best = mid, result
        else:
            hi = mid
    if best is None:
        raise RuntimeError(f"no rate on the ladder met the limit: {history}")
    return best, history


def _latency_figures(latencies: list[float], factors: list[float],
                     q: float = TAIL_Q) -> dict[str, float]:
    normalised = [lat * f for lat, f in zip(latencies, factors)]
    if not tail_ok(len(normalised), q):
        raise RuntimeError(f"only {len(normalised)} samples: too few for the p{q * 100:.0f} tail")
    return {
        "p50": statistics.median(normalised) * 1e3,
        "tail": percentile(normalised, q) * 1e3,
        "raw_p50": statistics.median(latencies) * 1e3,
        "raw_tail": percentile(latencies, q) * 1e3,
    }


def run_tokens(seed: int, seconds: float, trace: bool, out: Path, probe: SpeedProbe) -> dict:
    pool = inputs.tokens_pool()
    payloads = _payloads(pool, seed, TOKENS_PAYLOADS)
    tally = Tally()
    args = ["--builtin", "tokens_exact"]
    segments: list[Probe] = []
    count = max(math.ceil(TOKENS_RATE * seconds / SETUPS), math.ceil(100 / SETUPS))

    def segment(server: Server) -> None:
        segments.append(open_loop(server.address, payloads, TOKENS_RATE, count, tally, probe)[0])

    server, setup_raw, setup_norm = _setups(args, payloads, TOKENS_WARMUP_ROUNDS, out, tally,
                                            probe, segment)
    fixed = Probe(
        rate=TOKENS_RATE, offered=sum(p.offered for p in segments),
        latencies=[lat for p in segments for lat in p.latencies],
        lag=[lag for p in segments for lag in p.lag], backlog_at_end=0, aborted=False,
        factors=[f for p in segments for f in p.factors],
    )
    try:
        figures = _latency_figures(fixed.latencies, fixed.factors)
        search_started = time.perf_counter()
        best, history = rate_search(server.address, payloads, tally, probe)
        # the rate is scaled by the machine speed over the whole search:
        # a probe's own few readings are noisier than the phase they track
        search_ref = probe.between(search_started, time.perf_counter())
        reload_raw, reload_norm = _rotating_reloads(server, payloads, tally, probe)
        rss = server.peak_rss_mb()
        states = server.states
    finally:
        server.stop()
    layers = _tokens_layers(payloads, fixed, out, probe, args, tally) if trace else None
    mb = sum(len(b) for b in payloads.bodies) / len(payloads.bodies) / 1e6
    metrics = {
        "setup_s": (statistics.median(setup_norm), "s"),
        "scan_mb_s": (mb / (figures["p50"] / 1e3), "MB/s"),
        "latency_p50_ms": (figures["p50"], "ms"),
        "latency_tail_ms": (figures["tail"], "ms"),
        "sustained_rps": (best.rate * search_ref / REF_NOMINAL_S, "1/s"),
        "reload_s": (statistics.median(reload_norm), "s"),
        "ok_share": (tally.ok / tally.attempted, "ratio"),
        "peak_rss_mb": (rss, "MB"),
        "automaton_states": (float(states), "states"),
    }
    raw = {
        "setup_s": statistics.median(setup_raw),
        "scan_mb_s": mb / (figures["raw_p50"] / 1e3),
        "latency_p50_ms": figures["raw_p50"],
        "latency_tail_ms": figures["raw_tail"],
        "sustained_rps": best.rate,
        "reload_s": statistics.median(reload_raw),
        "fixed_rate_samples": len(fixed.latencies),
        "loadgen_lag_p50_ms": statistics.median(fixed.lag) * 1e3,
        "rate_search": history,
        "payload_mb": mb,
    }
    return {"metrics": metrics, "tally": tally, "raw": raw, "layers": layers}


def _rotating_reloads(server: Server, payloads: Payloads, tally: Tally,
                      probe: SpeedProbe) -> tuple[list[float], list[float]]:
    """``TOKENS_RELOADS`` hot reloads, each to a new rotation of the rule
    order (a new artifact key, so each compiles); after each, every
    payload is checked against the relabelled oracle."""
    from repro.serve import MatchClient

    base = inputs.tokens_ruleset()
    raw, normalised = [], []
    with MatchClient.connect(server.address, timeout=120) as client:
        for shift in range(1, TOKENS_RELOADS + 1):
            ruleset, relabel = inputs.rotated(base, shift)
            probe.take()
            started = time.perf_counter()
            client.reload(list(ruleset.patterns))
            elapsed = time.perf_counter() - started
            probe.take()
            raw.append(elapsed)
            normalised.append(elapsed * REF_NOMINAL_S / probe.recent(2))
            for body, want in zip(payloads.bodies, payloads.expected):
                expected = frozenset((relabel[rule], end) for rule, end in want)
                result = client.match(body)
                tally.check(result.status, result.matches, (expected,))
    return raw, normalised


# -- closed loop + hot reload (serve_tcp) -------------------------------------------


def _ruleset_file(out: Path, ruleset: inputs.Ruleset) -> Path:
    path = out / f"{ruleset.name}.rules"
    path.write_text("\n".join(ruleset.patterns) + "\n")
    return path


def closed_loop(client, payloads: Payloads, tally: Tally, probe: SpeedProbe, *,
                seconds: Optional[float] = None, count: Optional[int] = None,
                min_count: int = 0,
                until: Optional[threading.Event] = None, accept=None, read: bool = True,
                span_log: Optional[SpanLog] = None, replies: Optional[list] = None,
                start_index: int = 0) -> tuple[list[float], list[float], int]:
    """Back-to-back requests on one connection, each preceded by a
    reference-loop reading.  Stops after ``seconds``, ``count`` requests
    or when ``until`` is set.  ``read=False`` skips the readings (while
    the server works between requests).  ``accept(i)`` gives the acceptable oracle
    sets for the i-th request.  With ``span_log`` each request is traced:
    a benchmark span around ``MatchClient.match`` plus the server's
    shipped spans.  Returns (latencies, factors, next index)."""
    latencies, factors = [], []
    index = start_index
    deadline = time.perf_counter() + seconds if seconds is not None else None
    while True:
        if deadline is not None and time.perf_counter() >= deadline and len(latencies) >= min_count:
            break
        if count is not None and len(latencies) >= count:
            break
        if until is not None and until.is_set():
            break
        if read:
            probe.take()
        ref = probe.recent(3)
        which = index % len(payloads.bodies)
        allowed = accept(which) if accept else (payloads.expected[which],)
        started = time.perf_counter()
        if span_log is None:
            result = client.match(payloads.bodies[which])
        else:
            with span_log.span("bench.client.match") as row:
                result = client.match(payloads.bodies[which], trace=True)
            row["trace_id"] = result.trace_id
            span_log.add(result.spans)
        latencies.append(time.perf_counter() - started)
        factors.append(REF_NOMINAL_S / ref)
        tally.check(result.status, result.matches, allowed)
        if replies is not None:
            replies.append({k: v for k, v in result.raw.items() if k != "spans"})
        index += 1
    return latencies, factors, index


def run_tcp(seed: int, seconds: float, trace: bool, out: Path, probe: SpeedProbe) -> dict:
    from repro.serve import MatchClient

    pool = inputs.tcp_pool()
    reload_pool = inputs.tcp_pool(reload=True)
    payloads = _payloads(pool, seed, TCP_PAYLOADS, reload_pool)
    out.mkdir(parents=True, exist_ok=True)
    rules_a = _ruleset_file(out, pool.ruleset)
    tally = Tally()
    args = ["--ruleset", str(rules_a)]
    latencies: list[float] = []
    factors: list[float] = []

    def segment(server: Server) -> None:
        with MatchClient.connect(server.address, timeout=120) as client:
            got, got_factors, _ = closed_loop(client, payloads, tally, probe,
                                              seconds=seconds / SETUPS,
                                              min_count=math.ceil(TCP_MIN_REQUESTS / SETUPS))
        latencies.extend(got)
        factors.extend(got_factors)

    server, setup_raw, setup_norm = _setups(args, payloads, TCP_WARMUP_ROUNDS, out, tally,
                                            probe, segment)
    try:
        figures = _latency_figures(latencies, factors)
        with MatchClient.connect(server.address, timeout=120) as client:
            index = len(latencies)
            reload_info = _reload_under_traffic(server, client, payloads, reload_pool, tally, probe, index)
        rss = server.peak_rss_mb()
        states = server.states
    finally:
        server.stop()
    layers = _tcp_layers(payloads, figures, reload_info, out, probe, args, tally) if trace else None
    mb = len(payloads.bodies[0]) / 1e6
    metrics = {
        "setup_s": (statistics.median(setup_norm), "s"),
        "scan_mb_s": (mb / (figures["p50"] / 1e3), "MB/s"),
        "latency_p50_ms": (figures["p50"], "ms"),
        "latency_tail_ms": (figures["tail"], "ms"),
        "sustained_rps": (len(latencies) / sum(l * f for l, f in zip(latencies, factors)), "1/s"),
        "reload_s": (reload_info["reload_norm_s"], "s"),
        "ok_share": (tally.ok / tally.attempted, "ratio"),
        "peak_rss_mb": (rss, "MB"),
        "automaton_states": (float(states), "states"),
    }
    raw = {
        "setup_s": statistics.median(setup_raw),
        "latency_p50_ms": figures["raw_p50"],
        "latency_tail_ms": figures["raw_tail"],
        "scan_mb_s": mb / (figures["raw_p50"] / 1e3),
        "sustained_rps": len(latencies) / sum(latencies),
        "reload_s": reload_info["reload_s"],
        "closed_loop_samples": len(latencies),
        "concurrent_requests": len(reload_info["concurrent"]),
    }
    return {"metrics": metrics, "tally": tally, "raw": raw, "layers": layers}


def _reload_under_traffic(server: Server, client, payloads: Payloads, reload_pool,
                          tally: Tally, probe: SpeedProbe, index: int) -> dict:
    """A second connection hot-reloads the second suite while the first
    keeps scanning.  Replies during the swap may come from either suite
    (never a mix); replies sent after the acknowledgement must match the
    new suite."""
    from repro.serve import MatchClient

    done = threading.Event()
    info: dict[str, Any] = {}

    def reloader() -> None:
        try:
            with MatchClient.connect(server.address, timeout=170) as control:
                started = time.perf_counter()
                info["response"] = control.reload(list(reload_pool.ruleset.patterns))
                info["reload_s"] = time.perf_counter() - started
        except Exception as exc:  # reported as a failed run below
            info["error"] = repr(exc)
        finally:
            done.set()

    # the server compiles between requests during the reload, so the
    # reference loop is read only before and after it
    before = probe.take()
    thread = threading.Thread(target=reloader, name="perfbench-reload")
    thread.start()
    try:
        concurrent, _, index = closed_loop(
            client, payloads, tally, probe, until=done, start_index=index, read=False,
            accept=lambda w: (payloads.expected[w], payloads.expected_reload[w]),
        )
    finally:
        thread.join(timeout=170)
    after = probe.take()
    if "error" in info or "reload_s" not in info:
        raise RuntimeError(f"reload failed: {info.get('error')}")
    closed_loop(
        client, payloads, tally, probe, count=TCP_POST_RELOAD, start_index=index,
        accept=lambda w: (payloads.expected_reload[w],),
    )
    info["reload_norm_s"] = info["reload_s"] * REF_NOMINAL_S / ((before + after) / 2)
    info["concurrent"] = concurrent
    return info


# -- traced-run layers ------------------------------------------------------------


def _hist(latency: dict, name: str, key: str = "p50") -> float:
    entry = (latency or {}).get(name) or {}
    value = entry.get(key)
    return float(value) if value is not None else 0.0


def _stats_delta(before: dict, after: dict, name: str) -> float:
    return counter_value(after.get("metrics"), name) - counter_value(before.get("metrics"), name)


def _engine_layers(patterns: list[str], bodies: list[bytes], spans: SpanLog) -> dict:
    """In-process readings of the layers under the server, on the
    workload's own ruleset and payloads: compile stages, the cold and
    promoting dense runs, raw vs instrumented runs, and the SFA mapping
    scan against a sequential run."""
    from repro import obs
    from repro.engine.chunkscan import chunk_scan
    from repro.engine.imfant import IMfantEngine
    from repro.pipeline.compiler import CompileOptions, compile_ruleset

    with spans.span("bench.compile", rules=len(patterns)):
        compiled = compile_ruleset(patterns, CompileOptions(emit_anml=False))
    layers = compile_layers(compiled)
    mfsa = compiled.mfsas[0]
    engine = IMfantEngine(mfsa, backend="dense")
    cold = None
    promote = 0.0
    for round_ in range(64):
        for body in bodies:
            had_tier = engine.dense_tier is not None
            started = time.perf_counter()
            with spans.span("bench.engine_warm_run"):
                engine.run(body, collect_stats=False)
            elapsed = time.perf_counter() - started
            cold = elapsed if cold is None else cold
            if not had_tier and engine.dense_tier is not None:
                promote = engine.dense_tier.build_seconds
        if engine.dense_tier is not None and round_ >= 1:
            break
    raw, instrumented, mapping = [], [], []
    for _ in range(5):
        for body in bodies:
            started = time.perf_counter()
            with spans.span("bench.engine_raw_run"):
                engine.run(body, collect_stats=False)
            raw.append(time.perf_counter() - started)
    with obs.capture():
        for _ in range(5):
            for body in bodies:
                started = time.perf_counter()
                with spans.span("bench.engine_instrumented_run"):
                    engine.run(body, collect_stats=True)
                instrumented.append(time.perf_counter() - started)
    for body in bodies:
        started = time.perf_counter()
        with spans.span("bench.sfa_mapping_scan"):
            chunk_scan(mfsa, body, strategy="sfa", chunk_size=len(body) // 2,
                       num_threads=2, backend="dense")
        mapping.append(time.perf_counter() - started)
    raw_p50 = statistics.median(raw)
    layers.update({
        "engine.cold_pass_s": cold or 0.0,
        "engine.promote_s": promote,
        "engine.pass_ms_p50": raw_p50 * 1e3,
        "engine.pass_ms_tail": percentile(raw, TAIL_Q) * 1e3,
        "engine.instrumented_pass_ms": statistics.median(instrumented) * 1e3,
        "engine.instrumented_ratio": statistics.median(instrumented) / raw_p50,
        "engine.sfa.mapping_ms": statistics.median(mapping) * 1e3,
        "engine.sfa.amplification": statistics.median(mapping) / raw_p50,
    })
    return layers


def _serve_layers(before: dict, after: dict, replies: list[dict], bodies: list[bytes],
                  client_p50_ms: float, requests: int) -> dict:
    """Server-side readings from the ``stats`` op, the replies' engine
    stats and timed protocol calls on the workload's own documents."""
    from repro.serve.protocol import decode_body, encode_frame, encode_payload

    latency = after.get("latency_ms") or {}
    scan = _hist(latency, "serve_scan_seconds")
    shard = _hist(latency, "serve_shard_scan_seconds")
    queue = _hist(latency, "serve_queue_wait_seconds")
    reply = _hist(latency, "serve_reply_seconds")
    encode, decode = [], []
    for body in bodies:
        request = {"op": "match", "id": 1, "payload": encode_payload(body)}
        for _ in range(5):
            started = time.perf_counter()
            encode_frame(request)
            encode.append(time.perf_counter() - started)
    for document in replies[:20]:
        frame = encode_frame(document)
        for _ in range(5):
            started = time.perf_counter()
            decode_body(frame[4:])
            decode.append(time.perf_counter() - started)
    encode_ms = statistics.median(encode) * 1e3
    decode_ms = statistics.median(decode) * 1e3 if decode else 0.0
    chars = [r.get("stats", {}).get("chars_processed", 0) for r in replies if r.get("stats")]
    payload_len = sum(len(b) for b in bodies) / len(bodies)
    total = requests * payload_len

    def delta(name: str) -> float:
        return _stats_delta(before, after, name)

    hits = delta("imfant_lazy_cache_hits_total")
    # every byte the lazy cache interprets (cold, de-opt) is a lookup
    lookups = hits + delta("imfant_lazy_cache_misses_total")
    return {
        "serve.shards.scan_ms": shard,
        "serve.shards.fanout_ms": scan - shard,
        "serve.shards.scanned_byte_ratio": (statistics.median(chars) / payload_len) if chars else 0.0,
        "serve.server.queue_wait_ms_p50": queue,
        "serve.server.queue_wait_ms_tail": _hist(latency, "serve_queue_wait_seconds", "p90"),
        "serve.server.scan_ms": scan,
        "serve.server.reply_ms": reply,
        "serve.protocol.encode_ms": encode_ms,
        "serve.protocol.decode_ms": decode_ms,
        "serve.client.residual_ms": client_p50_ms - (encode_ms + queue + scan + reply + decode_ms),
        "serve.server.rejected": delta("serve_rejected_total"),
        "serve.resilience.shed": delta("serve_admission_shed_total"),
        "serve.resilience.restarts": delta("serve_supervisor_restarts_total"),
        "engine.dense_byte_share": max(0.0, 1.0 - lookups / total) if total else 0.0,
        "engine.deopt_byte_share": delta("imfant_dense_deopt_bytes_total") / total if total else 0.0,
        "engine.prefilter_skip_share": delta("imfant_dense_prefilter_skipped_bytes_total") / total if total else 0.0,
        "engine.dense_rebuilds": delta("imfant_dense_rebuilds_total"),
        "engine.lazy_hit_rate": hits / lookups if lookups else 1.0,
        "engine.lazy_flushes": delta("imfant_lazy_cache_flushes_total"),
    }


def _stats(server: Server) -> dict:
    from repro.serve import MatchClient

    with MatchClient.connect(server.address, timeout=60) as client:
        return client.stats_full()


def _tokens_layers(payloads: Payloads, fixed: Probe, out: Path,
                   probe: SpeedProbe, args: list[str], tally: Tally) -> dict:
    """Traced phase on a fresh ``--trace-requests`` server: the same
    fixed-rate load with ``trace_id``/``ship_spans`` on every request."""
    spans = SpanLog()
    layers = _engine_layers(list(inputs.tokens_ruleset().patterns), payloads.bodies, spans)
    server = Server(args, out, trace=True, cpu=probe.cpu)
    try:
        _warm(server, payloads, TOKENS_WARMUP_ROUNDS, tally)
        before = _stats(server)
        with spans.span("bench.open_loop", rate=TOKENS_RATE):
            traced, _ = open_loop(server.address, payloads, TOKENS_RATE, len(fixed.latencies),
                                  tally, probe, trace=True)
        after = _stats(server)
    finally:
        server.stop()
    spans.add(traced.spans)
    traced_p50 = statistics.median(traced.latencies) * 1e3
    layers.update(_serve_layers(before, after, traced.replies, payloads.bodies, traced_p50,
                                len(traced.latencies)))
    layers.update({
        "serve.client.retries": 0.0,
        "serve.reload.concurrent_p50_ms": 0.0,
        # normalised on both sides: the two phases ran at different times
        "obs.overhead_ms": (statistics.median(traced.normalised())
                            - statistics.median(fixed.normalised())) * 1e3,
        "loadgen.lag_ms": statistics.median(fixed.lag) * 1e3,
    })
    spans.write(out, "serve_tokens")
    return layers


def _tcp_layers(payloads: Payloads, figures: dict, reload_info: dict,
                out: Path, probe: SpeedProbe, args: list[str], tally: Tally) -> dict:
    from repro.serve import MatchClient

    spans = SpanLog()
    layers = _engine_layers(list(inputs.tcp_ruleset().patterns), payloads.bodies, spans)
    server = Server(args, out, trace=True, cpu=probe.cpu)
    replies: list[dict] = []
    try:
        _warm(server, payloads, TCP_WARMUP_ROUNDS, tally)
        before = _stats(server)
        with MatchClient.connect(server.address, timeout=120) as client:
            with spans.span("bench.closed_loop"):
                latencies, factors, _ = closed_loop(client, payloads, tally, probe,
                                              count=max(20, len(reload_info["concurrent"])),
                                              span_log=spans, replies=replies)
            retries = client.retries
        after = _stats(server)
    finally:
        server.stop()
    traced_p50 = statistics.median(latencies) * 1e3
    layers.update(_serve_layers(before, after, replies, payloads.bodies, traced_p50,
                                len(latencies)))
    layers.update({
        "serve.client.retries": float(retries),
        "serve.reload.concurrent_p50_ms": statistics.median(reload_info["concurrent"]) * 1e3
        if reload_info["concurrent"] else 0.0,
        # normalised on both sides: the two phases ran at different times
        "obs.overhead_ms": statistics.median(l * f for l, f in zip(latencies, factors)) * 1e3
        - figures["p50"],
        "loadgen.lag_ms": 0.0,
    })
    spans.write(out, "serve_tcp")
    return layers
