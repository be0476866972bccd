"""``batch_tcp``: compile the full-scale TCP-ExactMatch-like suite and
scan a seeded 1 MiB stream in process (the paper's Fig. 8/9 shape).

The parent (``run.py``) builds the stream and its oracle, then starts
this file as a child process three times.  Each child is one set-up
(``compile_ruleset`` plus a fixed count of warm-up passes, which
includes dense promotion) followed by a third of the measured window,
so a run's passes come from three processes spread over the run.  The
last child also compiles the second suite (``reload_s``) and, in a
traced run, reads the per-layer figures.  A fresh process per set-up
keeps set-ups independent and makes ``peak_rss_mb`` the program's own
high-water mark, not the harness's.  Children report a digest of every
pass's match set; the parent checks each against the oracle.

Child usage (internal)::

    python3 perfbench/batch.py --stream FILE --seconds S --trace 0|1 [--reload-payload FILE]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from common import (  # noqa: E402
    REF_NOMINAL_S, TAIL_Q, SpanLog, SpeedProbe, compile_layers, counter_value, durations,
    percentile, vm_hwm_mb,
)
import inputs  # noqa: E402

#: warm-up passes in every set-up: a cold lazy pass, the pass at whose
#: end the warm cache is promoted to a dense tier, and one dense pass
WARMUP_PASSES = 3
SETUPS = 3
#: passes inside ``obs.capture`` in the traced run (per stats mode)
TRACED_PASSES = 5
#: the measured window runs at least this many passes, so the p75 tail
#: has 15 beyond it
MIN_PASSES = 60
CHILD_TIMEOUT = 170
#: in-process compiles of the second suite per run (``reload_s``)
RELOADS = 3


def child_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--stream", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--reload-payload", type=Path, default=None)
    parser.add_argument("--cpu", type=int, default=None)
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    from repro.engine.imfant import IMfantEngine
    from repro.pipeline.compiler import CompileOptions, compile_ruleset

    stream = args.stream.read_bytes()
    patterns = list(inputs.tcp_ruleset().patterns)
    spans = SpanLog()
    probe = SpeedProbe()
    report: dict = {}

    ref_before = probe.take(5)
    setup_started = time.perf_counter()
    with spans.span("bench.compile", rules=len(patterns)):
        compiled = compile_ruleset(patterns, CompileOptions(emit_anml=False))
    if len(compiled.mfsas) != 1:
        raise RuntimeError(f"expected one merged MFSA, got {len(compiled.mfsas)}")
    engine = IMfantEngine(compiled.mfsas[0], backend="dense")
    warm = []
    for index in range(WARMUP_PASSES):
        with spans.span("bench.warmup_pass", index=index) as row:
            result = engine.run(stream, collect_stats=False)
        row["attributes"]["promoted"] = engine.dense_tier is not None
        warm.append(result.matches)
    report["setup_s"] = time.perf_counter() - setup_started
    report["setup_ref"] = (ref_before + probe.take(5)) / 2
    report["warm_digests"] = [inputs.match_digest(m) for m in warm]
    report["dense_after_warmup"] = engine.dense_tier is not None
    report["automaton_states"] = compiled.total_output_states

    if args.seconds > 0:
        passes = []  # (seconds, reference seconds, digest)
        deadline = time.perf_counter() + args.seconds
        while time.perf_counter() < deadline or len(passes) < math.ceil(MIN_PASSES / SETUPS):
            probe.take()
            ref = probe.recent(3)
            with spans.span("bench.pass", collect_stats=False):
                started = time.perf_counter()
                result = engine.run(stream, collect_stats=False)
                elapsed = time.perf_counter() - started
            passes.append((elapsed, ref, inputs.match_digest(result.matches)))
        report["passes"] = passes
        report["probe"] = probe.summary()

    if args.reload_payload is not None:
        # the batch form of a ruleset swap: compile the second 300-rule
        # suite and build its engine; one scan (untimed) checks each
        payload = args.reload_payload.read_bytes()
        reload_patterns = list(inputs.tcp_ruleset(reload=True).patterns)
        reloads, digests = [], []
        for _ in range(RELOADS):
            ref_before = probe.take()
            with spans.span("bench.reload_compile", rules=len(reload_patterns)):
                started = time.perf_counter()
                swapped = compile_ruleset(reload_patterns, CompileOptions(emit_anml=False))
                reload_engine = IMfantEngine(swapped.mfsas[0], backend="dense")
                elapsed = time.perf_counter() - started
            reloads.append((elapsed, (ref_before + probe.take()) / 2))
            digests.append(inputs.match_digest(
                reload_engine.run(payload, collect_stats=False).matches
            ))
        report["reloads"] = reloads
        report["reload_digests"] = digests

    if args.trace:
        report["layers"] = _traced_layers(compiled, engine, stream, spans)
        if args.out is not None:
            spans.write(args.out, "batch_tcp")

    report["peak_rss_mb"] = vm_hwm_mb(os.getpid())
    print(json.dumps(report))
    return 0


def _traced_layers(compiled, engine, stream: bytes, spans: SpanLog) -> dict:
    """Per-layer readings from outside the program: stage times, the
    merged automaton, warm-up span durations, raw vs traced vs
    instrumented passes and the ``imfant_*`` counters."""
    from repro import obs

    layers = compile_layers(compiled)
    warm = durations(spans.rows, "bench.warmup_pass")
    tier = engine.dense_tier
    layers["engine.cold_pass_s"] = warm[0]
    layers["engine.promote_s"] = tier.build_seconds if tier is not None else 0.0

    raw = durations(spans.rows, "bench.pass")
    raw_p50 = statistics.median(raw)
    layers["engine.pass_ms_p50"] = raw_p50 * 1e3
    layers["engine.pass_ms_tail"] = percentile(raw, TAIL_Q) * 1e3

    with obs.capture() as cap:
        before = cap.registry.as_dict()
        traced = []
        for _ in range(TRACED_PASSES):
            started = time.perf_counter()
            with obs.span("bench.traced_pass"):
                engine.run(stream, collect_stats=False)
            traced.append(time.perf_counter() - started)
        after = cap.registry.as_dict()
        instrumented = []
        for _ in range(TRACED_PASSES):
            started = time.perf_counter()
            engine.run(stream, collect_stats=True)
            instrumented.append(time.perf_counter() - started)
        spans.add(cap.tracer.export_spans())

    total = TRACED_PASSES * len(stream)

    def delta(name: str) -> float:
        return counter_value(after, name) - counter_value(before, name)

    hits = delta("imfant_lazy_cache_hits_total")
    lookups = hits + delta("imfant_lazy_cache_misses_total")
    layers.update({
        "engine.instrumented_pass_ms": statistics.median(instrumented) * 1e3,
        "engine.instrumented_ratio": statistics.median(instrumented) / raw_p50,
        # every byte the lazy cache interprets (cold, de-opt) is a lookup
        "engine.dense_byte_share": max(0.0, 1.0 - lookups / total),
        "engine.deopt_byte_share": delta("imfant_dense_deopt_bytes_total") / total,
        "engine.prefilter_skip_share": delta("imfant_dense_prefilter_skipped_bytes_total") / total,
        "engine.dense_rebuilds": delta("imfant_dense_rebuilds_total"),
        "engine.lazy_hit_rate": hits / lookups if lookups else 1.0,
        "engine.lazy_flushes": delta("imfant_lazy_cache_flushes_total"),
        "obs.overhead_ms": (statistics.median(traced) - raw_p50) * 1e3,
    })
    return layers


# -- parent side ----------------------------------------------------------------


def _spawn(stream_path: Path, seconds: float, trace: bool, out: Path,
           reload_path: Optional[Path], cpu: Optional[int]) -> dict:
    cmd = [
        sys.executable, str(BENCH_DIR / "batch.py"),
        "--stream", str(stream_path), "--seconds", str(seconds),
        "--trace", str(int(trace)), "--out", str(out),
    ]
    if cpu is not None:
        cmd += ["--cpu", str(cpu)]
    if reload_path is not None:
        cmd += ["--reload-payload", str(reload_path)]
    env = {**os.environ, "PYTHONPATH": str(Path.cwd() / "src")}
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT, env=env)
    if done.returncode != 0:
        raise RuntimeError(f"batch child failed ({done.returncode}): {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run(seed: int, seconds: float, trace: bool, out: Path, probe: SpeedProbe) -> dict:
    """One ``batch_tcp`` run; returns metrics, counts and layer readings."""
    pool = inputs.tcp_pool()
    stream, expected = pool.payload(inputs.batch_indices(seed))
    want = inputs.match_digest(expected)
    out.mkdir(parents=True, exist_ok=True)
    reload_payload, reload_expected = inputs.tcp_pool(reload=True).payload(
        inputs.serve_indices(seed, 1)[0]
    )
    stream_path = out / f"batch_stream_{seed}.bin"
    reload_path = out / f"batch_reload_{seed}.bin"
    stream_path.write_bytes(stream)
    reload_path.write_bytes(reload_payload)
    try:
        children = [
            _spawn(stream_path, seconds / SETUPS, trace=(trace and i == SETUPS - 1), out=out,
                   reload_path=reload_path if i == SETUPS - 1 else None, cpu=probe.cpu)
            for i in range(SETUPS)
        ]
    finally:
        stream_path.unlink(missing_ok=True)
        reload_path.unlink(missing_ok=True)
    probe.take()
    last = children[-1]

    digests = [d for child in children for d in child["warm_digests"]]
    measured = [p for child in children for p in child["passes"]]
    digests += [digest for _, _, digest in measured]
    reload_want = inputs.match_digest(reload_expected)
    attempted = len(digests) + len(last["reload_digests"])
    good = sum(1 for d in digests if d == want)
    good += sum(1 for d in last["reload_digests"] if d == reload_want)

    setups = [c["setup_s"] * REF_NOMINAL_S / c["setup_ref"] for c in children]
    passes = [elapsed * REF_NOMINAL_S / ref for elapsed, ref, _ in measured]
    raw_passes = [elapsed for elapsed, _, _ in measured]
    mb = len(stream) / 1e6
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "scan_mb_s": (mb / statistics.median(passes), "MB/s"),
        "latency_p50_ms": (statistics.median(passes) * 1e3, "ms"),
        "latency_tail_ms": (percentile(passes, TAIL_Q) * 1e3, "ms"),
        "sustained_rps": (len(passes) / sum(passes), "1/s"),
        "reload_s": (statistics.median(t * REF_NOMINAL_S / ref for t, ref in last["reloads"]), "s"),
        "ok_share": (good / attempted, "ratio"),
        "peak_rss_mb": (last["peak_rss_mb"], "MB"),
        "automaton_states": (float(last["automaton_states"]), "states"),
    }
    raw = {
        "setup_s": statistics.median(c["setup_s"] for c in children),
        "scan_mb_s": mb / statistics.median(raw_passes),
        "latency_p50_ms": statistics.median(raw_passes) * 1e3,
        "latency_tail_ms": percentile(raw_passes, TAIL_Q) * 1e3,
        "sustained_rps": len(raw_passes) / sum(raw_passes),
        "reload_s": statistics.median(t for t, _ in last["reloads"]),
        "passes": len(passes),
        "dense_after_warmup": all(c["dense_after_warmup"] for c in children),
        "last_child_reference_loop": last["probe"],
    }
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": attempted - good,
        "raw": raw,
        "layers": last.get("layers"),
    }


if __name__ == "__main__":
    sys.path.insert(0, str(Path.cwd() / "src"))
    sys.exit(child_main(sys.argv[1:]))
