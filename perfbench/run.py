"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload batch_tcp --seed 1 --seconds 12 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` prints every
per-layer metric and writes spans (JSONL and Chrome trace) and the layer
table to ``.perfbench_out/``.  The last stdout line is the result::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

A wrong answer sets ``correct`` to false and exits 1.  ``--self-test``
shows the checker has teeth: it flips one match in a real reply and
exits 0 only if ``ok_share`` falls below 1.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("batch_tcp", "serve_tokens", "serve_tcp")


def _declared(kind: str) -> list[dict]:
    """The ``end_to_end`` or ``per_layer`` metrics ``BENCHMARK.json`` declares."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())[kind]


def _git_sha() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _header(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy

    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "git_sha": _git_sha(), "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": os.cpu_count(),
    }


def _run(workload: str, seed: int, seconds: float, trace: bool, probe) -> dict:
    if workload == "batch_tcp":
        import batch

        result = batch.run(seed, seconds, trace, OUT, probe)
        return {**result, "wrong": result["failed"]}
    import serve

    runner = serve.run_tokens if workload == "serve_tokens" else serve.run_tcp
    result = runner(seed, seconds, trace, OUT, probe)
    tally = result.pop("tally")
    return {**result, "attempted": tally.attempted, "failed": tally.failed,
            "wrong": tally.wrong + tally.errors, "notes": tally.notes}


def _self_test(probe) -> int:
    """Send real requests, flip one match in one reply, and show the
    checker counts it: ``ok_share`` must fall below 1."""
    import inputs
    import serve
    from repro.serve import MatchClient

    payloads = serve._payloads(inputs.tokens_pool(), 1, 2)
    tally = serve.Tally()
    server = serve.Server(["--builtin", "tokens_exact"], OUT, trace=False, cpu=probe.cpu)
    try:
        with MatchClient.connect(server.address, timeout=60) as client:
            for index, body in enumerate(payloads.bodies):
                document = client.match(body).raw
                if index == 1:
                    rule, end = document["matches"][0]
                    document["matches"][0] = [rule, end + 1]
                got = serve.reply_matches(document, len(body))
                tally.check(document["status"], got, (payloads.expected[index],))
    finally:
        server.stop()
    share = tally.ok / tally.attempted
    print(json.dumps({"self_test": "flip one match", "ok_share": share, "wrong": tally.wrong}))
    return 0 if share < 1.0 and tally.wrong == 1 else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    # a terminated run still unwinds, so every server it started is stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    from common import SpeedProbe, placement

    OUT.mkdir(exist_ok=True)
    cpus = placement()
    if cpus is not None:
        os.sched_setaffinity(0, {cpus[0]})
    probe = SpeedProbe(cpu=cpus[1] if cpus is not None else None)
    probe.take()
    if args.self_test:
        return _self_test(probe)

    header = _header(args.workload, args.seed, args.seconds, bool(args.trace))
    result = _run(args.workload, args.seed, args.seconds, bool(args.trace), probe)
    probe.take()
    header["reference_loop"] = probe.summary()
    header["raw"] = result["raw"]
    header["normalisation"] = "times scaled by nominal/measured reference loop (README.md)"
    print(json.dumps({"header": header}, default=str))

    if args.trace:
        # a layer that is not on this workload's path reads 0 (README.md)
        layers = result["layers"] or {}
        units = {m["name"]: m["unit"] for m in _declared("per_layer")}
        metrics = {
            name: {"value": float(layers.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()
        }
        (OUT / f"{args.workload}.layers.json").write_text(json.dumps(layers, indent=1))
        for name, unit in units.items():
            shown = "n/a (not on this path)" if name not in layers else f"{layers[name]:.6g} {unit}"
            print(f"  {name:36s} {shown}")
    else:
        metrics = {
            m["name"]: {"value": float(result["metrics"][m["name"]][0]),
                        "unit": result["metrics"][m["name"]][1]}
            for m in _declared("end_to_end")
        }
        for name, entry in metrics.items():
            print(f"  {name:20s} {entry['value']:.6g} {entry['unit']}")
    if result.get("notes"):
        print(f"  problems: {result['notes']}")
    correct = result["wrong"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
