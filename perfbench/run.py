"""Benchmark entry point for the GHRP reproduction (see README.md here).

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-grid --seed 2018 --seconds 45 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  The full result (host fingerprint, versions,
fallback reason per policy, every iteration) is written under
``.perfbench/out/``; traced runs also write their spans there.

``--write-golden`` re-derives the committed golden of a seed with the
reference engine and writes it under ``golden/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import scenarios

WORKLOADS = ("paper-grid", "service-jobs")
#: Every run must end well inside the 180 s a run is allowed.
RUN_BUDGET_SECONDS = 170.0
#: Least cold sweeps per untraced paper-grid run.
MIN_SWEEPS = 3

BENCH_DIR = Path(__file__).resolve().parent


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=scenarios.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="derive and commit the golden of --seed, then exit")
    return parser.parse_args(argv)


class Runner:
    """Starts child processes inside the checkout and collects their JSON."""

    def __init__(self, root: Path, tag: str) -> None:
        self.root = root
        self.started = time.monotonic()
        self.work = root / ".perfbench" / "work" / f"{tag}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self._serial = 0
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        self.env = env

    def remaining(self) -> float:
        return RUN_BUDGET_SECONDS - (time.monotonic() - self.started)

    def child(self, role: str, options: dict) -> dict:
        self._serial += 1
        options_path = self.work / f"{role}-{self._serial}.options.json"
        out_path = self.work / f"{role}-{self._serial}.out.json"
        # The child times its own set-up from this instant (a paper-grid
        # sweep's set-up is interpreter start plus imports).
        options = dict(options, work=str(self.work), spawned_at=time.monotonic())
        options_path.write_text(json.dumps(options))
        try:
            finished = subprocess.run(
                [sys.executable, str(BENCH_DIR / "child.py"), role,
                 str(options_path), str(out_path)],
                cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True,
                timeout=max(self.remaining(), 1.0),
            )
        except subprocess.TimeoutExpired as error:
            raise BenchError(f"{role} child exceeded the run budget") from error
        if finished.returncode != 0:
            sys.stderr.write(finished.stdout + finished.stderr)
            raise BenchError(f"{role} child exited {finished.returncode}")
        return json.loads(out_path.read_text())

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


# ---------------------------------------------------------------------------
# Golden
# ---------------------------------------------------------------------------

def golden_path(seed: int) -> Path:
    return BENCH_DIR / "golden" / f"seed-{seed}.json"


def golden_for(parts: list[str], seed: int, runner: Runner) -> tuple[dict, str]:
    """The golden of each part (``grid``, ``service``, ``replay``), and its source."""
    if parts == ["service"]:
        seed = scenarios.DEFAULT_SEED  # its cells do not depend on --seed
    path = golden_path(seed)
    committed = json.loads(path.read_text()) if path.is_file() else None
    if committed is not None and committed.get("params") != scenarios.params():
        committed = None  # derived for other inputs: never gate against it
    if committed is not None:
        source, document = "committed", committed
    else:
        source = "derived"
        document = runner.child("golden", {"seed": seed, "parts": parts})
    return {part: document[part] for part in parts}, source


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def measure_grid(seed: int, seconds: float, traced: bool, golden: dict,
                 runner: Runner) -> tuple[list[dict], list[dict]]:
    """Cold sweeps, one per child process; returns (untraced, traced) docs."""
    budget = seconds / 2 if traced else seconds
    least = 2 if traced else MIN_SWEEPS
    untraced: list[dict] = []
    durations: list[float] = []
    began = time.monotonic()
    # Another sweep starts only if it would end nearer the budget than
    # stopping now does, so a run lasts about ``budget`` seconds.
    while (len(untraced) < least
           or time.monotonic() - began + statistics.median(durations) / 2 < budget):
        if untraced and runner.remaining() < 3 * max(durations):
            break
        started = time.monotonic()
        untraced.append(runner.child(
            "sweep", {"seed": seed, "golden": golden, "traced": False}))
        durations.append(time.monotonic() - started)
    traced_docs = []
    if traced:
        for _ in range(2):
            traced_docs.append(runner.child(
                "sweep", {"seed": seed, "golden": golden, "traced": True}))
    return untraced, traced_docs


#: Seconds of alternating observed/unobserved replays behind obs.on_off_ratio.
OBS_SECONDS = 6.0


def end_to_end(docs: list[dict]) -> dict[str, float]:
    setups = [s for doc in docs for s in doc["setup_s"]]
    walls = [w for doc in docs for w in doc["walls_s"]]
    instructions = sum(n for doc in docs for n in doc["instructions"])
    # Percentiles over every request of every iteration: ~70 rows of
    # nine sweeps on paper-grid, ~300 jobs on service-jobs.
    latencies = [ms for doc in docs for _kind, ms in doc["requests"]]
    # The host's speed swings between iterations, so fast and slow ones
    # come in two clusters.  A median jumps between them with the mix;
    # the timed total divided by the iterations moves smoothly with it.
    return {
        "setup_s": statistics.median(setups),
        "wall_s": sum(walls) / len(walls),
        "sim_minstr_per_s": instructions / sum(walls) / 1e6,
        "job_p50_ms": statistics.median(latencies),
        "job_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8],
        "peak_rss_mb": statistics.median(doc["peak_rss_mb"] for doc in docs),
    }


def per_layer(traced: list[dict]) -> dict[str, float]:
    """Per-layer metrics, averaged over the traced documents."""
    layers = [doc["layers"] for doc in traced]
    return {
        name: statistics.fmean(layer[name] for layer in layers)
        for name, value in layers[0].items() if isinstance(value, (int, float))
    }


def run(args: argparse.Namespace, root: Path) -> dict:
    runner = Runner(root, args.workload)
    try:
        traced = bool(args.trace)
        grid = args.workload == "paper-grid"
        parts = (["grid", "replay"] if traced else ["grid"]) if grid else ["service"]
        began = time.monotonic()
        goldens, source = golden_for(parts, args.seed, runner)
        golden_s = time.monotonic() - began
        golden = goldens[parts[0]]
        gate_ok = gate.gate_can_fail(golden)
        obs_doc = None
        if grid:
            untraced, traced_docs = measure_grid(
                args.seed, args.seconds, traced, golden, runner)
            if traced:
                obs_doc = runner.child("obs", {
                    "seed": args.seed, "seconds": OBS_SECONDS,
                    "golden": goldens["replay"]})
        else:
            doc = runner.child("service", {
                "seed": args.seed, "seconds": args.seconds, "golden": golden,
                "traced": traced})
            untraced, traced_docs = [doc], [doc] if traced else []
    finally:
        runner.close()
    docs = untraced + traced_docs if grid else untraced
    layers = per_layer(traced_docs) if traced else None
    if obs_doc is not None:
        # Sweeps run one per process, so the ratio is taken across them.
        layers["trace.overhead_ratio"] = (
            statistics.median(d["walls_s"][0] for d in traced_docs)
            / statistics.median(d["walls_s"][0] for d in untraced))
        layers["obs.on_off_ratio"] = obs_doc["obs.on_off_ratio"]
        docs = docs + [obs_doc]
    attempted = sum(doc["attempted"] for doc in docs)
    failed = sum(doc["failed"] for doc in docs)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": failed == 0 and gate_ok,
        "gate_can_fail": gate_ok,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted if attempted else 1.0,
        "problems": [p for doc in docs for p in doc["problems"]][:20],
        "golden": {"source": source, "seconds": golden_s,
                   "cells": sum(len(cells) for cells in goldens.values())},
        "environment": docs[0]["environment"],
        "fallback_reason_per_policy": docs[0]["fallback"],
        "end_to_end": end_to_end(untraced),
        "per_layer": layers,
        "accounting": [doc["layers"]["accounting"] for doc in traced_docs],
        "iterations": {
            "setup_s": [s for doc in untraced for s in doc["setup_s"]],
            "walls_s": [w for doc in untraced for w in doc["walls_s"]],
            "requests": [r for doc in untraced for r in doc["requests"]],
        },
        "trace_records": [doc.pop("trace_records") for doc in traced_docs],
    }


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the root of a checkout holding src/repro",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.write_golden:
        runner = Runner(root, "golden")
        try:
            document = runner.child(
                "golden", {"seed": args.seed, "parts": ["grid", "service", "replay"]})
        finally:
            runner.close()
        golden_path(args.seed).parent.mkdir(exist_ok=True)
        golden_path(args.seed).write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
        print(f"wrote {golden_path(args.seed)}")
        return 0
    try:
        result = run(args, root)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = result["per_layer"] if args.trace else result["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: metrics not produced: {missing}", file=sys.stderr)
        return 1
    out_dir = root / ".perfbench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    records = result.pop("trace_records")
    if records:
        (out_dir / f"{stem}.spans.json").write_text(json.dumps(records))
    (out_dir / f"{stem}.json").write_text(json.dumps(result, indent=1))
    for metric in wanted:
        print(f"{metric['name']:36s} {values[metric['name']]:>14.6g} {metric['unit']}")
    for problem in result["problems"]:
        print(f"gate: {problem}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
