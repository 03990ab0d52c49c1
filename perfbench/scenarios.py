"""The benchmark's workloads, each run by one caller in one child process.

``child.py`` calls one function here per process and writes the JSON it
returns; ``run.py`` turns those documents into metrics.  Every function
times calls into the simulator's public API from outside, checks every
output against the golden, and (when traced) installs the wrappers of
:mod:`tracing` around the timed region only.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import platform
import random
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import fields
from pathlib import Path

import gate
import tracing

#: Seed of the committed golden; any other seed derives its own.
DEFAULT_SEED = 2018
#: Workloads per ``Category`` in a paper-grid sweep.  Two programs per
#: category halve how much one program's seed-picked shape moves a
#: percentile; the trace scale is halved to keep the sweep's work.
GRID_PER_CATEGORY = 2
#: Trace scale of the paper-grid workloads.
GRID_SCALE = 0.015
#: Trace scale of the service's three workloads.  Jobs only read cached
#: cells, so the scale sets just the one-off fill sweep's cost.
SERVICE_SCALE = 0.01
#: Trace scale of the server workload ``obs.on_off_ratio`` replays.
REPLAY_SCALE = 0.04
REPLAY_POLICIES = ("lru", "sdbp", "ghrp")
#: Client poll interval while a job runs; jobs take tens of milliseconds.
POLL_SECONDS = 0.01
#: Least iterations per timed phase, however short ``--seconds`` is.
MIN_ITERATIONS = 2
#: Set-ups per service-jobs run (cache fill plus daemon start); their
#: median is reported.
SERVICE_SETUPS = 3


def params() -> dict:
    """Everything the golden depends on besides the seed."""
    return {
        "grid_scale": GRID_SCALE,
        "grid_per_category": GRID_PER_CATEGORY,
        "service_scale": SERVICE_SCALE,
        "replay_scale": REPLAY_SCALE,
        "replay_policies": list(REPLAY_POLICIES),
    }


# ---------------------------------------------------------------------------
# Inputs, all derived from the seed
# ---------------------------------------------------------------------------
#
# The paper-grid workloads and the server trace ``obs.on_off_ratio``
# replays are the category presets (``jitter=False``): the seed picks the program and its walk, not the
# preset's size, so run-to-run spread across seeds stays small.  The
# service's workloads are rebuilt by ``JobSpec.build_workloads``, which
# always jitters; a job's time is mostly that rebuild, so their seeds
# are pinned and ``--seed`` varies the job stream instead.

def grid_descriptors(seed: int) -> list[dict]:
    """``GRID_PER_CATEGORY`` workloads per ``Category``, named and seeded
    as ``make_suite`` does."""
    from repro.util.rng import derive_seed
    from repro.workloads.spec import Category

    return [
        {"name": f"{category}-{index:02d}", "category": category,
         "seed": derive_seed(seed, category, index), "trace_scale": GRID_SCALE,
         "jitter": False}
        for category in (c.value for c in Category)
        for index in range(GRID_PER_CATEGORY)
    ]


#: The service's workloads.  Rebuilding a mobile program takes ~15 ms, a
#: server program ~90-170 ms; with three workloads in equal shares the
#: median job sits inside the middle one's latency mode, not on the
#: boundary between two modes where it would jump from run to run.
SERVICE_CATEGORIES = ("short-mobile", "short-server", "long-server")
#: Jobs per service-jobs iteration (the unit ``wall_s`` times there):
#: one per service workload.
ROUND_JOBS = len(SERVICE_CATEGORIES)


def service_descriptors() -> list[dict]:
    """The jittered workloads the service's jobs name (pinned seeds)."""
    from repro.util.rng import derive_seed

    return [
        {"name": f"{category}-job", "category": category,
         "seed": derive_seed(DEFAULT_SEED, "service-jobs", category),
         "trace_scale": SERVICE_SCALE, "jitter": True}
        for category in SERVICE_CATEGORIES
    ]


def replay_descriptor(seed: int) -> dict:
    from repro.util.rng import derive_seed

    return {"name": "long-server-00", "category": "long-server",
            "seed": derive_seed(seed, "observed-replay"),
            "trace_scale": REPLAY_SCALE, "jitter": False}


def build(descriptor: dict):
    """``make_workload`` looked up on its module, so the traced run sees it."""
    from repro.workloads import suite
    from repro.workloads.spec import Category

    return suite.make_workload(
        descriptor["name"], Category(descriptor["category"]),
        seed=descriptor["seed"], trace_scale=descriptor["trace_scale"],
        jitter=descriptor["jitter"],
    )


def environment() -> dict:
    """Host fingerprint and toolchain versions recorded with each result."""
    import numpy

    pages = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    host = {
        "system": platform.system(),
        "release": platform.release(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "memory_bytes": pages,
    }
    fingerprint = hashlib.sha256(
        repr(sorted(host.items())).encode("utf-8")).hexdigest()[:16]
    return {
        "host_fingerprint": fingerprint,
        "host": host,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# ---------------------------------------------------------------------------
# Golden derivation (reference engine)
# ---------------------------------------------------------------------------

def derive_golden(seed: int, parts: list[str]) -> dict:
    """Reference-engine statistics for the requested golden parts.

    ``parts`` names any of ``"grid"``, ``"service"`` and ``"replay"``.
    """
    from repro.experiments.figures import PAPER_POLICIES
    from repro.experiments.runner import run_workload
    from repro.frontend.config import FrontEndConfig

    golden: dict = {"seed": seed, "params": params()}
    config = FrontEndConfig()
    for part, descriptors in (("grid", lambda: grid_descriptors(seed)),
                              ("service", service_descriptors)):
        if part not in parts:
            continue
        cells = {}
        for descriptor in descriptors():
            workload = build(descriptor)
            for policy in PAPER_POLICIES:
                cell_config = config.with_overrides(
                    icache_policy=policy, btb_policy=policy)
                result = run_workload(workload, cell_config, engine="reference")
                cells[gate.cell_key(policy, workload.name)] = _golden_entry(result)
        golden[part] = cells
    if "replay" in parts:
        setup = _replay_inputs(replay_descriptor(seed))
        cells = {}
        for policy in REPLAY_POLICIES:
            result = _observed_simulate(setup, policy, "reference", observed=True)
            cells[gate.cell_key(policy, setup["name"])] = _golden_entry(result)
        golden["replay"] = cells
    return golden


def _golden_entry(result) -> dict:
    entry = gate.stats_of_result(result)
    # Not gated: lets the traced run report engine time per access.
    entry["accesses"] = result.icache_total.accesses + result.btb_total.accesses
    return entry


# ---------------------------------------------------------------------------
# paper-grid: one cold sweep per child process
# ---------------------------------------------------------------------------

def run_sweep(seed: int, spawned_at: float, work: str, golden: dict,
              traced: bool) -> dict:
    """One cold sweep from workload descriptors to a persisted grid."""
    from repro import api
    from repro.experiments.figures import PAPER_POLICIES
    import repro.experiments.scheduler  # noqa: F401 -- part of set-up
    import repro.kernel.engine  # noqa: F401 -- part of set-up

    cache_dir = Path(tempfile.mkdtemp(prefix="grid-", dir=work))
    descriptors = grid_descriptors(seed)
    setup_s = time.monotonic() - spawned_at

    installed = tracing.Installed(tracing.Tracer()) if traced else None
    if not traced:
        tracing.assert_unwrapped()
    #: (workload, instant) as each cell completes, in sweep order.
    marks: list[tuple[str, float]] = []
    started = time.perf_counter()
    workloads = [build(d) for d in descriptors]
    sweep_started = time.perf_counter()
    grid = api.sweep(
        workloads, api.SweepOptions(policies=PAPER_POLICIES, cache=str(cache_dir)),
        engine="fast",
        progress=lambda cell: marks.append((cell.workload, time.perf_counter())),
    )
    finished = time.perf_counter()
    if installed is not None:
        installed.remove()

    observed = {gate.cell_key(c.policy, c.workload): gate.stats_of_cell(c)
                for c in grid.cells}
    problems = gate.compare(observed, golden)
    attempted = len(workloads) * len(PAPER_POLICIES)
    bad = {p.split(":", 1)[0] for p in problems}
    failed = len(bad) + (attempted - len(observed))
    problems += [f"{f.policy}/{f.workload}: {f.kind}" for f in grid.failed]
    # A request is one workload's row: its five cells, run back to back,
    # from the previous row's last persisted cell to its own.  Which cell
    # of a row pays for the work the row shares (walking, tokenizing)
    # changes with the seed, so single cells would move mass across the
    # percentiles from seed to seed; whole rows do not.
    row_ends = {name: at for name, at in marks}
    requests = []
    begin = sweep_started
    for name, end in row_ends.items():
        requests.append([name, (end - begin) * 1000.0])
        begin = end
    doc = {
        "setup_s": [setup_s],
        "walls_s": [finished - started],
        "requests": requests,
        "instructions": [sum(c.instructions for c in grid.cells)],
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "peak_rss_mb": peak_rss_mb(),
        "fallback": {c.policy: c.fast_path_fallback_reason for c in grid.cells},
        "environment": environment(),
    }
    if installed is not None:
        tracer = installed.tracer
        extra = {
            "experiments.snapshot_mb": _dir_bytes(cache_dir / "snapshots") / 1e6,
        }
        doc["layers"] = layer_metrics(tracer, 1, finished - started, golden, extra)
        doc["trace_records"] = tracer.dump()
    shutil.rmtree(cache_dir, ignore_errors=True)
    return doc


# ---------------------------------------------------------------------------
# Observability on/off: the obs layer's metric, from paper-grid's traced run
# ---------------------------------------------------------------------------

def _replay_inputs(descriptor: dict) -> dict:
    from repro.frontend.config import FrontEndConfig
    from repro.frontend.options import RunOptions
    from repro.kernel import tokenize_trace

    workload = build(descriptor)
    tokens = tokenize_trace(list(workload.records()))
    warmup = RunOptions.from_config_warmup(
        FrontEndConfig(), workload.instruction_count()).warmup_instructions
    return {"name": workload.name, "tokens": tokens, "warmup": warmup}


def _observed_simulate(setup: dict, policy: str, engine: str, observed: bool):
    from repro import api
    from repro.frontend.options import RunOptions
    from repro.obs import NULL_OBS, Observability
    from repro.telemetry import TelemetryConfig

    return api.simulate(
        setup["tokens"], policy=policy, btb_policy=policy, engine=engine,
        obs=Observability() if observed else NULL_OBS,
        options=RunOptions(
            warmup_instructions=setup["warmup"],
            telemetry=TelemetryConfig() if observed else None,
        ),
    )


class _Phase:
    """Iterations of one timed phase, with every request gated."""

    def __init__(self) -> None:
        self.walls: list[float] = []
        #: [kind, latency ms] per request; kinds repeat across iterations.
        self.requests: list[list] = []
        self.instructions: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def request(self, kind: str, seconds: float, problems: list[str]) -> None:
        self.requests.append([kind, seconds * 1000.0])
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[: 20 - len(self.problems)])

    def loop(self, seconds: float, iteration) -> None:
        """Run ``iteration()`` until ``seconds`` pass (at least twice)."""
        started = time.perf_counter()
        while (len(self.walls) < MIN_ITERATIONS
               or time.perf_counter() - started < seconds):
            began = time.perf_counter()
            instructions = iteration()
            self.walls.append(time.perf_counter() - began)
            self.instructions.append(instructions)


def run_obs(seed: int, seconds: float, golden: dict) -> dict:
    """``obs.on_off_ratio``: one server trace, walked and tokenized once,
    replayed with lru, sdbp and ghrp with observability and telemetry
    off, divided by the same replays with both on (as ``--metrics-out``
    and ``--telemetry`` users run them).  Alternating rounds share the
    host's drift.  Every output is gated, the telemetry series too.
    """
    setup = _replay_inputs(replay_descriptor(seed))
    unobserved_golden = {
        key: {k: v for k, v in entry.items() if k != "telemetry"}
        for key, entry in golden.items()
    }

    def triple(phase: _Phase, observed: bool) -> int:
        total = 0
        for policy in REPLAY_POLICIES:
            began = time.perf_counter()
            result = _observed_simulate(setup, policy, "fast", observed)
            elapsed = time.perf_counter() - began
            key = gate.cell_key(policy, setup["name"])
            want = golden if observed else unobserved_golden
            phase.request(policy, elapsed, gate.compare(
                {key: gate.stats_of_result(result)}, want))
            total += result.instructions
        return total

    # One untimed replay first: the per-process GHRP index memo and lazy
    # imports fill once per process, not once per replay.
    warmup = _Phase()
    triple(warmup, True)
    tracing.assert_unwrapped()
    on, off = _Phase(), _Phase()
    started = time.perf_counter()
    while len(on.walls) < MIN_ITERATIONS or time.perf_counter() - started < seconds:
        for phase, observed in ((on, True), (off, False)):
            began = time.perf_counter()
            phase.instructions.append(triple(phase, observed))
            phase.walls.append(time.perf_counter() - began)
    doc = {"attempted": 0, "failed": 0, "problems": [],
           "obs.on_off_ratio": statistics.median(off.walls) / statistics.median(on.walls)}
    _merge_gate(doc, warmup, on, off)
    return doc


def _phase_doc(phase: _Phase, setup_s: list[float]) -> dict:
    return {
        "setup_s": setup_s,
        "walls_s": phase.walls,
        "requests": phase.requests,
        "instructions": phase.instructions,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "problems": phase.problems,
    }


def _merge_gate(doc: dict, *phases: _Phase) -> None:
    """Every phase's outputs count in the document's gate totals."""
    for phase in phases:
        doc["attempted"] += phase.attempted
        doc["failed"] += phase.failed
        doc["problems"] += phase.problems


# ---------------------------------------------------------------------------
# service-jobs: distinct jobs whose cells are all cached
# ---------------------------------------------------------------------------

def job_payloads(seed: int, descriptors: list[dict]):
    """Distinct one- or two-cell job payloads over already-cached cells.

    Each payload is a new job id (the id is a digest of the request), yet
    every cell it names has the digest of a cached cell.  A job names one
    workload and one policy, or one workload and an ordered pair of
    policies; each pass over those shapes spells out a different subset
    of ``FrontEndConfig`` fields at their default values in ``config``.
    Every ``ROUND_JOBS`` payloads name each workload once, so rounds do
    the same work and only their order depends on ``seed``.
    """
    from repro.experiments.figures import PAPER_POLICIES
    from repro.frontend.config import FrontEndConfig

    workloads = [{key: d[key] for key in ("name", "category", "seed", "trace_scale")}
                 for d in descriptors]
    shapes = [[p] for p in PAPER_POLICIES]
    shapes += [list(pair) for pair in itertools.permutations(PAPER_POLICIES, 2)]
    default = FrontEndConfig()
    explicit = [
        (f.name, getattr(default, f.name)) for f in fields(FrontEndConfig)
        if type(getattr(default, f.name)) in (int, float, str, bool)
    ]
    rng = random.Random(seed)
    for variant in range(2 ** len(explicit)):
        config = {name: value for bit, (name, value) in enumerate(explicit)
                  if variant >> bit & 1}
        orders = [rng.sample(shapes, len(shapes)) for _ in workloads]
        for k in range(len(shapes)):
            jobs = [([w], order[k]) for w, order in zip(workloads, orders, strict=True)]
            rng.shuffle(jobs)
            for names, policies in jobs:
                yield {"workloads": names, "policies": policies,
                       "config": config, "engine": "fast"}


def _fill_cache(data_dir: Path, descriptors: list[dict]):
    """Compute every cell the jobs will name, with a fast cached sweep."""
    from repro import api
    from repro.experiments.figures import PAPER_POLICIES

    return api.sweep(
        [build(d) for d in descriptors],
        api.SweepOptions(policies=PAPER_POLICIES, cache=str(data_dir / "cache")),
        engine="fast",
    )


def _start_service(data_dir: Path):
    from repro.service.client import ServiceClient
    from repro.service.daemon import ServiceDaemon
    from repro.service.manager import JobManager, ServiceConfig

    daemon = ServiceDaemon(JobManager(data_dir, config=ServiceConfig(workers=1)))
    daemon.start()
    client = ServiceClient(daemon.endpoint)
    client.health()
    return daemon, client


def _stop_service(daemon) -> None:
    daemon.request_drain()
    daemon.wait()


def run_service(seed: int, seconds: float, work: str, golden: dict,
                traced: bool) -> dict:
    from repro.service.client import ServiceError

    descriptors = service_descriptors()
    # Set-up, SERVICE_SETUPS times over: a fresh data dir, one sweep
    # filling its cache, and a daemon start over it.  The median is
    # reported; the last daemon serves the jobs.
    setup_s = []
    fill_problems: list[str] = []
    for attempt in range(SERVICE_SETUPS):
        began = time.perf_counter()
        data_dir = Path(tempfile.mkdtemp(prefix="service-", dir=work))
        grid = _fill_cache(data_dir, descriptors)
        daemon, client = _start_service(data_dir)
        setup_s.append(time.perf_counter() - began)
        fill_problems += gate.compare(
            {gate.cell_key(c.policy, c.workload): gate.stats_of_cell(c)
             for c in grid.cells}, golden)
        if attempt < SERVICE_SETUPS - 1:
            _stop_service(daemon)
            shutil.rmtree(data_dir, ignore_errors=True)
    fallback = {c.policy: c.fast_path_fallback_reason for c in grid.cells}
    payloads = job_payloads(seed, descriptors)
    client_ms: dict[str, list[float]] = {"submit": [], "result": [],
                                         "queue_wait": [], "run": []}

    def job(phase: _Phase) -> int:
        payload = next(payloads)
        began = time.perf_counter()
        problems: list[str] = []
        try:
            summary = client.submit(payload)
            submitted = time.perf_counter()
            final = client.wait(summary["job"], poll_seconds=POLL_SECONDS,
                                timeout=60.0)
            fetching = time.perf_counter()
            document = client.result(summary["job"])
            done = time.perf_counter()
        except ServiceError as error:
            phase.request(str(phase.attempted), time.perf_counter() - began,
                          [f"job refused: {error}"])
            return 0
        cells = document.get("cells", [])
        if not summary.get("created"):
            problems.append(f"job {summary['job']} was not new")
        if final.get("state") != "done" or document.get("exit_code") != 0:
            problems.append(f"job {summary['job']} ended {final.get('state')}")
        expected = len(payload["workloads"]) * len(payload["policies"])
        if document.get("stats", {}).get("computed") != 0 or len(cells) != expected:
            problems.append(f"job {summary['job']} did not serve {expected} cached cells")
        problems += gate.compare(
            {gate.cell_key(c["policy"], c["workload"]): gate.stats_of_cell(c)
             for c in cells}, golden)
        # Every job is distinct, so each is its own request kind.
        phase.request(str(phase.attempted), done - began, problems)
        client_ms["submit"].append((submitted - began) * 1000.0)
        client_ms["result"].append((done - fetching) * 1000.0)
        client_ms["queue_wait"].append(
            (final["started_at"] - final["submitted_at"]) * 1000.0)
        client_ms["run"].append((final["finished_at"] - final["started_at"]) * 1000.0)
        return sum(c["instructions"] for c in cells)

    def round_of_jobs(phase: _Phase) -> int:
        return sum(job(phase) for _ in range(ROUND_JOBS))

    tracing.assert_unwrapped()
    timed = _Phase()
    budget = seconds / 2 if traced else seconds
    timed.loop(budget, lambda: round_of_jobs(timed))
    doc = _phase_doc(timed, setup_s)
    if traced:
        for values in client_ms.values():
            values.clear()
        traced_phase = _Phase()
        installed = tracing.Installed(tracing.Tracer())
        traced_phase.loop(budget, lambda: round_of_jobs(traced_phase))
        installed.remove()
        _merge_gate(doc, traced_phase)
        jobs = traced_phase.attempted
        extra = {
            "trace.overhead_ratio": statistics.median(traced_phase.walls)
            / statistics.median(timed.walls),
            "service.submit_ms": statistics.median(client_ms["submit"]),
            "service.queue_wait_ms": statistics.median(client_ms["queue_wait"]),
            "service.run_ms": statistics.median(client_ms["run"]),
            "service.result_ms": statistics.median(client_ms["result"]),
            "service.polls_per_job":
                installed.tracer.counts["service.poll"] / jobs,
        }
        doc["layers"] = layer_metrics(
            installed.tracer, len(traced_phase.walls), sum(traced_phase.walls),
            golden, extra)
        doc["trace_records"] = installed.tracer.dump()
    _stop_service(daemon)
    shutil.rmtree(data_dir, ignore_errors=True)
    if fill_problems:
        doc["failed"] += 1
        doc["attempted"] += 1
        doc["problems"] += fill_problems[:5]
    doc["peak_rss_mb"] = peak_rss_mb()
    doc["fallback"] = fallback
    doc["environment"] = environment()
    return doc


# ---------------------------------------------------------------------------
# Per-layer metrics of a traced phase
# ---------------------------------------------------------------------------

#: Per-layer metric -> the span names whose self time it sums.
SELF_TIME_METRICS: dict[str, tuple[str, ...]] = {
    "workloads.build_s": ("workloads.build", "workloads.build_jobs"),
    "workloads.walk_s": ("workloads.walk", "workloads.walk.open"),
    "traces.reconstruct_s": ("traces.reconstruct",),
    "kernel.tokenize_s": ("kernel.tokenize",),
    "frontend.build_s": ("frontend.build",),
    "experiments.sweep_s": ("experiments.sweep",),
    "experiments.digest_s": ("experiments.digest",),
    "experiments.cache_put_s": ("experiments.cache_put",),
    "experiments.cache_get_s": ("experiments.cache_get",),
    "experiments.journal_append_s": ("experiments.journal_append",),
    "experiments.snapshot_save_s": ("experiments.snapshot_save",),
    "experiments.snapshot_load_s": ("experiments.snapshot_load",),
    "service.client_s": ("service.submit", "service.wait", "service.poll",
                         "service.result"),
    "service.execute_s": ("service.execute",),
    "service.journal_append_s": ("service.journal_append",),
    "service.result_put_s": ("service.result_put",),
}

def layer_metrics(tracer: tracing.Tracer, iterations: int, wall: float,
                  golden: dict, extra: dict) -> dict:
    """Per-layer metrics per iteration of a traced phase.

    Self times cover every thread; ``trace.unattributed_s`` is measured
    on the caller's thread alone, where the wrapped calls' self times
    plus the unattributed rest add up to ``trace.wall_s``.
    """
    from repro.experiments.figures import PAPER_POLICIES

    per = 1.0 / iterations
    self_all = tracer.self_seconds()
    metrics = {
        name: sum(self_all.get(span, 0.0) for span in spans) * per
        for name, spans in SELF_TIME_METRICS.items()
    }
    counts = tracer.counts
    built = counts["workloads.build"]
    metrics["workloads.walks_per_workload"] = (
        counts["workloads.walk.open"] / built if built else 0.0)
    metrics["workloads.walk_records"] = tracer.drained_records("workloads.walk") * per
    metrics["kernel.tokenize_calls"] = counts["kernel.tokenize"] * per
    metrics["experiments.journal_appends"] = counts["experiments.journal_append"] * per

    cells = [s for s in tracer.spans if s.name == "engine.cell"]
    fallback = [s for s in cells if s.info["fallback"]]
    metrics["engine.fast_s"] = sum(s.self_s for s in cells
                                   if not s.info["fallback"]) * per
    metrics["engine.reference_s"] = sum(s.self_s for s in fallback) * per
    metrics["engine.fallback_cells"] = len(fallback) * per
    metrics["engine.fallback_share"] = len(fallback) / len(cells) if cells else 0.0
    for policy in PAPER_POLICIES:
        mine = [s for s in cells if s.info["policy"] == policy]
        accesses = sum(
            golden[gate.cell_key(policy, s.info["workload"])]["accesses"]
            for s in mine)
        metrics[f"engine.{policy}.ns_per_access"] = (
            sum(s.self_s for s in mine) / accesses * 1e9 if accesses else 0.0)

    def ratio(name: str, key: str) -> tuple[int, int]:
        spans = [s for s in tracer.spans if s.name == name]
        hits = sum(1 for s in spans if s.info[key])
        return hits, len(spans)

    hits, gets = ratio("experiments.cache_get", "hit")
    metrics["experiments.cache_hit_ratio"] = hits / gets if gets else 0.0
    snapshot_hits, _loads = ratio("experiments.snapshot_load", "hit")
    writes, _saves = ratio("experiments.snapshot_save", "wrote")
    metrics["experiments.snapshot_hit_ratio"] = (
        snapshot_hits / (snapshot_hits + writes) if snapshot_hits + writes else 0.0)

    main = "MainThread"
    unattributed = wall - tracer.covered_seconds(main)
    main_layers: dict[str, float] = {}
    for name, seconds in tracer.self_seconds(main).items():
        layer = name.split(".", 1)[0]
        main_layers[layer] = main_layers.get(layer, 0.0) + seconds * per
    metrics["trace.wall_s"] = wall * per
    metrics["trace.unattributed_s"] = unattributed * per
    metrics.update({
        "obs.on_off_ratio": 0.0,
        "experiments.snapshot_mb": 0.0,
        "service.submit_ms": 0.0,
        "service.queue_wait_ms": 0.0,
        "service.run_ms": 0.0,
        "service.result_ms": 0.0,
        "service.polls_per_job": 0.0,
        "trace.overhead_ratio": 0.0,
    })
    metrics.update(extra)
    metrics["accounting"] = {
        "caller_layers_s": main_layers,
        "unattributed_s": unattributed * per,
        "sum_s": sum(main_layers.values()) + unattributed * per,
        "wall_s": wall * per,
    }
    return metrics


def run_role(role: str, options: dict) -> dict:
    """Dispatch for ``child.py``."""
    golden = options.get("golden", {})
    if role == "golden":
        return derive_golden(options["seed"], options["parts"])
    if role == "sweep":
        return run_sweep(options["seed"], options["spawned_at"], options["work"],
                         golden, options["traced"])
    if role == "obs":
        return run_obs(options["seed"], options["seconds"], golden)
    if role == "service":
        return run_service(options["seed"], options["seconds"], options["work"],
                           golden, options["traced"])
    raise SystemExit(f"unknown role {role!r}")
