"""Command-line interface: ``repro-sim``.

Subcommands:

- ``simulate``  — run one synthetic workload (or a trace file) under a
  policy and print the result;
- ``compare``   — run the paper's five policies on a workload and print a
  comparison table;
- ``suite``     — run the benchmark suite grid and print the headline
  numbers (abstract-style);
- ``storage``   — print Table I (GHRP and modified-SDBP storage);
- ``report``    — run a suite grid through the content-addressed sweep
  scheduler (results cached in ``--cache-dir``) and write a markdown
  report;
- ``grid``      — run a suite grid through the same scheduler, in the
  fault-tolerant supervised worker pool: parallel workers, per-cell
  timeouts, retries with backoff; with ``--cache-dir`` results persist
  and re-running the command resumes; exits 2 on a partial grid;
- ``trace``     — run one workload with full observability: a structured
  event JSONL (evictions, bypasses, wrong-path episodes, ...) plus a
  metrics and per-phase timing summary;
- ``gen-trace`` — synthesize a workload and write it as a trace file;
- ``replay``    — re-run a sentinel repro bundle (written on divergence or
  kernel crash under ``--verify``) and report whether the failure
  reproduces; exits 1 when it does not;
- ``characterize`` — reuse-distance + deadness analysis of a workload;
- ``bench-diff`` — compare the latest ``BENCH_HISTORY.jsonl`` entry
  against the newest earlier entry of the same profile; exits 1 on a
  perf regression beyond tolerance (CI gates on it);
- ``check``     — run the simulator-invariant static-analysis pass
  (determinism lint, bit-width/storage-budget checks, policy-contract
  conformance) over source trees; exits 1 on any non-suppressed error,
  which is how CI gates on it.

The simulation subcommands (``simulate``, ``compare``, ``suite``,
``trace``) take ``--engine {reference,fast}`` to select the per-access
reference engine or the batched fast path; results are bit-identical and
unsupported configurations fall back to reference.  ``simulate``,
``trace``, and ``grid`` additionally take ``--verify {off,sampled,full}``
to cross-check the fast path against the reference engine at run time
(see :mod:`repro.sentinel`).

Global flags (accepted before or after the subcommand):

- ``--log-level {debug,info,warning,error}`` — stdlib-logging verbosity
  (progress lines for ``suite``/``report`` log at INFO);
- ``--metrics-out PATH`` — write the run's metrics registry, span timing
  tree, and event totals as JSON (simulation subcommands).

Interval telemetry (``simulate --telemetry-out/--openmetrics-out``,
``report --telemetry``, ``grid --telemetry``) samples both engines every
``--telemetry-interval`` branch records; see docs/observability.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence
from pathlib import Path

from repro.experiments import figures
from repro.experiments.runner import run_cell, run_grid, run_workload
from repro.frontend.config import FrontEndConfig
from repro.frontend.engine import ENGINES
from repro.obs import (
    LOG_LEVELS,
    NULL_OBS,
    EventTracer,
    GridProgressReporter,
    Observability,
    configure_logging,
)
from repro.policies.registry import available_policies
from repro.traces.io import read_trace, write_trace
from repro.workloads.spec import Category
from repro.workloads.suite import make_suite, make_workload

__all__ = ["main"]


def _normalize_category(value: str) -> str:
    """Accept ``short_server`` as a spelling of ``short-server``."""
    return value.replace("_", "-")


def _sample_rate(value: str) -> float:
    rate = float(value)
    if not 0.0 <= rate <= 1.0:
        raise argparse.ArgumentTypeError(
            f"must be in [0, 1], got {value}"
        )
    return rate


def _add_workload_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--category",
        type=_normalize_category,
        choices=[c.value for c in Category],
        default=Category.SHORT_SERVER.value,
        help="workload category preset (dashes and underscores both accepted)",
    )
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument(
        "--trace-scale", type=float, default=1.0, help="trace length scale factor"
    )
    parser.add_argument("--trace", help="simulate this trace file instead of a synthetic workload")


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--icache-kb", type=int, default=64)
    parser.add_argument("--icache-assoc", type=int, default=8)
    parser.add_argument("--block-size", type=int, default=64)
    parser.add_argument("--btb-entries", type=int, default=4096)
    parser.add_argument("--btb-assoc", type=int, default=4)


def _add_engine_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--engine", choices=ENGINES, default="reference",
        help="simulation engine: the per-access reference engine or the "
             "batched fast path (bit-identical; unsupported configurations "
             "fall back to reference)",
    )


def _add_verify_argument(parser: argparse.ArgumentParser) -> None:
    from repro.frontend.options import VERIFY_MODES

    parser.add_argument(
        "--verify", choices=VERIFY_MODES, default="off",
        help="cross-check the fast path against the reference engine over "
             "sampled windows (sampled) or every window (full); on "
             "divergence or kernel crash the run fails over to the "
             "reference engine and writes a repro bundle under "
             "artifacts/repro-bundles/ (no effect on --engine reference)",
    )


def _add_telemetry_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--telemetry-out", default=None, metavar="PATH",
        help="sample interval telemetry and write a JSON run-manifest "
             "(config digest, engine, spans, per-interval MPKI series) here",
    )
    parser.add_argument(
        "--openmetrics-out", default=None, metavar="PATH",
        help="also render the metrics registry + interval series as "
             "OpenMetrics text to this path",
    )
    _add_telemetry_interval_argument(parser)


def _add_telemetry_interval_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--telemetry-interval", type=int, default=4096, metavar="N",
        help="telemetry sample interval in branch records (default: 4096)",
    )


def _telemetry_config_from(args: argparse.Namespace):
    """A TelemetryConfig when any telemetry output/flag was requested."""
    wanted = (
        getattr(args, "telemetry_out", None)
        or getattr(args, "openmetrics_out", None)
        or getattr(args, "telemetry", False)
    )
    if not wanted:
        return None
    from repro.telemetry import TelemetryConfig

    return TelemetryConfig(interval_branches=args.telemetry_interval)


def _write_telemetry_artifacts(args, result, config, obs) -> None:
    """Write the run-manifest and/or OpenMetrics artifacts for one run."""
    manifest_path = getattr(args, "telemetry_out", None)
    openmetrics_path = getattr(args, "openmetrics_out", None)
    if manifest_path:
        from repro.telemetry import build_run_manifest, write_run_manifest

        manifest = build_run_manifest(
            result=result,
            config=config,
            engine=args.engine,
            workload_name=None if args.trace else f"{args.category}-{args.seed}",
            seed=None if args.trace else args.seed,
            obs=obs,
        )
        samples = (manifest["telemetry"] or {}).get("samples", ())
        write_run_manifest(manifest_path, manifest)
        print(f"wrote run manifest ({len(samples)} interval samples) "
              f"to {manifest_path}")
    if openmetrics_path:
        from pathlib import Path as _Path

        from repro.telemetry import render_openmetrics

        snapshot = obs.metrics.snapshot() if obs.enabled else {}
        target = _Path(openmetrics_path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(render_openmetrics(snapshot, result.telemetry))
        print(f"wrote OpenMetrics exposition to {openmetrics_path}")


def _print_engine_notes(result) -> None:
    """Surface fast-path fallback and sentinel degradation after a run."""
    reason = result.fast_path_fallback_reason
    if reason is not None:
        print(f"note: fast path unavailable ({reason}); "
              f"ran on the reference engine")
    if result.degraded:
        print("note: sentinel failover — the fast path diverged or crashed "
              "and the run finished on the reference engine (degraded)")


def _add_global_arguments(parser: argparse.ArgumentParser, suppress: bool = False) -> None:
    """Logging/metrics flags, on the root parser and every subcommand.

    Subcommand copies use ``SUPPRESS`` defaults so they override the root
    value only when actually given (argparse subparser defaults would
    otherwise clobber a flag placed before the subcommand).
    """
    default: object = argparse.SUPPRESS if suppress else None
    parser.add_argument(
        "--log-level",
        choices=LOG_LEVELS,
        default=argparse.SUPPRESS if suppress else "info",
        help="stdlib logging verbosity (default: info)",
    )
    parser.add_argument(
        "--metrics-out",
        default=default,
        help="write a JSON metrics/timing summary to this path",
    )


def _config_from(args: argparse.Namespace, policy: str) -> FrontEndConfig:
    return FrontEndConfig(
        icache_bytes=args.icache_kb * 1024,
        icache_assoc=args.icache_assoc,
        block_size=args.block_size,
        btb_entries=args.btb_entries,
        btb_assoc=args.btb_assoc,
        icache_policy=policy,
        btb_policy=policy,
    )


def _workload_from(args: argparse.Namespace):
    category = Category(args.category)
    return make_workload(
        f"{category.value}-{args.seed}", category, seed=args.seed, trace_scale=args.trace_scale
    )


def _obs_from(args: argparse.Namespace, tracer: EventTracer | None = None) -> Observability:
    """An enabled facade when --metrics-out, telemetry output, or a tracer
    asks for one (telemetry artifacts embed the span tree and registry)."""
    wants_obs = (
        tracer is not None
        or getattr(args, "metrics_out", None)
        or getattr(args, "telemetry_out", None)
        or getattr(args, "openmetrics_out", None)
        or getattr(args, "telemetry", False)
    )
    if not wants_obs:
        return NULL_OBS
    return Observability(tracer=tracer)


def _write_metrics(args: argparse.Namespace, obs: Observability) -> None:
    path = getattr(args, "metrics_out", None)
    if not path or not obs.enabled:
        return
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obs.summary(), handle, indent=2)
        handle.write("\n")
    print(f"wrote metrics summary to {path}")


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.frontend.options import RunOptions

    config = _config_from(args, args.policy)
    obs = _obs_from(args)
    telemetry = _telemetry_config_from(args)
    if args.trace:
        from repro.frontend.engine import build_frontend

        frontend = build_frontend(config, obs=obs, engine=args.engine)
        options = RunOptions(
            warmup_instructions=args.warmup, verify=args.verify,
            telemetry=telemetry,
        )
        with obs.span("simulate"):
            result = frontend.run(read_trace(args.trace), options)
    else:
        workload = _workload_from(args)
        result = run_workload(
            workload, config, obs=obs, engine=args.engine,
            verify=args.verify, telemetry=telemetry,
        )
    print(result.summary_line())
    _print_engine_notes(result)
    _write_telemetry_artifacts(args, result, config, obs)
    _write_metrics(args, obs)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    workload = _workload_from(args)
    obs = _obs_from(args)
    grid = run_grid(
        [workload], list(args.policies), _config_from(args, "lru"),
        obs=obs, engine=args.engine,
    )
    print(grid.icache.render(reference="lru"))
    print()
    print(grid.btb.render(reference="lru"))
    _write_metrics(args, obs)
    return 0


def _cmd_suite(args: argparse.Namespace) -> int:
    suite = make_suite(base_seed=args.seed, trace_scale=args.trace_scale)
    obs = _obs_from(args)
    progress = GridProgressReporter(total_cells=len(suite) * len(args.policies))
    grid = run_grid(
        suite, list(args.policies), _config_from(args, "lru"),
        progress=progress, obs=obs, engine=args.engine,
    )
    print(figures.headline_numbers(grid).render())
    _write_metrics(args, obs)
    return 0


def _cmd_storage(args: argparse.Namespace) -> int:
    ghrp, sdbp = figures.table1_storage(
        icache_bytes=args.icache_kb * 1024,
        icache_assoc=args.icache_assoc,
        block_size=args.block_size,
    )
    print(ghrp.render())
    print()
    print(sdbp.render())
    return 0


def _print_sweep_summary(cache_dir: str, scheduler) -> None:
    """The scheduler's cache/snapshot/lease/shard account of one run."""
    stats = scheduler.stats
    print(
        f"cache {cache_dir}: {stats.cache_hits} hit(s), "
        f"{stats.cache_misses} miss(es), {stats.computed} computed, "
        f"{stats.deduped} deduped "
        f"(hit rate {100.0 * stats.hit_rate:.0f}%)"
    )
    if stats.snapshot_hits or stats.snapshot_writes:
        print(f"warm-up snapshots: {stats.snapshot_hits} reused, "
              f"{stats.snapshot_writes} written")
    if stats.leases_recovered or stats.lease_conflicts:
        print(f"leases: {stats.leases_recovered} orphan(s) recovered, "
              f"{stats.lease_conflicts} conflict(s) skipped")
    if stats.other_shard:
        index, count = scheduler.sched.shard
        print(f"shard {index}/{count}: {stats.other_shard} cell(s) owned "
              f"by other shards; re-run unsharded to assemble the full "
              f"grid from cache")


def _partial_grid_exit(grid, cache_dir: str | None) -> int:
    """Summarize failed cells; 2 on a partial grid, else 0."""
    if not grid.failed:
        return 0
    print(f"\nWARNING: partial grid — {len(grid.failed)} cell(s) failed:")
    for failure in grid.failed:
        print(f"  {failure.summary_line()}")
    if cache_dir:
        print(f"re-run with --cache-dir {cache_dir} to retry only "
              f"these cells (completed cells are served from cache)")
    else:
        print("pass --cache-dir DIR to keep completed cells, so a re-run "
              "retries only the failed ones")
    return 2


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report_markdown import markdown_report
    from repro.experiments.scheduler import SweepScheduler

    suite = make_suite(base_seed=args.seed, trace_scale=args.trace_scale)
    obs = _obs_from(args)
    scheduler = SweepScheduler(
        args.cache_dir, _config_from(args, "lru"), obs=obs,
        telemetry=_telemetry_config_from(args),
    )
    progress = GridProgressReporter(total_cells=len(suite) * len(args.policies))
    grid = scheduler.run(suite, list(args.policies), progress=progress)
    report = markdown_report(
        grid,
        title=f"GHRP reproduction report (seed {args.seed})",
        telemetry=obs.telemetry if obs.enabled else None,
    )
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(report)
    print(f"wrote report to {args.output}")
    _write_metrics(args, obs)
    _print_sweep_summary(args.cache_dir, scheduler)
    return _partial_grid_exit(grid, args.cache_dir)


def _parse_fault(value: str):
    """Parse ``POLICY/WORKLOAD=MODE[:N]`` into plan components.

    ``N`` bounds the fault to the first N attempts; omitted means every
    attempt.  Example: ``lru/short-server-00=raise:2`` fails that cell's
    first two attempts, then lets it succeed.
    """
    from repro.experiments.faults import ALWAYS, FAULT_MODES, FaultSpec

    try:
        cell, _, fault = value.partition("=")
        policy, workload = cell.split("/", 1)
        mode, _, count = fault.partition(":")
        spec = FaultSpec(mode, int(count) if count else ALWAYS)
    except ValueError as error:
        raise argparse.ArgumentTypeError(
            f"expected POLICY/WORKLOAD=MODE[:N] with MODE in {FAULT_MODES}, "
            f"got {value!r} ({error})"
        ) from None
    return policy, workload, spec


def _cmd_grid(args: argparse.Namespace) -> int:
    import contextlib
    import tempfile

    from repro.experiments.report_markdown import markdown_report
    from repro.experiments.scheduler import (
        SchedulerConfig,
        SweepScheduler,
        parse_shard,
    )
    from repro.experiments.supervisor import RetryPolicy, SupervisorConfig

    if args.shard and not args.cache_dir:
        raise SystemExit("repro-sim grid: --shard requires --cache-dir")
    suite = make_suite(base_seed=args.seed, trace_scale=args.trace_scale)
    if args.limit is not None:
        suite = suite[: args.limit]
    fault_plan = None
    if args.inject_fault:
        from repro.experiments.faults import FaultPlan

        fault_plan = FaultPlan()
        for policy, workload, spec in args.inject_fault:
            fault_plan.add(policy, workload, spec)
    supervisor = SupervisorConfig(
        workers=args.workers,
        cell_timeout_seconds=args.cell_timeout,
        retry=RetryPolicy(
            max_retries=args.retries,
            backoff_base_seconds=args.backoff_base,
        ),
        start_method=args.start_method,
    )
    obs = _obs_from(args)
    progress = GridProgressReporter(total_cells=len(suite) * len(args.policies))
    # Without --cache-dir nothing persists: the scheduler runs over a
    # scratch directory removed on exit, and warm-up snapshots (only
    # ever read by a later run) are not written.
    with (
        contextlib.nullcontext(args.cache_dir) if args.cache_dir
        else tempfile.TemporaryDirectory(prefix="repro-grid-")
    ) as cache_dir:
        scheduler = SweepScheduler(
            cache_dir,
            _config_from(args, "lru"),
            scheduler=SchedulerConfig(
                shard=parse_shard(args.shard) if args.shard else None,
                snapshots=bool(args.cache_dir) and not args.no_snapshots,
            ),
            supervisor=supervisor,
            fault_plan=fault_plan,
            obs=obs,
            engine=args.engine,
            verify=args.verify,
            telemetry=_telemetry_config_from(args),
        )
        grid = scheduler.run(suite, list(args.policies), progress=progress)
    # Shutdown path: durable artifacts first, console output last.  The
    # report (which embeds the merged --telemetry series) and the
    # metrics summary are the machine-read evidence of the run; writing
    # them before any rendering or the partial-failure exit below means
    # a --telemetry run is complete on disk even when the grid exits 2
    # (or a summary renderer throws).
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(markdown_report(
                grid,
                title=f"GHRP reproduction report (seed {args.seed})",
                telemetry=obs.telemetry if obs.enabled else None,
            ))
    _write_metrics(args, obs)
    print(figures.headline_numbers(
        grid, policies=tuple(grid.icache.policies)
    ).render())
    if args.report:
        print(f"wrote report to {args.report}")
    if args.cache_dir:
        _print_sweep_summary(args.cache_dir, scheduler)
    return _partial_grid_exit(grid, args.cache_dir)


def _cmd_trace(args: argparse.Namespace) -> int:
    """Run one cell fully instrumented; write event JSONL + summary."""
    config = _config_from(args, args.policy).with_overrides(
        wrong_path_depth=args.wrong_path_depth
    )
    workload = _workload_from(args)
    with EventTracer.open(
        args.out,
        sample_rate=args.sample_rate,
        seed=args.trace_seed,
        max_events=args.max_events,
    ) as tracer:
        obs = Observability(tracer=tracer)
        cell = run_cell(
            workload, args.policy, config, obs=obs, engine=args.engine,
            verify=args.verify,
        )
    print(
        f"{cell.workload} / {cell.policy}: icache_mpki={cell.icache_mpki:.3f} "
        f"btb_mpki={cell.btb_mpki:.3f} instructions={cell.instructions}"
    )
    _print_engine_notes(cell)
    print(obs.render())
    print(
        f"wrote {tracer.written} events ({tracer.seq} emitted, sample rate "
        f"{args.sample_rate:g}) to {args.out}"
    )
    _write_metrics(args, obs)
    return 0


def _cmd_gen_trace(args: argparse.Namespace) -> int:
    workload = _workload_from(args)
    count = write_trace(args.output, workload.records())
    print(f"wrote {count} branch records to {args.output}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    """Re-run a sentinel repro bundle; exit 0 iff the failure reproduces."""
    from repro.sentinel import replay_bundle

    try:
        report = replay_bundle(args.bundle)
    except (FileNotFoundError, ValueError) as error:
        print(f"repro-sim replay: {error}")
        return 2
    status = "reproduced" if report.reproduced else "NOT reproduced"
    print(f"{args.bundle}: {report.kind} {status}")
    print(f"  {report.detail}")
    return 0 if report.reproduced else 1


def _cmd_check(args: argparse.Namespace) -> int:
    """Static analysis: lint source trees for simulator-invariant violations."""
    from repro.analysis.lint import (
        LintEngine,
        all_rules,
        apply_baseline,
        render_json,
        render_rule_list,
        render_sarif,
        render_text,
        write_baseline,
    )

    if args.list_rules:
        print(render_rule_list())
        return 0
    paths = args.paths
    if not paths:
        import repro

        paths = [str(Path(repro.__file__).parent)]
    rules = None
    if args.rules:
        rules = [rule_id for spec in args.rules for rule_id in spec.split(",") if rule_id]
    tier_choice = args.tier
    if args.tier_legacy is not None:
        import warnings

        if tier_choice is not None:
            print("repro-sim check: pass --tier or --engine, not both")
            return 2
        warnings.warn(
            "repro-sim check --engine is deprecated; use --tier "
            "(same choices: syntax, flow, all)",
            DeprecationWarning,
            stacklevel=2,
        )
        tier_choice = args.tier_legacy
    if tier_choice is None:
        tier_choice = "all"
    if tier_choice != "all":
        # The flow tier is every flow-* rule; the syntax tier is the rest.
        tier = [
            rule.id
            for rule in all_rules()
            if rule.id.startswith("flow-") == (tier_choice == "flow")
        ]
        rules = [r for r in rules if r in tier] if rules is not None else tier
    try:
        engine = LintEngine(paths, rules=rules)
        result = engine.run()
    except (FileNotFoundError, ValueError) as error:
        print(f"repro-sim check: {error}")
        return 2
    if args.write_baseline:
        count = write_baseline(result, args.write_baseline)
        print(f"wrote {count} accepted finding(s) to {args.write_baseline}")
        return 0
    stale: list[tuple[str, str, str]] = []
    baselined = []
    if args.baseline:
        try:
            result, baselined, stale = apply_baseline(result, args.baseline)
        except (FileNotFoundError, ValueError, KeyError) as error:
            print(f"repro-sim check: {error}")
            return 2
    renderers = {"json": render_json, "sarif": render_sarif, "text": render_text}
    print(renderers[args.format](result))
    if args.format == "text":
        if baselined:
            print(f"{len(baselined)} finding(s) absorbed by {args.baseline}")
        for rule_id, path, _message in stale:
            print(f"stale baseline entry: {rule_id} at {path} no longer fires")
    return result.exit_code


def _cmd_bench_diff(args: argparse.Namespace) -> int:
    """Compare the newest perf-ledger entry against a baseline."""
    from repro.telemetry.bench import (
        comparable_baseline,
        diff_bench_entries,
        read_bench_history,
        render_bench_diff,
    )

    entries = read_bench_history(args.history)
    if not entries:
        print(f"repro-sim bench-diff: no entries in {args.history}")
        return 2
    latest = entries[-1]
    if args.baseline == "profile":
        baseline = comparable_baseline(entries)
        if baseline is None:
            print(f"repro-sim bench-diff: no comparable baseline for the "
                  f"newest entry (profile {latest.get('profile')!r}) in "
                  f"{args.history}")
            return 0
    elif args.baseline == "first":
        baseline = entries[0]
    elif args.baseline == "prev":
        baseline = entries[-2] if len(entries) > 1 else entries[0]
    else:
        baseline = entries[int(args.baseline)]
    diffs = diff_bench_entries(
        baseline, latest, tolerance=args.tolerance, metric=args.metric
    )
    print(render_bench_diff(
        diffs, tolerance=args.tolerance, metric=args.metric,
        annotate=args.annotate, baseline=baseline, latest=latest,
    ))
    regressions = [diff for diff in diffs if diff.regressed]
    if regressions:
        noun = "policy" if len(regressions) == 1 else "policies"
        print(f"\n{len(regressions)} {noun} regressed beyond "
              f"{100.0 * args.tolerance:.0f}% tolerance")
        return 1
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    from repro.analysis import characterize_workload

    workload = _workload_from(args)
    report = characterize_workload(workload, max_branches=args.branches)
    print(report.render())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import JobManager, ServiceConfig, ServiceDaemon

    config = ServiceConfig(
        workers=args.workers,
        max_queue_depth=args.max_queue,
        default_max_retries=args.retries,
        default_deadline_seconds=args.deadline,
        lease_expiry_seconds=args.lease_expiry,
        heartbeat_interval_seconds=args.heartbeat_interval,
        retry_after_seconds=args.retry_after,
        snapshots=not args.no_snapshots,
    )
    manager = JobManager(args.data_dir, config=config)
    daemon = ServiceDaemon(manager, host=args.host, port=args.port)
    print(f"repro-sim serve: listening on {daemon.endpoint} "
          f"({config.workers} worker(s), data dir {manager.data_dir})",
          flush=True)
    print(f"endpoint file: {daemon.endpoint_path}", flush=True)
    # Blocks until SIGTERM/SIGINT drains the daemon; always exits 0 on
    # a graceful drain (in-flight cells checkpointed, journal intact).
    return daemon.serve()


def _client_from(args: argparse.Namespace):
    from repro.service import ServiceClient

    if args.url:
        return ServiceClient(args.url, timeout=args.http_timeout)
    if args.endpoint_file:
        return ServiceClient.from_endpoint_file(args.endpoint_file,
                                                timeout=args.http_timeout)
    raise SystemExit("repro-sim client: --url or --endpoint-file is required")


def _client_workloads(args: argparse.Namespace) -> list[dict]:
    """The workload descriptors a submit sends (mirrors the grid suite)."""
    if args.suite:
        suite = make_suite(base_seed=args.seed, trace_scale=args.trace_scale)
        if args.limit is not None:
            suite = suite[: args.limit]
        return [
            {
                "name": w.name,
                "category": w.spec.category.value,
                "seed": w.seed,
                "trace_scale": args.trace_scale,
                "footprint_scale": 1.0,
            }
            for w in suite
        ]
    return [
        {
            "category": args.category,
            "seed": seed,
            "trace_scale": args.trace_scale,
            "footprint_scale": args.footprint_scale,
        }
        for seed in range(args.seed, args.seed + args.count)
    ]


def _print_job_summary(summary: dict) -> None:
    line = (f"job {summary['job']}: {summary['state']}"
            f" (attempts {summary.get('attempts', 0)}"
            f", requeues {summary.get('requeues', 0)})")
    if summary.get("grid_signature"):
        line += f" signature {summary['grid_signature']}"
    if summary.get("error"):
        line += f" error: {summary['error']}"
    print(line, flush=True)


def _job_exit_code(summary: dict) -> int:
    """Map a terminal job state onto grid exit-code semantics."""
    state = summary.get("state")
    if state == "done":
        return 2 if summary.get("partial") else 0
    return 1


def _cmd_client(args: argparse.Namespace) -> int:
    from repro.service import ServiceError

    try:
        return args.client_func(args, _client_from(args))
    except ServiceError as exc:
        detail = f" (HTTP {exc.status})" if exc.status is not None else ""
        print(f"repro-sim client: {exc}{detail}", file=sys.stderr, flush=True)
        return 1


def _cmd_client_submit(args: argparse.Namespace, client) -> int:
    payload = {
        "workloads": _client_workloads(args),
        "policies": list(args.policies),
        "config": {
            "icache_bytes": args.icache_kb * 1024,
            "icache_assoc": args.icache_assoc,
            "block_size": args.block_size,
            "btb_entries": args.btb_entries,
            "btb_assoc": args.btb_assoc,
            "icache_policy": "lru",
            "btb_policy": "lru",
        },
        "engine": args.engine,
        "verify": args.verify,
    }
    if args.deadline is not None:
        payload["deadline_seconds"] = args.deadline
    if args.job_retries is not None:
        payload["max_retries"] = args.job_retries
    summary = client.submit(payload, admission_retries=args.admission_retries)
    created = "submitted" if summary.get("created") else "already known"
    print(f"job {summary['job']} {created} ({summary['state']})", flush=True)
    if args.watch:
        return _watch_until_done(args, client, summary["job"])
    if args.wait:
        final = client.wait(summary["job"], poll_seconds=args.poll,
                            timeout=args.timeout)
        _print_job_summary(final)
        return _job_exit_code(final)
    return 0


def _cmd_client_status(args: argparse.Namespace, client) -> int:
    summary = client.status(args.job)
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        _print_job_summary(summary)
    return 0


def _cmd_client_result(args: argparse.Namespace, client) -> int:
    from repro.service import ServiceError

    try:
        document = client.result(args.job)
    except ServiceError as exc:
        if exc.status == 202:
            print(f"job {args.job} not finished yet "
                  f"({exc.payload.get('state', 'pending')})", file=sys.stderr)
            return 1
        raise
    print(json.dumps(document, indent=2, sort_keys=True))
    return int(document.get("exit_code", 0))


def _cmd_client_watch(args: argparse.Namespace, client) -> int:
    return _watch_until_done(args, client, args.job)


def _watch_until_done(args: argparse.Namespace, client, job_id: str) -> int:
    final: dict | None = None
    for event in client.watch(job_id, poll_seconds=args.poll,
                              timeout=args.timeout):
        kind = event.get("kind", "?")
        if kind == "job.state":
            final = event
            break
        if kind == "job.cell":
            print(f"[{event.get('done')}/{event.get('total')}] "
                  f"{event.get('policy')}/{event.get('workload')} "
                  f"icache_mpki={event.get('icache_mpki'):.3f}"
                  + (" DEGRADED" if event.get("degraded") else ""),
                  flush=True)
        else:
            print(f"event {kind}: {json.dumps(event, sort_keys=True)}",
                  flush=True)
    if final is None:
        return 1
    _print_job_summary(final)
    return _job_exit_code(final)


def _cmd_client_cancel(args: argparse.Namespace, client) -> int:
    summary = client.cancel(args.job)
    _print_job_summary(summary)
    return 0


def _cmd_client_jobs(args: argparse.Namespace, client) -> int:
    jobs = client.list_jobs()
    if args.json:
        print(json.dumps(jobs, indent=2, sort_keys=True))
        return 0
    if not jobs:
        print("no jobs")
        return 0
    for summary in jobs:
        _print_job_summary(summary)
    return 0


def _cmd_client_health(args: argparse.Namespace, client) -> int:
    document = client.health()
    print(json.dumps(document, sort_keys=True))
    return 0 if document.get("status") in ("ok", "draining") else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description="GHRP reproduction: front-end replacement-policy simulator",
    )
    _add_global_arguments(parser)
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_subcommand(name: str, help: str) -> argparse.ArgumentParser:
        sub = subparsers.add_parser(name, help=help)
        _add_global_arguments(sub, suppress=True)
        return sub

    simulate = add_subcommand("simulate", "run one workload under one policy")
    _add_workload_arguments(simulate)
    _add_config_arguments(simulate)
    _add_engine_argument(simulate)
    _add_verify_argument(simulate)
    _add_telemetry_arguments(simulate)
    simulate.add_argument("--policy", choices=available_policies(), default="ghrp")
    simulate.add_argument("--warmup", type=int, default=100_000)
    simulate.set_defaults(func=_cmd_simulate)

    compare = add_subcommand("compare", "compare policies on one workload")
    _add_workload_arguments(compare)
    _add_config_arguments(compare)
    _add_engine_argument(compare)
    compare.add_argument(
        "--policies", nargs="+", default=list(figures.PAPER_POLICIES),
        choices=available_policies(),
    )
    compare.set_defaults(func=_cmd_compare)

    suite = add_subcommand("suite", "run the suite and print headline numbers")
    suite.add_argument("--seed", type=int, default=2018)
    suite.add_argument("--trace-scale", type=float, default=1.0)
    suite.add_argument(
        "--policies", nargs="+", default=list(figures.PAPER_POLICIES),
        choices=available_policies(),
    )
    _add_config_arguments(suite)
    _add_engine_argument(suite)
    suite.set_defaults(func=_cmd_suite)

    storage = add_subcommand("storage", "print Table I storage breakdowns")
    _add_config_arguments(storage)
    storage.set_defaults(func=_cmd_storage)

    report = add_subcommand("report", "run a cached suite grid; write a markdown report")
    report.add_argument("--seed", type=int, default=2018)
    report.add_argument("--trace-scale", type=float, default=1.0)
    report.add_argument("--policies", nargs="+", default=list(figures.PAPER_POLICIES),
                        choices=available_policies())
    report.add_argument("--cache-dir", metavar="DIR", default="results-cache",
                        help="content-addressed result cache (default: "
                             "%(default)s): cells already computed by any "
                             "run sharing DIR are served without simulation")
    report.add_argument("--output", default="report.md")
    report.add_argument("--telemetry", action="store_true",
                        help="sample interval telemetry on freshly simulated "
                             "cells and add MPKI-over-time + set-churn "
                             "sections to the report")
    _add_telemetry_interval_argument(report)
    _add_config_arguments(report)
    report.set_defaults(func=_cmd_report)

    grid = add_subcommand(
        "grid", "run a suite grid under the fault-tolerant supervised executor"
    )
    grid.add_argument("--seed", type=int, default=2018)
    grid.add_argument("--trace-scale", type=float, default=1.0)
    grid.add_argument("--limit", type=int, default=None,
                      help="run only the first N suite workloads (smoke runs)")
    grid.add_argument("--policies", nargs="+", default=list(figures.PAPER_POLICIES),
                      choices=available_policies())
    grid.add_argument("--workers", type=int, default=1,
                      help="parallel worker processes (default: 1)")
    grid.add_argument("--cell-timeout", type=float, default=None, metavar="S",
                      help="kill any cell running longer than S seconds")
    grid.add_argument("--retries", type=int, default=2, metavar="K",
                      help="retry each failed cell up to K times (default: 2)")
    grid.add_argument("--backoff-base", type=float, default=0.5, metavar="S",
                      help="first-retry backoff in seconds, doubling per attempt")
    grid.add_argument("--cache-dir", metavar="DIR", default=None,
                      help="content-addressed result cache: cells already "
                           "computed (by any run sharing DIR) are served "
                           "without simulation, results are journaled and "
                           "written durably as the grid runs, and a killed "
                           "run resumes from where it stopped by re-running "
                           "the same command (default: a scratch directory "
                           "removed on exit, so nothing persists)")
    grid.add_argument("--shard", metavar="K/N", default=None,
                      help="own only the cells whose content digest maps to "
                           "shard K of N (requires --cache-dir); run one "
                           "process per shard, then re-run unsharded to "
                           "assemble the full grid from cache")
    grid.add_argument("--no-snapshots", action="store_true",
                      help="disable warm-up memoization (with --cache-dir, "
                           "cells sharing a warm-up prefix normally replay "
                           "only their measurement windows)")
    grid.add_argument("--report", default=None,
                      help="also write a markdown report to this path")
    grid.add_argument("--start-method", default="spawn",
                      choices=["spawn", "fork", "forkserver"],
                      help="multiprocessing start method (spawn is safe "
                           "everywhere; fork starts workers faster on POSIX)")
    grid.add_argument("--inject-fault", type=_parse_fault, action="append",
                      default=[], metavar="POLICY/WORKLOAD=MODE[:N]",
                      help="deterministically fault a cell (raise|hang|crash|"
                           "garbage) on its first N attempts; repeatable "
                           "(for demos and harness testing)")
    grid.add_argument("--telemetry", action="store_true",
                      help="sample interval telemetry in every worker and "
                           "merge the per-cell series into the parent "
                           "(rendered by --report)")
    _add_telemetry_interval_argument(grid)
    _add_config_arguments(grid)
    _add_engine_argument(grid)
    _add_verify_argument(grid)
    grid.set_defaults(func=_cmd_grid)

    trace = add_subcommand(
        "trace", "run one workload fully instrumented; write an event JSONL"
    )
    _add_workload_arguments(trace)
    _add_config_arguments(trace)
    _add_engine_argument(trace)
    _add_verify_argument(trace)
    trace.add_argument("--policy", choices=available_policies(), default="ghrp")
    trace.add_argument("--out", default="trace-events.jsonl",
                       help="event JSONL output path")
    trace.add_argument("--sample-rate", type=_sample_rate, default=1.0,
                       help="probability of keeping each event (deterministic per seed)")
    trace.add_argument("--trace-seed", type=int, default=0,
                       help="sampling seed (same seed keeps the same events)")
    trace.add_argument("--max-events", type=int, default=None,
                       help="hard cap on written event records")
    trace.add_argument("--wrong-path-depth", type=int, default=4,
                       help="wrong-path fetch depth (so wrong-path events appear)")
    trace.set_defaults(func=_cmd_trace)

    gen = add_subcommand("gen-trace", "write a synthetic workload as a trace file")
    _add_workload_arguments(gen)
    gen.add_argument("output", help="output trace path")
    gen.set_defaults(func=_cmd_gen_trace)

    replay = add_subcommand(
        "replay", "re-run a sentinel repro bundle and check it reproduces"
    )
    replay.add_argument("bundle",
                        help="bundle directory (or its manifest.json) written "
                             "under artifacts/repro-bundles/")
    replay.set_defaults(func=_cmd_replay)

    characterize = add_subcommand(
        "characterize", "reuse-distance and deadness analysis of a workload"
    )
    _add_workload_arguments(characterize)
    characterize.add_argument("--branches", type=int, default=20_000)
    characterize.set_defaults(func=_cmd_characterize)

    bench_diff = add_subcommand(
        "bench-diff", "compare the perf ledger's newest entry to a baseline"
    )
    bench_diff.add_argument("--history", default="BENCH_HISTORY.jsonl",
                            help="perf ledger path (default: BENCH_HISTORY.jsonl)")
    bench_diff.add_argument("--baseline", default="profile",
                            help="baseline entry: 'profile' (the newest earlier "
                                 "entry with the same profile), 'first', "
                                 "'prev', or an index (default: profile)")
    bench_diff.add_argument("--tolerance", type=float, default=0.10,
                            help="allowed fractional slowdown before flagging "
                                 "a regression (default: 0.10)")
    bench_diff.add_argument("--metric", default="fast_accesses_per_sec",
                            help="per-policy metric to compare "
                                 "(default: fast_accesses_per_sec)")
    bench_diff.add_argument("--annotate", choices=["github"], default=None,
                            help="emit ::warning annotations for regressions")
    bench_diff.set_defaults(func=_cmd_bench_diff)

    check = add_subcommand(
        "check", "static analysis: determinism, bit-width, and contract rules"
    )
    check.add_argument("paths", nargs="*",
                       help="files or directories to lint (default: the "
                            "installed repro package)")
    check.add_argument("--format", choices=["text", "json", "sarif"],
                       default="text",
                       help="finding report format (default: text)")
    check.add_argument("--rules", action="append", default=[],
                       metavar="RULE[,RULE...]",
                       help="run only these rule ids (repeatable)")
    check.add_argument("--tier", choices=["syntax", "flow", "all"],
                       default=None,
                       help="rule tier: 'syntax' pattern rules, 'flow' "
                            "dataflow proofs (flow-*), or both (default)")
    # Retired spelling ("tier" never selected a simulation engine); kept
    # one release as a hidden alias that warns.
    check.add_argument("--engine", choices=["syntax", "flow", "all"],
                       default=None, dest="tier_legacy",
                       help=argparse.SUPPRESS)
    check.add_argument("--baseline", metavar="FILE", default=None,
                       help="subtract the accepted findings in FILE; only "
                            "new findings gate the exit code")
    check.add_argument("--write-baseline", metavar="FILE", default=None,
                       help="accept every current finding into FILE and exit")
    check.add_argument("--list-rules", action="store_true",
                       help="list every rule id with its description and exit")
    check.set_defaults(func=_cmd_check)

    serve = add_subcommand(
        "serve", "run the durable simulation job daemon (drains on SIGTERM)"
    )
    serve.add_argument("--data-dir", required=True, metavar="DIR",
                       help="service state root: job journal, results, "
                            "progress events, and the shared cell cache; a "
                            "restart replays the journal and resumes every "
                            "job from here")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (0 picks a free one; the bound address "
                            "is written to DIR/endpoint.json)")
    serve.add_argument("--workers", type=int, default=2,
                       help="worker threads executing jobs (default: 2)")
    serve.add_argument("--max-queue", type=int, default=16, metavar="N",
                       help="queued-job admission bound; beyond it submissions "
                            "get 429 + Retry-After (default: 16)")
    serve.add_argument("--retries", type=int, default=1, metavar="K",
                       help="default per-job retry budget (default: 1)")
    serve.add_argument("--deadline", type=float, default=None, metavar="S",
                       help="default per-job deadline in seconds from "
                            "submission (default: none)")
    serve.add_argument("--lease-expiry", type=float, default=30.0, metavar="S",
                       help="job lease expiry; a crashed owner's claim is "
                            "reclaimable after S seconds (default: 30)")
    serve.add_argument("--heartbeat-interval", type=float, default=2.0,
                       metavar="S",
                       help="lease heartbeat pacing (default: 2)")
    serve.add_argument("--retry-after", type=float, default=2.0, metavar="S",
                       help="Retry-After advice on 429/503 (default: 2)")
    serve.add_argument("--no-snapshots", action="store_true",
                       help="disable warm-up memoization in job sweeps")
    serve.set_defaults(func=_cmd_serve)

    client = add_subcommand(
        "client", "submit and track jobs on a repro-sim serve daemon"
    )
    client_sub = client.add_subparsers(dest="client_command", required=True)

    def add_client_command(name: str, help: str, func) -> argparse.ArgumentParser:
        sub = client_sub.add_parser(name, help=help)
        sub.add_argument("--url", default=None,
                         help="daemon base URL, e.g. http://127.0.0.1:8181")
        sub.add_argument("--endpoint-file", default=None, metavar="PATH",
                         help="read the daemon address from the endpoint.json "
                              "it writes into its --data-dir")
        sub.add_argument("--http-timeout", type=float, default=30.0,
                         metavar="S")
        sub.set_defaults(func=_cmd_client, client_func=func)
        return sub

    submit = add_client_command("submit", "submit a sweep job",
                                _cmd_client_submit)
    submit.add_argument("--suite", action="store_true",
                        help="submit the full synthetic suite (the same "
                             "workloads `repro-sim grid` runs for this seed)")
    submit.add_argument("--limit", type=int, default=None,
                        help="with --suite: only the first N suite workloads")
    submit.add_argument("--category", type=_normalize_category,
                        choices=[c.value for c in Category],
                        default=Category.SHORT_SERVER.value)
    submit.add_argument("--seed", type=int, default=2018,
                        help="workload seed (with --suite: the suite base seed)")
    submit.add_argument("--count", type=int, default=1, metavar="N",
                        help="submit N workloads with consecutive seeds")
    submit.add_argument("--trace-scale", type=float, default=1.0)
    submit.add_argument("--footprint-scale", type=float, default=1.0)
    submit.add_argument("--policies", nargs="+",
                        default=list(figures.PAPER_POLICIES),
                        choices=available_policies())
    submit.add_argument("--deadline", type=float, default=None, metavar="S",
                        help="per-job deadline in seconds from submission")
    submit.add_argument("--job-retries", type=int, default=None, metavar="K",
                        help="per-job retry budget (default: the server's)")
    submit.add_argument("--admission-retries", type=int, default=0, metavar="K",
                        help="retry a 429 rejection up to K times, honoring "
                             "the server's Retry-After")
    submit.add_argument("--wait", action="store_true",
                        help="block until the job is terminal; exit with grid "
                             "semantics (0 clean, 2 partial, 1 failed)")
    submit.add_argument("--watch", action="store_true",
                        help="like --wait, but stream per-cell progress")
    submit.add_argument("--poll", type=float, default=0.5, metavar="S")
    submit.add_argument("--timeout", type=float, default=None, metavar="S")
    _add_config_arguments(submit)
    _add_engine_argument(submit)
    _add_verify_argument(submit)

    status = add_client_command("status", "print one job's state",
                                _cmd_client_status)
    status.add_argument("job", help="job id (unique prefixes accepted)")
    status.add_argument("--json", action="store_true")

    result = add_client_command("result", "fetch a finished job's result "
                                "document (JSON)", _cmd_client_result)
    result.add_argument("job")

    watch = add_client_command("watch", "tail a job's progress events until "
                               "it finishes", _cmd_client_watch)
    watch.add_argument("job")
    watch.add_argument("--poll", type=float, default=0.5, metavar="S")
    watch.add_argument("--timeout", type=float, default=None, metavar="S")

    cancel = add_client_command("cancel", "cancel a queued or running job",
                                _cmd_client_cancel)
    cancel.add_argument("job")

    jobs = add_client_command("jobs", "list every job the daemon tracks",
                              _cmd_client_jobs)
    jobs.add_argument("--json", action="store_true")

    add_client_command("health", "daemon liveness and drain state",
                       _cmd_client_health)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    configure_logging(args.log_level)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
