"""Interval telemetry: phase-resolved counters for one simulation run.

End-of-run aggregates hide *when* a policy wins; the paper's dead-block
dynamics (predictor training, set-level reuse, BTB thrashing) only show
up over time.  :class:`IntervalRecorder` samples both engines every
``interval_branches`` retired branch records and keeps a ring buffer of
per-interval deltas — MPKI, hit/miss/eviction/bypass counts, dead-block
predictor activity, sentinel verification counters — plus per-set
occupancy and churn accumulators for the heatmap views.

The recorder is pull-based and read-only with respect to simulation
state: it never mutates the caches or predictors, so a telemetry-on run
produces byte-identical final statistics to a telemetry-off run (the
differential suite asserts this).  The fast engine flushes its kernel
deltas into the statistics objects before each sample it takes; kernel
synchronization is idempotent, so mid-run samples cannot perturb the
result either.  The recorder holds the structures it reads, never the
front end, so a front end and its recorder form no reference cycle.

Branch records — not instructions — are the interval clock because both
engines count them identically at every loop iteration, making sample
boundaries engine-independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["TelemetryConfig", "TelemetryRun", "IntervalRecorder"]

TELEMETRY_SCHEMA = "repro.telemetry/interval/v1"


@dataclass(frozen=True, slots=True, kw_only=True)
class TelemetryConfig:
    """How to sample one run.

    Attributes
    ----------
    interval_branches:
        Sample every N retired branch records.  Branches, not
        instructions: both engines advance the branch count by exactly
        one per record, so boundaries land identically on either path.
    max_intervals:
        Ring-buffer capacity.  When a run outgrows it the *oldest*
        samples are dropped (the tail of a run is usually the
        interesting part) and ``TelemetryRun.dropped`` counts them.
    heatmap:
        Also accumulate per-set occupancy and churn for the I-cache and
        BTB.  Costs O(sets x ways) per sample boundary, nothing in the
        per-access loop.
    """

    interval_branches: int = 4096
    max_intervals: int = 512
    heatmap: bool = True

    def __post_init__(self) -> None:
        if self.interval_branches < 1:
            raise ValueError(
                f"interval_branches must be >= 1, got {self.interval_branches}"
            )
        if self.max_intervals < 1:
            raise ValueError(
                f"max_intervals must be >= 1, got {self.max_intervals}"
            )


@dataclass(slots=True)
class TelemetryRun:
    """One run's finished interval series, ready for ``json.dump``."""

    interval_branches: int
    samples: list = field(default_factory=list)
    dropped: int = 0
    heatmap: dict | None = None

    def to_dict(self) -> dict:
        return {
            "schema": TELEMETRY_SCHEMA,
            "interval_branches": self.interval_branches,
            "samples": list(self.samples),
            "dropped": self.dropped,
            "heatmap": self.heatmap,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TelemetryRun":
        return cls(
            interval_branches=data["interval_branches"],
            samples=list(data.get("samples", ())),
            dropped=data.get("dropped", 0),
            heatmap=data.get("heatmap"),
        )

    def series(self, structure: str, key: str) -> list:
        """One per-interval column, e.g. ``series("icache", "mpki")``."""
        return [sample[structure][key] for sample in self.samples]


# Sentinel counters sampled per interval (deltas of the obs registry).
_SENTINEL_COUNTERS = (
    "sentinel.windows_verified",
    "sentinel.divergences",
    "sentinel.failovers",
)

_STAT_FIELDS = (
    "accesses", "hits", "misses", "bypasses", "evictions", "dead_evictions"
)


class _StructureTracker:
    """Delta/heatmap bookkeeping for one cached structure (I-cache or BTB)."""

    __slots__ = (
        "label", "stats", "cache", "prev", "prev_tags",
        "churn", "occupancy_sum", "occupancy_samples",
    )

    def __init__(self, label: str, stats, cache, heatmap: bool):
        self.label = label
        self.stats = stats
        self.cache = cache  # object with _tags, or None when heatmap is off
        self.prev = tuple(getattr(stats, name) for name in _STAT_FIELDS)
        if cache is not None and heatmap:
            self.prev_tags = [list(row) for row in cache._tags]
            self.churn = [0] * len(self.prev_tags)
            self.occupancy_sum = [0] * len(self.prev_tags)
        else:
            self.prev_tags = None
            self.churn = None
            self.occupancy_sum = None
        self.occupancy_samples = 0

    def rebind(self, stats, cache) -> None:
        """Re-point at rebuilt structures after a sentinel failover.

        The takeover engine's statistics continue the verified
        trajectory, so the previous-sample counters stay valid deltas.
        """
        self.stats = stats
        self.cache = cache

    def sample(self, d_instructions: int) -> dict:
        stats = self.stats
        current = tuple(getattr(stats, name) for name in _STAT_FIELDS)
        prev = self.prev
        self.prev = current
        delta = {
            name: current[i] - prev[i] for i, name in enumerate(_STAT_FIELDS)
        }
        delta["mpki"] = (
            1000.0 * delta["misses"] / d_instructions if d_instructions else 0.0
        )
        if self.prev_tags is not None and self.cache is not None:
            tags = self.cache._tags
            prev_tags = self.prev_tags
            churn = self.churn
            occupancy_sum = self.occupancy_sum
            for set_index, row in enumerate(tags):
                prev_row = prev_tags[set_index]
                changed = 0
                occupied = 0
                for way, tag in enumerate(row):
                    if tag != prev_row[way]:
                        changed += 1
                        prev_row[way] = tag
                    if tag != -1:
                        occupied += 1
                churn[set_index] += changed
                occupancy_sum[set_index] += occupied
            self.occupancy_samples += 1
        return delta

    def heatmap_dict(self) -> dict | None:
        if self.churn is None:
            return None
        samples = self.occupancy_samples
        ways = len(self.prev_tags[0]) if self.prev_tags else 0
        return {
            "sets": len(self.churn),
            "ways": ways,
            "churn": list(self.churn),
            "mean_occupancy": [
                total / samples if samples else 0.0
                for total in self.occupancy_sum
            ],
        }


class IntervalRecorder:
    """Collects per-interval samples from a running front end.

    The engine hot loops hold a local reference and check
    ``branches_seen >= recorder.next_boundary`` (one integer compare per
    record when telemetry is on; when off the reference is ``None`` and
    the whole pipeline vanishes — statically enforced by the
    ``det-telemetry-off`` lint rule).
    """

    __slots__ = (
        "config", "next_boundary", "_icache", "_btb", "_ghrp", "_obs",
        "_samples", "_dropped", "_prev_instructions",
        "_prev_branches", "_prev_predictor", "_prev_sentinel", "_finished",
    )

    def __init__(self, config: TelemetryConfig, *, icache, btb, ghrp=None,
                 obs=None):
        self.config = config
        self.next_boundary = config.interval_branches
        heatmap = config.heatmap
        self._icache = _StructureTracker("icache", icache.stats, icache, heatmap)
        # The BTB wraps a SetAssociativeCache; its tag array carries the
        # heatmap, its stats object the counters.
        self._btb = _StructureTracker("btb", btb.stats, btb._cache, heatmap)
        self._ghrp = ghrp
        self._obs = obs
        self._samples: list[dict] = []
        self._dropped = 0
        self._prev_instructions = 0
        self._prev_branches = 0
        self._prev_predictor = self._predictor_counters()
        self._prev_sentinel = self._sentinel_counters()
        self._finished = False

    # -- engine-facing ---------------------------------------------------
    def take_sample(self, instructions_seen: int, branches_seen: int) -> None:
        """Record one interval sample and advance the boundary.

        The caller has already flushed any counters it buffers (the fast
        engine's kernel deltas) into the statistics objects read here.
        """
        self._record(instructions_seen, branches_seen)
        interval = self.config.interval_branches
        # Skip past any boundaries a burst jumped over.
        while self.next_boundary <= branches_seen:
            self.next_boundary += interval

    def finish(self, instructions_seen: int, branches_seen: int) -> None:
        """Flush the final partial interval (idempotent)."""
        if self._finished:
            return
        self._finished = True
        if branches_seen > self._prev_branches:
            self._record(instructions_seen, branches_seen)

    def rebind(self, frontend) -> None:
        """Follow a sentinel failover onto the takeover engine.

        The takeover reference engine rebuilds the caches from the last
        verified snapshot and replays forward, so its counters continue
        the same trajectory; only the object identities change.
        """
        self._icache.rebind(frontend.icache.stats, frontend.icache)
        self._btb.rebind(frontend.btb.stats, frontend.btb._cache)
        self._ghrp = frontend.ghrp
        self._prev_predictor = self._predictor_counters()

    def export(self) -> TelemetryRun:
        heatmap = None
        icache_map = self._icache.heatmap_dict()
        btb_map = self._btb.heatmap_dict()
        if icache_map is not None or btb_map is not None:
            heatmap = {"icache": icache_map, "btb": btb_map}
        return TelemetryRun(
            interval_branches=self.config.interval_branches,
            samples=list(self._samples),
            dropped=self._dropped,
            heatmap=heatmap,
        )

    # -- internals -------------------------------------------------------
    def _predictor_counters(self) -> tuple[int, int, int]:
        ghrp = self._ghrp
        if ghrp is None:
            return (0, 0, 0)
        tables = ghrp.tables
        return (tables.predictions, tables.increments, tables.decrements)

    def _sentinel_counters(self) -> tuple[int, ...]:
        obs = self._obs
        if obs is None or not obs.enabled:
            return (0,) * len(_SENTINEL_COUNTERS)
        counter = obs.metrics.counter
        return tuple(counter(name) for name in _SENTINEL_COUNTERS)

    def _record(self, instructions_seen: int, branches_seen: int) -> None:
        d_instructions = instructions_seen - self._prev_instructions
        d_branches = branches_seen - self._prev_branches
        self._prev_instructions = instructions_seen
        self._prev_branches = branches_seen
        sample = {
            "interval": len(self._samples) + self._dropped,
            "instructions": instructions_seen,
            "branches": branches_seen,
            "d_instructions": d_instructions,
            "d_branches": d_branches,
            "icache": self._icache.sample(d_instructions),
            "btb": self._btb.sample(d_instructions),
        }
        ghrp = self._ghrp
        if ghrp is not None:
            current = self._predictor_counters()
            prev = self._prev_predictor
            self._prev_predictor = current
            sample["predictor"] = {
                "predictions": current[0] - prev[0],
                "increments": current[1] - prev[1],
                "decrements": current[2] - prev[2],
                "saturation": ghrp.tables.saturation_fraction(
                    ghrp.config.dead_threshold
                ),
            }
        else:
            sample["predictor"] = None
        sentinel = self._sentinel_counters()
        prev_sentinel = self._prev_sentinel
        self._prev_sentinel = sentinel
        sample["sentinel"] = {
            name.split(".", 1)[1]: sentinel[i] - prev_sentinel[i]
            for i, name in enumerate(_SENTINEL_COUNTERS)
        }
        samples = self._samples
        if len(samples) >= self.config.max_intervals:
            samples.pop(0)
            self._dropped += 1
        samples.append(sample)
