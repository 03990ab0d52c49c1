"""The static-analysis pass: rule triggers, suppressions, self-check.

Each rule family gets fixture snippets that (a) trigger the rule and
(b) suppress it with ``# repro: allow(<rule>)``; a final self-check
asserts the shipped tree is clean under the full rule set, which is the
same gate CI runs via ``repro-sim check``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro
from repro.analysis.lint import LintEngine, all_rules
from repro.analysis.lint.core import KERNEL_DIR_NAMES
from repro.cli import main

REPRO_PACKAGE = Path(repro.__file__).resolve().parent


def lint_snippet(tmp_path, relpath: str, code: str, rules=None):
    """Write ``code`` at tmp_path/relpath and lint that tree."""
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(code, encoding="utf-8")
    return LintEngine([tmp_path], rules=rules).run()


def rule_ids(result):
    return [finding.rule for finding in result.findings]


# ----------------------------------------------------------------------
# Determinism rules
# ----------------------------------------------------------------------
class TestUnseededRandom:
    def test_global_draw_flagged(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "cache/mod.py",
            "import random\n\ndef pick(ways):\n    return random.randrange(ways)\n",
        )
        assert rule_ids(result) == ["det-unseeded-random"]
        assert result.findings[0].line == 4

    def test_unseeded_random_instance_flagged(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "policies/mod.py",
            "import random\n\nRNG = random.Random()\n",
        )
        assert rule_ids(result) == ["det-unseeded-random"]

    def test_bare_import_draw_flagged(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "policies/mod.py",
            "from random import choice\n\ndef pick(ways):\n    return choice(ways)\n",
        )
        assert rule_ids(result) == ["det-unseeded-random"]

    def test_seeded_instance_clean(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "policies/mod.py",
            "import random\n\nRNG = random.Random(42)\n\ndef pick(ways):\n"
            "    return RNG.randrange(ways)\n",
        )
        assert result.findings == []

    def test_non_kernel_module_ignored(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "viz/mod.py",
            "import random\n\ndef jitter():\n    return random.random()\n",
        )
        assert result.findings == []

    def test_suppression(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "cache/mod.py",
            "import random\n\ndef pick(ways):\n"
            "    return random.randrange(ways)"
            "  # repro: allow(det-unseeded-random)\n",
        )
        assert result.findings == []
        assert [finding.rule for finding in result.suppressed] == [
            "det-unseeded-random"
        ]


class TestWallClock:
    def test_time_time_flagged(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "frontend/mod.py",
            "import time\n\ndef stamp(result):\n    result.when = time.time()\n",
        )
        assert rule_ids(result) == ["det-wallclock"]

    def test_datetime_now_flagged(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "traces/mod.py",
            "from datetime import datetime\n\ndef stamp():\n"
            "    return datetime.now()\n",
        )
        assert rule_ids(result) == ["det-wallclock"]

    def test_standalone_suppression_covers_next_code_line(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "frontend/mod.py",
            "import time\n\ndef stamp(result):\n"
            "    # repro: allow(det-wallclock) -- wall time never enters\n"
            "    # simulation results, only this debug field\n"
            "    result.when = time.time()\n",
        )
        assert result.findings == []
        assert len(result.suppressed) == 1


class TestSetIteration:
    def test_loop_over_set_literal_flagged(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "core/mod.py",
            "def walk():\n    for x in {1, 2, 3}:\n        print(x)\n",
        )
        assert rule_ids(result) == ["det-set-iteration"]

    def test_loop_over_known_set_name_flagged(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "core/mod.py",
            "def walk(xs):\n    live = set(xs)\n    out = []\n"
            "    for x in live:\n        out.append(x)\n    return out\n",
        )
        assert rule_ids(result) == ["det-set-iteration"]

    def test_list_of_set_flagged(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "btb/mod.py",
            "def snapshot(xs):\n    return list(set(xs))\n",
        )
        assert rule_ids(result) == ["det-set-iteration"]

    def test_sorted_set_clean(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "core/mod.py",
            "def walk(xs):\n    live = set(xs)\n"
            "    return [x for x in sorted(live)]\n",
        )
        assert result.findings == []

    def test_membership_test_clean(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "policies/mod.py",
            "LEADERS = set(range(8))\n\ndef is_leader(s):\n"
            "    return s in LEADERS\n",
        )
        assert result.findings == []

    def test_suppression(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "core/mod.py",
            "def walk(xs):\n"
            "    # repro: allow(det-set-iteration) -- int keys, output is a set\n"
            "    return {x + 1 for x in set(xs)}\n",
        )
        assert result.findings == []


class TestEnvironRead:
    def test_environ_flagged(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "traces/mod.py",
            "import os\n\ndef scale():\n    return os.environ['SCALE']\n",
        )
        assert rule_ids(result) == ["det-environ-read"]

    def test_getenv_flagged(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "branch/mod.py",
            "import os\n\ndef depth():\n    return os.getenv('DEPTH', '4')\n",
        )
        assert rule_ids(result) == ["det-environ-read"]

    def test_config_module_exempt(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "frontend/config.py",
            "import os\n\ndef default_scale():\n"
            "    return os.environ.get('SCALE', '1')\n",
        )
        assert result.findings == []

    def test_suppression(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "traces/mod.py",
            "import os\n\ndef scale():\n"
            "    return os.environ['SCALE']  # repro: allow(det-environ-read)\n",
        )
        assert result.findings == []


class TestIdKeyedDict:
    def test_subscript_flagged(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "cache/mod.py",
            "def remember(seen, block):\n    seen[id(block)] = True\n",
        )
        assert rule_ids(result) == ["det-id-keyed-dict"]

    def test_dict_literal_flagged(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "cache/mod.py",
            "def index(block):\n    return {id(block): block}\n",
        )
        assert rule_ids(result) == ["det-id-keyed-dict"]

    def test_get_flagged(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "cache/mod.py",
            "def lookup(seen, block):\n    return seen.get(id(block))\n",
        )
        assert rule_ids(result) == ["det-id-keyed-dict"]

    def test_suppression(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "cache/mod.py",
            "def remember(seen, block):\n"
            "    seen[id(block)] = True  # repro: allow(det-id-keyed-dict)\n",
        )
        assert result.findings == []


# ----------------------------------------------------------------------
# Bit-width rules
# ----------------------------------------------------------------------
class TestUnmaskedShiftAccum:
    def test_unmasked_accumulator_flagged(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "core/mod.py",
            "class History:\n    def push(self, bits):\n"
            "        self.value = (self.value << 4) | bits\n",
        )
        assert rule_ids(result) == ["bits-unmasked-shift-accum"]

    def test_augmented_shift_flagged(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "core/mod.py",
            "def widen(x):\n    x <<= 2\n    return x\n",
        )
        assert rule_ids(result) == ["bits-unmasked-shift-accum"]

    def test_masked_accumulator_clean(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "core/mod.py",
            "class History:\n    def push(self, bits):\n"
            "        self.value = ((self.value << 4) | bits) & 0xFFFF\n",
        )
        assert result.findings == []

    def test_fresh_shift_clean(self, tmp_path):
        # A shift that does not fold the target back in is size
        # arithmetic (1 << index_bits), not register accumulation.
        result = lint_snippet(
            tmp_path,
            "core/mod.py",
            "def entries(index_bits):\n    count = 1 << index_bits\n"
            "    return count\n",
        )
        assert result.findings == []

    def test_suppression(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "core/mod.py",
            "class History:\n    def push(self, bits):\n"
            "        # repro: allow(bits-unmasked-shift-accum) -- bounded\n"
            "        self.value = (self.value << 4) | bits\n",
        )
        assert result.findings == []


COUNTER_CLASS_HEADER = (
    "class Table:\n"
    "    def __init__(self):\n"
    "        self.counter_max = 3\n"
    "        self._ctr = [0] * 16\n"
)


class TestSaturatingCounter:
    def test_unclamped_increment_flagged(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "policies/mod.py",
            COUNTER_CLASS_HEADER + "    def bump(self, i):\n        self._ctr[i] += 1\n",
        )
        assert rule_ids(result) == ["bits-saturating-counter"]

    def test_unclamped_rmw_temp_flagged(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "policies/mod.py",
            COUNTER_CLASS_HEADER
            + "    def bump(self, i):\n"
            "        value = self._ctr[i]\n"
            "        self._ctr[i] = value + 1\n",
        )
        assert rule_ids(result) == ["bits-saturating-counter"]

    def test_guarded_increment_clean(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "policies/mod.py",
            COUNTER_CLASS_HEADER
            + "    def bump(self, i):\n"
            "        if self._ctr[i] < self.counter_max:\n"
            "            self._ctr[i] += 1\n",
        )
        assert result.findings == []

    def test_min_clamped_increment_clean(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "policies/mod.py",
            COUNTER_CLASS_HEADER
            + "    def bump(self, i):\n"
            "        self._ctr[i] = min(self._ctr[i] + 1, self.counter_max)\n",
        )
        assert result.findings == []

    def test_mask_arithmetic_not_a_counter(self, tmp_path):
        # x = y - 1 where y is plain arithmetic must not match
        # (regression: self._entries_mask = table_entries - 1).
        result = lint_snippet(
            tmp_path,
            "policies/mod.py",
            "class Table:\n"
            "    def __init__(self, entries):\n"
            "        self.size_max = entries\n"
            "        self._mask = entries - 1\n",
        )
        assert result.findings == []

    def test_class_without_bound_ignored(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "policies/mod.py",
            "class Clocked:\n    def tick(self):\n        self._age[0] += 1\n",
        )
        assert result.findings == []

    def test_telemetry_names_exempt(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "policies/mod.py",
            COUNTER_CLASS_HEADER + "    def note(self):\n        self.hits += 1\n",
        )
        assert result.findings == []

    def test_suppression(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "policies/mod.py",
            COUNTER_CLASS_HEADER
            + "    def bump(self, i):\n"
            "        self._ctr[i] += 1  # repro: allow(bits-saturating-counter)\n",
        )
        assert result.findings == []


# ----------------------------------------------------------------------
# Telemetry guard rule
# ----------------------------------------------------------------------
class TestTelemetryGuard:
    def test_unguarded_call_flagged(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "kernel/engine.py",
            "class Engine:\n"
            "    def run(self):\n"
            "        self.telemetry.take_sample(1, 2)\n",
        )
        assert rule_ids(result) == ["det-telemetry-off"]
        assert result.findings[0].line == 3

    def test_guarded_if_clean(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "frontend/engine.py",
            "class Engine:\n"
            "    def run(self):\n"
            "        if self.telemetry is not None:\n"
            "            self.telemetry.finish(1, 2)\n",
        )
        assert rule_ids(result) == []

    def test_hoisted_local_with_and_guard_clean(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "kernel/engine.py",
            "def loop(telemetry, branches):\n"
            "    if telemetry is not None and branches >= telemetry.next_boundary:\n"
            "        telemetry.take_sample(0, branches)\n",
        )
        assert rule_ids(result) == []

    def test_conditional_expression_guard_clean(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "frontend/engine.py",
            "def collect(self):\n"
            "    return self.telemetry.export() "
            "if self.telemetry is not None else None\n",
        )
        assert rule_ids(result) == []

    def test_guard_on_wrong_receiver_flagged(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "kernel/engine.py",
            "def run(self, other):\n"
            "    if other.telemetry is not None:\n"
            "        self.telemetry.finish(1, 2)\n",
        )
        assert rule_ids(result) == ["det-telemetry-off"]

    def test_else_branch_not_covered_by_guard(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "kernel/engine.py",
            "def run(self):\n"
            "    if self.telemetry is not None:\n"
            "        pass\n"
            "    else:\n"
            "        self.telemetry.finish(1, 2)\n",
        )
        assert rule_ids(result) == ["det-telemetry-off"]

    def test_and_short_circuit_guard_clean(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "kernel/engine.py",
            "def run(telemetry):\n"
            "    return telemetry is not None and telemetry.flush()\n",
        )
        assert rule_ids(result) == []

    def test_truthiness_guard_clean(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "kernel/engine.py",
            "def run(telemetry):\n"
            "    if telemetry:\n"
            "        telemetry.flush()\n",
        )
        assert rule_ids(result) == []

    def test_non_kernel_module_ignored(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "telemetry/interval.py",
            "def run(self):\n"
            "    self.telemetry.take_sample(1, 2)\n",
        )
        assert rule_ids(result) == []

    def test_setup_helper_name_not_a_receiver(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "frontend/engine.py",
            "def run(self, options):\n"
            "    self._setup_telemetry(options)\n",
        )
        assert rule_ids(result) == []

    def test_suppression(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "kernel/engine.py",
            "def run(self):\n"
            "    # repro: allow(det-telemetry-off) -- fixture\n"
            "    self.telemetry.take_sample(1, 2)\n",
        )
        assert rule_ids(result) == []
        assert [finding.rule for finding in result.suppressed] \
            == ["det-telemetry-off"]


# ----------------------------------------------------------------------
# Contract rules
# ----------------------------------------------------------------------
class TestModuleState:
    def test_subscript_store_flagged(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "policies/mod.py",
            "_CACHE = {}\n\ndef remember(key, value):\n    _CACHE[key] = value\n",
        )
        assert rule_ids(result) == ["contract-module-state"]

    def test_global_statement_flagged(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "policies/mod.py",
            "_EPOCH = 0\n\ndef advance():\n    global _EPOCH\n    _EPOCH = 1\n",
        )
        assert rule_ids(result) == ["contract-module-state"]

    def test_mutator_call_flagged(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "branch/mod.py",
            "_SEEN = []\n\ndef note(pc):\n    _SEEN.append(pc)\n",
        )
        assert rule_ids(result) == ["contract-module-state"]

    def test_instance_state_clean(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "policies/mod.py",
            "class Policy:\n    def __init__(self):\n        self._seen = {}\n\n"
            "    def note(self, pc):\n        self._seen[pc] = True\n",
        )
        assert result.findings == []

    def test_non_policy_module_ignored(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "workloads/mod.py",
            "_CACHE = {}\n\ndef remember(key, value):\n    _CACHE[key] = value\n",
        )
        assert result.findings == []

    def test_suppression(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "policies/mod.py",
            "_CACHE = {}\n\ndef remember(key, value):\n"
            "    _CACHE[key] = value  # repro: allow(contract-module-state)\n",
        )
        assert result.findings == []


class TestAtomicWrite:
    def test_bare_open_dump_flagged(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "experiments/mod.py",
            "import json\n\ndef save(path, data):\n"
            "    with open(path, \"w\", encoding=\"utf-8\") as handle:\n"
            "        json.dump(data, handle)\n",
        )
        assert rule_ids(result) == ["contract-atomic-write"]
        assert result.findings[0].line == 4

    def test_mode_keyword_flagged(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "experiments/mod.py",
            "import json\n\ndef save(path, data):\n"
            "    with open(path, mode=\"w\") as handle:\n"
            "        json.dump(data, fp=handle)\n",
        )
        assert rule_ids(result) == ["contract-atomic-write"]

    def test_read_open_clean(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "experiments/mod.py",
            "import json\n\ndef load(path):\n"
            "    with open(path, \"r\", encoding=\"utf-8\") as handle:\n"
            "        return json.load(handle)\n",
        )
        assert result.findings == []

    def test_binary_write_clean(self, tmp_path):
        # The atomic helpers write bytes through os.fdopen/"wb" handles;
        # the rule targets exactly the text-mode open + json.dump shape.
        result = lint_snippet(
            tmp_path,
            "experiments/mod.py",
            "import json\n\ndef save(path, data):\n"
            "    with open(path, \"wb\") as handle:\n"
            "        handle.write(json.dumps(data).encode())\n",
        )
        assert result.findings == []

    def test_dump_to_other_handle_clean(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "experiments/mod.py",
            "import json\n\ndef tee(path, data, log):\n"
            "    with open(path, \"w\") as handle:\n"
            "        handle.write(\"x\")\n"
            "        json.dump(data, log)\n",
        )
        assert result.findings == []

    def test_non_experiments_module_ignored(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "viz/mod.py",
            "import json\n\ndef save(path, data):\n"
            "    with open(path, \"w\") as handle:\n"
            "        json.dump(data, handle)\n",
        )
        assert result.findings == []

    def test_suppression(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "experiments/mod.py",
            "import json\n\ndef save(path, data):\n"
            "    # repro: allow(contract-atomic-write) -- test fixture\n"
            "    with open(path, \"w\") as handle:\n"
            "        json.dump(data, handle)\n",
        )
        assert result.findings == []
        assert [finding.rule for finding in result.suppressed] == [
            "contract-atomic-write"
        ]


class TestServiceScope:
    """The job service lints under the kernel discipline (PR 10).

    ``service`` is a kernel dir name: determinism rules apply (the daemon
    replays journals and fingerprints job specs, so hidden wall-clock or
    RNG reads would break recovery), and the atomic-write contract covers
    its result documents exactly as it covers the experiment layer's.
    """

    def test_wallclock_flagged_in_service(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "service/mod.py",
            "import time\n\ndef stamp(job):\n    job.when = time.time()\n",
        )
        assert rule_ids(result) == ["det-wallclock"]

    def test_bare_json_dump_flagged_in_service(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "service/mod.py",
            "import json\n\ndef save(path, doc):\n"
            "    with open(path, \"w\", encoding=\"utf-8\") as handle:\n"
            "        json.dump(doc, handle)\n",
        )
        assert rule_ids(result) == ["contract-atomic-write"]

    def test_shipped_service_wallclock_audit(self):
        # The daemon's only real clock reads are the two in
        # service/clock.py behind SYSTEM_CLOCK, each carrying an explicit
        # allow marker; everything else takes an injected ServiceClock.
        # New unsuppressed reads fail the lint; new *suppressions* fail
        # this audit, so widening the exemption is a reviewed change.
        result = LintEngine(
            [REPRO_PACKAGE / "service"], rules=["det-wallclock"]
        ).run()
        assert result.findings == []
        suppressed = sorted(
            (Path(finding.path).name, finding.rule)
            for finding in result.suppressed
        )
        assert suppressed == [
            ("clock.py", "det-wallclock"),
            ("clock.py", "det-wallclock"),
        ]


class TestKernelScope:
    def test_every_kernel_dir_name_is_a_package(self):
        # A scope entry naming no package matches nothing, so deleting a
        # package must take its entry with it.
        for name in KERNEL_DIR_NAMES:
            assert (REPRO_PACKAGE / name / "__init__.py").is_file(), name


class TestProjectRules:
    def test_policy_abc_clean_on_shipped_registry(self):
        result = LintEngine([REPRO_PACKAGE], rules=["contract-policy-abc"]).run()
        assert result.findings == []

    def test_storage_budget_clean_on_shipped_model(self):
        result = LintEngine([REPRO_PACKAGE], rules=["bits-storage-budget"]).run()
        assert result.findings == []

    def test_project_rules_skip_fixture_trees(self, tmp_path):
        # A lint of a throwaway tree must not audit (or blame) the real
        # package via the project rules.
        result = lint_snippet(
            tmp_path,
            "policies/mod.py",
            "x = 1\n",
            rules=["contract-policy-abc", "bits-storage-budget"],
        )
        assert result.findings == []


class TestFastPathDigestContract:
    """contract-fast-path: every @batch_kernel entry needs state_digest()."""

    _KERNEL_SNIPPET = (
        "from repro.kernel.base import CacheKernel, batch_kernel\n"
        "from repro.policies.lru import LRUPolicy\n"
        "\n"
        "\n"
        "class {policy}(LRUPolicy):\n"
        "    name = \"lint-fixture\"\n"
        "\n"
        "\n"
        "{allow}@batch_kernel({policy})\n"
        "class {kernel}(CacheKernel):\n"
        "    pass\n"
    )

    def _lint_with_fixture_kernel(self, tmp_path, name: str, allow: str):
        """Import a snippet that registers a digest-less kernel, lint it.

        The snippet must be a real on-disk module (not classes defined
        here): the rule anchors its finding via ``inspect.getsourcefile``
        and suppressions only match files the engine actually scanned.
        """
        import importlib.util
        import sys

        from repro.kernel.base import _BATCH_KERNELS

        snippet = tmp_path / "kernel" / f"{name}.py"
        snippet.parent.mkdir(parents=True, exist_ok=True)
        snippet.write_text(
            self._KERNEL_SNIPPET.format(
                policy=f"{name.title()}Policy", kernel=f"{name.title()}Kernel",
                allow=allow,
            ),
            encoding="utf-8",
        )
        spec = importlib.util.spec_from_file_location(f"lint_fixture_{name}", snippet)
        module = importlib.util.module_from_spec(spec)
        # The rule anchors findings with inspect.getsourcefile, which
        # resolves through sys.modules — an unregistered module would
        # anchor at <unknown>:1 and defeat suppression matching.
        sys.modules[spec.name] = module
        try:
            spec.loader.exec_module(module)
            return LintEngine(
                [tmp_path, REPRO_PACKAGE], rules=["contract-fast-path"]
            ).run()
        finally:
            sys.modules.pop(spec.name, None)
            _BATCH_KERNELS.pop(getattr(module, f"{name.title()}Policy", None), None)

    def test_kernel_without_state_digest_flagged(self, tmp_path):
        result = self._lint_with_fixture_kernel(tmp_path, "digestless", allow="")
        assert rule_ids(result) == ["contract-fast-path"]
        assert "state_digest" in result.findings[0].message
        assert "DigestlessKernel" in result.findings[0].message

    def test_suppression(self, tmp_path):
        result = self._lint_with_fixture_kernel(
            tmp_path,
            "allowed",
            allow="# repro: allow(contract-fast-path) -- fixture kernel\n",
        )
        assert result.findings == []
        assert [finding.rule for finding in result.suppressed] == [
            "contract-fast-path"
        ]


# ----------------------------------------------------------------------
# Framework behaviour
# ----------------------------------------------------------------------
class TestFramework:
    def test_parse_error_reported(self, tmp_path):
        result = lint_snippet(tmp_path, "cache/bad.py", "def broken(:\n")
        assert rule_ids(result) == ["lint-parse-error"]
        assert result.has_errors

    def test_unknown_rule_in_allow_warned(self, tmp_path):
        result = lint_snippet(
            tmp_path, "cache/mod.py", "x = 1  # repro: allow(no-such-rule)\n"
        )
        assert rule_ids(result) == ["lint-unknown-suppression"]
        assert not result.has_errors  # warnings never gate

    def test_unused_suppression_warned(self, tmp_path):
        result = lint_snippet(
            tmp_path, "cache/mod.py", "x = 1  # repro: allow(det-wallclock)\n"
        )
        assert rule_ids(result) == ["lint-unused-suppression"]
        assert not result.has_errors

    def test_unknown_rule_selection_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown rule"):
            LintEngine([tmp_path], rules=["det-nope"])

    def test_rule_ids_are_unique_and_described(self):
        rules = all_rules()
        assert len({rule.id for rule in rules}) == len(rules)
        assert all(rule.description for rule in rules)

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            LintEngine([tmp_path / "nope"]).run()


# ----------------------------------------------------------------------
# CLI and the shipped-tree gate
# ----------------------------------------------------------------------
class TestCheckCommand:
    def test_shipped_tree_is_clean(self, shipped_tree_lint):
        """The acceptance gate: `repro-sim check src/repro` finds no error."""
        assert shipped_tree_lint.errors == []

    def test_violation_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "cache" / "mod.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\n\ndef f():\n    return random.random()\n")
        assert main(["check", str(tmp_path)]) == 1
        assert "det-unseeded-random" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        bad = tmp_path / "cache" / "mod.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\n\ndef f():\n    return time.time()\n")
        assert main(["check", str(tmp_path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] == 1
        assert payload["findings"][0]["rule"] == "det-wallclock"
        assert payload["findings"][0]["line"] == 4

    def test_rule_selection(self, tmp_path, capsys):
        bad = tmp_path / "cache" / "mod.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\n\ndef f():\n    return time.time()\n")
        assert main(["check", str(tmp_path), "--rules", "det-set-iteration"]) == 0
        capsys.readouterr()

    def test_list_rules(self, capsys):
        assert main(["check", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in all_rules():
            assert rule.id in out

    def test_bad_path_exits_2(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "missing")]) == 2
        capsys.readouterr()
