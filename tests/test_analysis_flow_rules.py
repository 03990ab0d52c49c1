"""The flow-tier rules: triggers, suppressions, proofs, CLI surface.

Mirrors ``test_analysis_lint.py`` for the ``flow-*`` rules: every rule
gets a fixture that trips it and one that stays clean, the Table I width
proof is checked against the real kernel sources, digest coverage is
verified by *injecting* an uncovered field into a shipped kernel, and
the SARIF/baseline/--engine CLI surface is exercised end to end.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro
from repro.analysis.lint import LintEngine, all_rules
from repro.analysis.lint.flow_bitwidth import harvest_module
from repro.cli import main

REPRO_PACKAGE = Path(repro.__file__).resolve().parent

FLOW_RULES = [rule.id for rule in all_rules() if rule.id.startswith("flow-")]


def lint_snippet(tmp_path, relpath: str, code: str, rules=None):
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(code, encoding="utf-8")
    return LintEngine([tmp_path], rules=rules).run()


def rule_ids(result):
    return [finding.rule for finding in result.findings]


# ----------------------------------------------------------------------
# flow-width-escape
# ----------------------------------------------------------------------
class TestWidthEscape:
    def test_unmasked_store_escapes_inferred_width(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "kernel/mod.py",
            "class K:\n"
            "    def ok(self, pc):\n"
            "        self.sig = pc & 0xFFFF\n"
            "    def bad(self, pc):\n"
            "        self.sig = pc + 1\n",
            rules=["flow-width-escape"],
        )
        assert rule_ids(result) == ["flow-width-escape"]
        assert result.findings[0].line == 5

    def test_all_masked_stores_clean(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "kernel/mod.py",
            "class K:\n"
            "    def ok(self, pc):\n"
            "        self.sig = pc & 0xFFFF\n"
            "    def also_ok(self, pc):\n"
            "        self.sig = (self.sig ^ pc) & 0xFFFF\n",
            rules=["flow-width-escape"],
        )
        assert result.findings == []

    def test_saturating_counter_proved(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "kernel/mod.py",
            "class K:\n"
            "    def reset(self):\n"
            "        self.counter = 3 % 4\n"
            "    def train(self):\n"
            "        if self.counter < 3:\n"
            "            self.counter = self.counter + 1\n",
            rules=["flow-width-escape"],
        )
        assert result.findings == []

    def test_executor_closure_stores_are_checked(self, tmp_path):
        # Chunk executors store through aliases of kernel state inside
        # closures; their stores establish and must respect widths too.
        closure = (
            "class K:\n"
            "    def make(self, values):\n"
            "        r0, r1 = self.tables\n"
            "        top = self.counter_max\n"
            "        def span(i):\n"
            "            v = r0[i]\n"
            "            if v < top:\n"
            "                r0[i] = v + 1\n"
            "            r1[i] = STORE\n"
            "        return span\n"
        )
        clean = lint_snippet(
            tmp_path / "clean", "kernel/mod.py",
            closure.replace("STORE", "(values[i] + 1) & 3"), rules=["flow-width-escape"],
        )
        assert clean.findings == []
        bad = lint_snippet(
            tmp_path / "bad", "kernel/mod.py",
            closure.replace("STORE", "values[i] + 1"), rules=["flow-width-escape"],
        )
        assert rule_ids(bad) == ["flow-width-escape"]
        assert bad.findings[0].line == 9

    def test_unguarded_increment_escapes(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "kernel/mod.py",
            "class K:\n"
            "    def reset(self):\n"
            "        self.counter = 3 % 4\n"
            "    def train(self):\n"
            "        self.counter = self.counter + 1\n",
            rules=["flow-width-escape"],
        )
        assert rule_ids(result) == ["flow-width-escape"]

    def test_suppression(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "kernel/mod.py",
            "class K:\n"
            "    def ok(self, pc):\n"
            "        self.sig = pc & 0xFFFF\n"
            "    def bad(self, pc):\n"
            "        self.sig = pc + 1  # repro: allow(flow-width-escape) proto\n",
            rules=["flow-width-escape"],
        )
        assert result.findings == [] and len(result.suppressed) == 1

    def test_non_kernel_tree_ignored(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "viz/mod.py",
            "class K:\n"
            "    def ok(self, pc):\n"
            "        self.sig = pc & 0xFFFF\n"
            "    def bad(self, pc):\n"
            "        self.sig = pc + 1\n",
            rules=["flow-width-escape"],
        )
        assert result.findings == []


# ----------------------------------------------------------------------
# flow-table1-width: the worked proof over the real kernel sources
# ----------------------------------------------------------------------
class TestTable1Proof:
    @pytest.fixture(scope="class")
    def ghrp_widths(self):
        import ast

        source = (REPRO_PACKAGE / "kernel" / "ghrp.py").read_text(encoding="utf-8")
        return harvest_module(ast.parse(source))

    def test_counters_prove_two_bits(self, ghrp_widths):
        # The counters are trained inside the executor closures, through
        # the kernel's shared predictor state.
        bound = ghrp_widths["GHRPCacheKernel"].bounds["self.state.tables[*]"]
        assert (bound.lo, bound.hi) == (0, 3)

    def test_path_histories_prove_sixteen_bits(self, ghrp_widths):
        state = ghrp_widths["GHRPKernelState"].bounds
        assert state["self.spec"].hi == 0xFFFF
        assert state["self.retired"].hi == 0xFFFF

    def test_signatures_prove_sixteen_bits(self, ghrp_widths):
        bound = ghrp_widths["GHRPCacheKernel"].bounds["self._signatures[*]"]
        assert (bound.lo, bound.hi) == (0, 0xFFFF)

    def test_prediction_bits_prove_boolean(self, ghrp_widths):
        bound = ghrp_widths["GHRPCacheKernel"].bounds["self._pred_dead[*]"]
        assert (bound.lo, bound.hi) == (0, 1)

    def test_shipped_tree_satisfies_table1(self):
        result = LintEngine(
            [REPRO_PACKAGE / "kernel"], rules=["flow-table1-width", "flow-width-escape"]
        ).run()
        assert result.findings == []


# ----------------------------------------------------------------------
# flow-digest-coverage
# ----------------------------------------------------------------------
DIGEST_FIXTURE = (
    "class K:\n"
    "    def __init__(self, cache):\n"
    "        self.cache = cache\n"
    "        self._tags = []\n"
    "        self._hidden = 0\n"
    "    def access(self, pc):\n"
    "        self._tags.append(pc)\n"
    "        self._hidden += 1\n"
    "        self.cache.now += 1\n"
    "    def state_digest(self):\n"
    "        return {'tags': self._tags}\n"
)


class TestDigestCoverage:
    def test_hidden_field_flagged_bare_param_exempt(self, tmp_path):
        result = lint_snippet(
            tmp_path, "kernel/mod.py", DIGEST_FIXTURE, rules=["flow-digest-coverage"]
        )
        assert rule_ids(result) == ["flow-digest-coverage"]
        assert "_hidden" in result.findings[0].message
        # self.cache came in as a bare constructor parameter: exempt.
        assert "cache" not in result.findings[0].message

    def test_covered_field_clean(self, tmp_path):
        fixed = DIGEST_FIXTURE.replace(
            "{'tags': self._tags}", "{'tags': self._tags, 'hidden': self._hidden}"
        )
        result = lint_snippet(
            tmp_path, "kernel/mod.py", fixed, rules=["flow-digest-coverage"]
        )
        assert result.findings == []

    def test_coverage_through_helper_and_super_chain(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "kernel/mod.py",
            "class Base:\n"
            "    def _base_digest(self):\n"
            "        return {'ticks': self._ticks}\n"
            "    def state_digest(self):\n"
            "        raise NotImplementedError\n"
            "class K(Base):\n"
            "    def access(self):\n"
            "        self._ticks += 1\n"
            "        self._sig = 1\n"
            "    def state_digest(self):\n"
            "        return {**self._base_digest(), 'sig': self._sig}\n",
            rules=["flow-digest-coverage"],
        )
        assert result.findings == []

    def test_mutation_through_row_alias_flagged(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "kernel/mod.py",
            "class K:\n"
            "    def access(self, i, w, tag):\n"
            "        row = self._tags[i]\n"
            "        row[w] = tag\n"
            "    def state_digest(self):\n"
            "        return {}\n",
            rules=["flow-digest-coverage"],
        )
        assert rule_ids(result) == ["flow-digest-coverage"]
        assert "_tags" in result.findings[0].message

    def test_injected_uncovered_field_in_shipped_kernel(self, tmp_path):
        """Drop one digest entry from the real perceptron kernel: the rule
        must notice (this is the regression shape of a real defect — the
        kernel's _indices buffer was mutated but never digested)."""
        source = (REPRO_PACKAGE / "kernel" / "direction.py").read_text(
            encoding="utf-8"
        )
        assert '"indices": self._indices,' in source
        broken = source.replace('"indices": self._indices,\n            ', "")
        assert broken != source
        result = lint_snippet(
            tmp_path / "broken",
            "kernel/direction.py",
            broken,
            rules=["flow-digest-coverage"],
        )
        assert rule_ids(result) == ["flow-digest-coverage"]
        assert "_indices" in result.findings[0].message
        clean = lint_snippet(
            tmp_path / "clean",
            "kernel/direction.py",
            source,
            rules=["flow-digest-coverage"],
        )
        assert clean.findings == []


# ----------------------------------------------------------------------
# flow-delta-sync
# ----------------------------------------------------------------------
class TestDeltaSync:
    def test_unreset_delta_flagged(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "kernel/mod.py",
            "class K:\n"
            "    def access(self):\n"
            "        self._d_hits += 1\n"
            "    def sync(self):\n"
            "        pass\n",
            rules=["flow-delta-sync"],
        )
        assert rule_ids(result) == ["flow-delta-sync"]

    def test_reset_in_sync_clean(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "kernel/mod.py",
            "class K:\n"
            "    def access(self):\n"
            "        self._d_hits += 1\n"
            "    def sync(self):\n"
            "        self.stats.hits += self._d_hits\n"
            "        self._d_hits = 0\n",
            rules=["flow-delta-sync"],
        )
        assert result.findings == []

    def test_reset_through_super_chain_clean(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "kernel/mod.py",
            "class Base:\n"
            "    def sync(self):\n"
            "        self._d_hits = 0\n"
            "class K(Base):\n"
            "    def access(self):\n"
            "        self._d_hits += 1\n"
            "    def sync(self):\n"
            "        super().sync()\n"
            "        self._d_extra = 0\n",
            rules=["flow-delta-sync"],
        )
        assert result.findings == []

    def test_missing_sync_entirely_flagged(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "kernel/mod.py",
            "class K:\n"
            "    def access(self):\n"
            "        self.d_misses += 1\n",
            rules=["flow-delta-sync"],
        )
        assert rule_ids(result) == ["flow-delta-sync"]


# ----------------------------------------------------------------------
# flow-fsync-order
# ----------------------------------------------------------------------
class TestFsyncOrder:
    def test_replace_of_dirty_file_flagged(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "experiments/mod.py",
            "import os\n"
            "def publish(tmp, final):\n"
            "    tmp.write_text('payload')\n"
            "    os.replace(tmp, final)\n",
            rules=["flow-fsync-order"],
        )
        assert rule_ids(result) == ["flow-fsync-order"]
        assert result.findings[0].line == 4

    def test_fsync_before_replace_clean(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "experiments/mod.py",
            "import os\n"
            "def publish(tmp, final):\n"
            "    with open(tmp, 'w') as handle:\n"
            "        handle.write('payload')\n"
            "        handle.flush()\n"
            "        os.fsync(handle.fileno())\n"
            "    os.replace(tmp, final)\n",
            rules=["flow-fsync-order"],
        )
        assert result.findings == []

    def test_flush_alone_does_not_discharge(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "experiments/mod.py",
            "import os\n"
            "def publish(tmp, final):\n"
            "    with open(tmp, 'w') as handle:\n"
            "        handle.write('payload')\n"
            "        handle.flush()\n"
            "    os.replace(tmp, final)\n",
            rules=["flow-fsync-order"],
        )
        assert rule_ids(result) == ["flow-fsync-order"]

    def test_fsync_on_one_branch_only_flagged(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "experiments/mod.py",
            "import os\n"
            "def publish(tmp, final, durable):\n"
            "    with open(tmp, 'w') as handle:\n"
            "        handle.write('payload')\n"
            "        if durable:\n"
            "            os.fsync(handle.fileno())\n"
            "    os.replace(tmp, final)\n",
            rules=["flow-fsync-order"],
        )
        assert rule_ids(result) == ["flow-fsync-order"]

    def test_outside_experiments_ignored(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "telemetry/mod.py",
            "import os\n"
            "def publish(tmp, final):\n"
            "    tmp.write_text('payload')\n"
            "    os.replace(tmp, final)\n",
            rules=["flow-fsync-order"],
        )
        assert result.findings == []


# ----------------------------------------------------------------------
# flow-journal-order
# ----------------------------------------------------------------------
class TestJournalOrder:
    def test_unjournaled_put_in_root_flagged(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "experiments/mod.py",
            "class Runner:\n"
            "    def finish(self, key, value):\n"
            "        self.cache.put(key, value)\n"
            "        self.journal.append('computed', key)\n",
            rules=["flow-journal-order"],
        )
        assert rule_ids(result) == ["flow-journal-order"]

    def test_append_before_put_clean(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "experiments/mod.py",
            "class Runner:\n"
            "    def finish(self, key, value):\n"
            "        self.journal.append('claimed', key)\n"
            "        self.cache.put(key, value)\n",
            rules=["flow-journal-order"],
        )
        assert result.findings == []

    def test_branch_correlated_claim_protocol_clean(self, tmp_path):
        """The scheduler shape: _claim journals iff it returns True, and
        the caller only reaches cache.put on the True branch."""
        result = lint_snippet(
            tmp_path,
            "experiments/mod.py",
            "class Runner:\n"
            "    def _claim(self, cell):\n"
            "        lease = self.leases.claim(cell)\n"
            "        if lease is None:\n"
            "            return False\n"
            "        self.journal.append('claimed', cell)\n"
            "        return True\n"
            "    def run(self, cell, value):\n"
            "        if not self._claim(cell):\n"
            "            return None\n"
            "        self.cache.put(cell, value)\n"
            "        self.leases.release(cell)\n"
            "        return value\n",
            rules=["flow-journal-order"],
        )
        assert result.findings == []

    def test_journal_on_one_branch_only_flagged(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "experiments/mod.py",
            "class Runner:\n"
            "    def finish(self, key, value, urgent):\n"
            "        if urgent:\n"
            "            self.journal.append('claimed', key)\n"
            "        self.cache.put(key, value)\n",
            rules=["flow-journal-order"],
        )
        assert rule_ids(result) == ["flow-journal-order"]

    def test_journal_and_cache_primitives_skipped(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "experiments/mod.py",
            "class ResultCache:\n"
            "    def put_twice(self, key, value):\n"
            "        self.cache.put(key, value)\n",
            rules=["flow-journal-order"],
        )
        assert result.findings == []


# ----------------------------------------------------------------------
# flow-lease-release
# ----------------------------------------------------------------------
class TestLeaseRelease:
    def test_leaked_lease_flagged_at_acquire(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "experiments/mod.py",
            "class Sched:\n"
            "    def run(self, cell):\n"
            "        lease = self.leases.claim(cell)\n"
            "        if lease is None:\n"
            "            return False\n"
            "        self.work(cell)\n"
            "        return True\n",
            rules=["flow-lease-release"],
        )
        assert rule_ids(result) == ["flow-lease-release"]
        assert result.findings[0].line == 3

    def test_released_on_success_path_clean(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "experiments/mod.py",
            "class Sched:\n"
            "    def run(self, cell):\n"
            "        lease = self.leases.claim(cell)\n"
            "        if lease is None:\n"
            "            return False\n"
            "        self.work(cell)\n"
            "        self.leases.release(cell)\n"
            "        return True\n",
            rules=["flow-lease-release"],
        )
        assert result.findings == []

    def test_release_all_at_exit_covers_helper_acquires(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "experiments/mod.py",
            "class Sched:\n"
            "    def _claim(self, cell):\n"
            "        lease = self.leases.claim(cell)\n"
            "        if lease is None:\n"
            "            return False\n"
            "        return True\n"
            "    def run(self, cells):\n"
            "        for cell in cells:\n"
            "            if not self._claim(cell):\n"
            "                continue\n"
            "            self.work(cell)\n"
            "        self.leases.release_all()\n",
            rules=["flow-lease-release"],
        )
        assert result.findings == []

    def test_lease_manager_class_itself_skipped(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "experiments/mod.py",
            "class LeaseManager:\n"
            "    def probe(self, cell):\n"
            "        return self.lease_store.claim(cell)\n",
            rules=["flow-lease-release"],
        )
        assert result.findings == []


# ----------------------------------------------------------------------
# Shipped-tree self-check + CLI surface
# ----------------------------------------------------------------------
class TestFlowTier:
    def test_shipped_tree_is_flow_clean(self, shipped_tree_lint):
        flow = [f for f in shipped_tree_lint.findings if f.rule in FLOW_RULES]
        assert flow == []
        assert set(FLOW_RULES) <= set(shipped_tree_lint.rules_run)

    def test_tier_flag_partitions_tiers(self, tmp_path, capsys):
        target = tmp_path / "experiments" / "mod.py"
        target.parent.mkdir(parents=True)
        target.write_text(
            "import os\n"
            "import random\n"
            "def publish(tmp, final):\n"
            "    os.replace(tmp, final)\n",
            encoding="utf-8",
        )
        kernel = tmp_path / "kernel" / "mod.py"
        kernel.parent.mkdir(parents=True)
        kernel.write_text(
            "import random\n\ndef pick(ways):\n    return random.randrange(ways)\n",
            encoding="utf-8",
        )
        code_flow = main(["check", str(tmp_path), "--tier", "flow"])
        out_flow = capsys.readouterr().out
        code_syntax = main(["check", str(tmp_path), "--tier", "syntax"])
        out_syntax = capsys.readouterr().out
        assert code_flow == 0  # replace with nothing dirty: flow tier clean
        assert "det-" not in out_flow
        assert code_syntax == 1
        assert "det-unseeded-random" in out_syntax
        assert "flow-" not in out_syntax

    def test_legacy_engine_flag_warns_and_aliases_tier(self, tmp_path, capsys):
        kernel = tmp_path / "kernel" / "mod.py"
        kernel.parent.mkdir(parents=True)
        kernel.write_text(
            "import random\n\ndef pick(ways):\n    return random.randrange(ways)\n",
            encoding="utf-8",
        )
        with pytest.warns(DeprecationWarning, match="--tier"):
            code = main(["check", str(tmp_path), "--engine", "syntax"])
        out = capsys.readouterr().out
        assert code == 1
        assert "det-unseeded-random" in out
        # Both spellings at once is a usage error, not a silent pick.
        code = main(["check", str(tmp_path), "--tier", "flow", "--engine", "syntax"])
        assert code == 2

    def test_sarif_output_schema(self, tmp_path, capsys):
        target = tmp_path / "experiments" / "mod.py"
        target.parent.mkdir(parents=True)
        target.write_text(
            "import os\n"
            "def publish(tmp, final):\n"
            "    tmp.write_text('x')\n"
            "    os.replace(tmp, final)\n",
            encoding="utf-8",
        )
        code = main(["check", str(tmp_path), "--format", "sarif"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["version"] == "2.1.0"
        run = payload["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-sim-check"
        (sarif_result,) = run["results"]
        assert sarif_result["ruleId"] == "flow-fsync-order"
        assert sarif_result["level"] == "error"
        region = sarif_result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 4
        rule_meta = run["tool"]["driver"]["rules"]
        assert any(rule["id"] == "flow-fsync-order" for rule in rule_meta)

    def test_baseline_roundtrip(self, tmp_path, capsys):
        source_dir = tmp_path / "src" / "experiments"
        source_dir.mkdir(parents=True)
        module = source_dir / "mod.py"
        module.write_text(
            "import os\n"
            "def publish(tmp, final):\n"
            "    tmp.write_text('x')\n"
            "    os.replace(tmp, final)\n",
            encoding="utf-8",
        )
        baseline = tmp_path / "lint-baseline.json"

        # 1. Accept the current debt.
        assert main(
            ["check", str(source_dir), "--write-baseline", str(baseline)]
        ) == 0
        capsys.readouterr()
        assert json.loads(baseline.read_text())["findings"]

        # 2. Baselined finding no longer gates.
        assert main(["check", str(source_dir), "--baseline", str(baseline)]) == 0
        assert "absorbed" in capsys.readouterr().out

        # 3. A new finding still gates.
        module.write_text(
            module.read_text(encoding="utf-8")
            + "def publish2(tmp, final):\n"
            "    tmp.write_text('x')\n"
            "    os.replace(tmp, final)\n",
            encoding="utf-8",
        )
        assert main(["check", str(source_dir), "--baseline", str(baseline)]) == 1
        out = capsys.readouterr().out
        assert "publish2" in out

        # 4. Fixing the accepted finding reports the entry as stale.
        module.write_text(
            "import os\n"
            "def publish(tmp, final):\n"
            "    with open(tmp, 'w') as handle:\n"
            "        handle.write('x')\n"
            "        os.fsync(handle.fileno())\n"
            "    os.replace(tmp, final)\n",
            encoding="utf-8",
        )
        assert main(["check", str(source_dir), "--baseline", str(baseline)]) == 0
        assert "stale baseline entry" in capsys.readouterr().out
