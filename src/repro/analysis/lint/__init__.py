"""Simulator-invariant static analysis (``repro-sim check``).

Two tiers of AST-based analysis enforce, at the source level, the
invariants the test suite can only sample dynamically.

**Syntactic tier** — per-construct pattern rules:

- **Determinism** (:mod:`repro.analysis.lint.determinism`): simulation
  results must be bit-identical across runs, hosts, and worker counts, so
  kernel modules must not draw from global RNG state, read clocks or the
  environment, iterate sets, or key maps by ``id()``.
- **Bit widths and storage budget**
  (:mod:`repro.analysis.lint.bitwidth`): every modeled register is masked
  to a declared width, every saturating counter is clamped, and the
  storage model still reproduces the paper's Table I accounting.
- **Policy contracts** (:mod:`repro.analysis.lint.contracts`): every
  registered replacement policy is a concrete, signature-compatible
  :class:`~repro.cache.policy_api.ReplacementPolicy`, and policy modules
  never mutate module state at call time.

**Flow tier** (``flow-*`` rules, CFG + abstract interpretation over
:mod:`repro.analysis.flow`):

- **Width proofs** (:mod:`repro.analysis.lint.flow_bitwidth`): interval
  analysis proves each kernel field stays within its inferred width and
  statically re-verifies Table I at the paper configuration.
- **State coverage** (:mod:`repro.analysis.lint.flow_state`): every
  mutated kernel field is visible to ``state_digest()``; delta counters
  are reset by the effective ``sync()`` chain.
- **Crash-safety ordering** (:mod:`repro.analysis.lint.flow_protocol`):
  fsync-before-rename, journal-append-before-cache-put, and
  lease-release-before-return over ``repro/experiments``.

Findings are suppressed per line with ``# repro: allow(<rule-id>)``; see
``docs/static-analysis.md`` for the rule catalogue and how to add rules.
"""

from repro.analysis.lint.core import (
    Finding,
    LintEngine,
    LintResult,
    ProjectContext,
    ProjectRule,
    Rule,
    SourceFile,
    all_rules,
    register_rule,
)
from repro.analysis.lint.reporters import (
    render_json,
    render_rule_list,
    render_sarif,
    render_text,
)

__all__ = [
    "Finding",
    "LintEngine",
    "LintResult",
    "ProjectContext",
    "ProjectRule",
    "Rule",
    "SourceFile",
    "all_rules",
    "register_rule",
    "render_json",
    "render_rule_list",
    "render_sarif",
    "render_text",
]
