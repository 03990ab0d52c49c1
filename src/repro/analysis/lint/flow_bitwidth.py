"""``flow-width-*`` rules: prove bit-width budgets by abstract interpretation.

Where the syntactic ``bits-*`` rules of the first lint tier pattern-match
mask idioms, these rules *prove* them: every kernel field with an
inferable width (a masked store, a ``min``-clamp against a constant, a
boolean-valued expression) gets a declared interval, and every store into
that field is checked against it by the interval interpreter of
:mod:`repro.analysis.flow.intervals`.

The proof is inductive and instantiated at the paper configuration:

1. **Fact pass** — each class's stores are interpreted under the
   hypothesis that every field is non-negative.  A store whose value
   lands in a finite ``[0, N]`` (mask/clamp/modulo/bool results, guarded
   saturating increments) contributes a *width fact*; the field's
   declared bound is the join of its facts.  Fields with no facts are
   untracked — the rule proves widths only where the code declares one.
2. **Verification pass** — re-interpret every method with loads of
   declared fields assuming their bound (the induction hypothesis) and
   check that each store re-establishes it.  The first escaping store is
   the finding.

Closures defined inside a method — the kernels' chunk executors — are
analyzed as part of their class, in the enclosing method's scope: its
alias map (the alias pre-pass already walks the closure bodies) and its
constants, including locals bound once to a configuration constant.

Constant resolution is *name-keyed at the paper config*: attribute
chains ending in a ``GHRPConfig.paper_exact()`` parameter name
(``config.signature_bits``, ``bank.counter_max``, ``state.sig_mask``)
evaluate to that configuration's value, so the widths proven are exactly
the Table I widths.  Cross-class state is linked through annotated
``__init__`` parameters (``state: GHRPKernelState`` imports the state
class's proven bounds under the ``self.state.`` prefix).

Exemptions (documented, deliberate): ``None`` stores (invalid-entry
sentinels), re-seeds that copy an untracked reference field verbatim
(``self.spec = predictor.history.speculative``), and tuple-unpacking
targets, whose values the interpreter cannot split.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, fields as dataclass_fields

from repro.analysis.flow.intervals import Interval, IntervalAnalyzer, StoreEvent
from repro.analysis.lint.core import (
    Finding,
    ProjectContext,
    ProjectRule,
    Rule,
    SourceFile,
    register_rule,
)

__all__ = ["ClassWidths", "harvest_module", "width_env"]

_TOP = Interval.top()
_NONNEG = Interval(0, None)


# ----------------------------------------------------------------------
# Constant environment: the paper configuration, keyed by attribute name.
# ----------------------------------------------------------------------
_WIDTH_ENV: dict[str, int] | None = None


def width_env() -> dict[str, int]:
    """Integer constants of ``GHRPConfig.paper_exact()`` by final name.

    Includes the dataclass parameters, the derived properties, and the
    precomputed mask fields the kernels cache (``sig_mask`` & friends).
    Name-keyed resolution means a chain like ``bank.counter_max`` or
    ``self.state.pc_shift`` resolves through any number of hops — the
    proof is pinned to the paper configuration, which is what Table I
    budgets.
    """
    global _WIDTH_ENV
    if _WIDTH_ENV is not None:
        return _WIDTH_ENV
    try:
        from repro.core.config import GHRPConfig
    except ImportError:  # pragma: no cover - repro is importable in-tree
        _WIDTH_ENV = {}
        return _WIDTH_ENV
    config = GHRPConfig.paper_exact()
    env: dict[str, int] = {}
    for spec in dataclass_fields(config):
        value = getattr(config, spec.name)
        if isinstance(value, int) and not isinstance(value, bool):
            env[spec.name] = value
    env["counter_max"] = config.counter_max
    env["table_entries"] = config.table_entries
    env["history_depth"] = config.history_depth
    env["index_bits"] = config.table_index_bits
    sig_mask = (1 << config.signature_bits) - 1
    history_mask = (1 << config.history_bits) - 1
    pc_mask = (1 << config.pc_bits_per_access) - 1
    env.update(
        {
            "sig_mask": sig_mask,
            "_sig_mask": sig_mask,
            "history_mask": history_mask,
            "_history_mask": history_mask,
            "pc_mask": pc_mask,
            "_pc_mask": pc_mask,
        }
    )
    _WIDTH_ENV = env
    return env


def _module_constants(tree: ast.Module) -> dict[str, int]:
    """Top-level ``NAME = <int literal>`` bindings (``_U64`` and friends)."""
    constants: dict[str, int] = {}
    for stmt in tree.body:
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, int)
            and not isinstance(stmt.value.value, bool)
        ):
            constants[stmt.targets[0].id] = stmt.value.value
    return constants


# ----------------------------------------------------------------------
# Per-class harvesting.
# ----------------------------------------------------------------------
@dataclass
class _Method:
    func: ast.FunctionDef | ast.AsyncFunctionDef
    aliases: dict[str, str]
    constants: dict[str, int]


@dataclass
class ClassWidths:
    """Everything the width pass learns about one class."""

    node: ast.ClassDef
    bounds: dict[str, Interval] = field(default_factory=dict)
    summaries: dict[str, Interval] = field(default_factory=dict)
    escapes: list[tuple[ast.stmt, str, Interval, Interval]] = field(
        default_factory=list
    )


def _is_pure_load(node: ast.expr) -> bool:
    """A bare Name/Attribute/Subscript chain — a copy, not a computation."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return isinstance(node, ast.Name)


def _class_methods(node: ast.ClassDef) -> list[ast.FunctionDef | ast.AsyncFunctionDef]:
    return [
        item
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def _nested_functions(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> list[ast.FunctionDef | ast.AsyncFunctionDef]:
    """Closures defined inside ``func`` (the kernels' chunk executors)."""
    found: list[ast.FunctionDef | ast.AsyncFunctionDef] = []

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append(child)
                visit(child)
            elif not isinstance(child, (ast.ClassDef, ast.Lambda)):
                visit(child)

    visit(func)
    return found


def _bound_names(func: ast.FunctionDef | ast.AsyncFunctionDef) -> dict[str, int]:
    """How many times each plain name is bound anywhere in ``func``."""
    counts: dict[str, int] = {}

    def bind(target: ast.expr) -> None:
        for node in ast.walk(target):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                counts[node.id] = counts.get(node.id, 0) + 1

    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                bind(target)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign, ast.For, ast.AsyncFor)):
            bind(node.target)
        elif isinstance(node, ast.comprehension):
            bind(node.target)
        elif isinstance(node, ast.arguments):
            for arg in node.posonlyargs + node.args + node.kwonlyargs:
                counts[arg.arg] = counts.get(arg.arg, 0) + 1
    return counts


def _prepare_method(
    func: ast.FunctionDef | ast.AsyncFunctionDef, module_constants: dict[str, int]
) -> _Method:
    aliases = IntervalAnalyzer.collect_aliases(func)
    resolver = IntervalAnalyzer(aliases=aliases)
    env = width_env()
    constants = dict(module_constants)
    for node in ast.walk(func):
        if isinstance(node, ast.Attribute) and node.attr in env:
            key = resolver.resolve_key(node)
            if key is not None:
                constants[key] = env[node.attr]
    # A local bound exactly once to a configuration constant is that
    # constant everywhere it is visible — in particular inside the
    # method's closures, which read it as a free variable.
    bound = _bound_names(func)
    for stmt in func.body:
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and isinstance(stmt.value, ast.Attribute)
            and stmt.value.attr in env
            and bound.get(stmt.targets[0].id) == 1
        ):
            constants[stmt.targets[0].id] = env[stmt.value.attr]
    return _Method(func=func, aliases=aliases, constants=constants)


def _closure_methods(method: _Method) -> list[_Method]:
    """The method's closures, analyzed in its scope: the enclosing
    method's aliases (its alias pre-pass already walks the closure
    bodies) and constants."""
    return [
        _Method(func=inner, aliases=method.aliases, constants=method.constants)
        for inner in _nested_functions(method.func)
    ]


def _store_keys(method: _Method) -> set[str]:
    """All ``self.``-rooted keys the method stores into."""
    resolver = IntervalAnalyzer(aliases=method.aliases)
    keys: set[str] = set()

    def record(target: ast.expr) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                record(element)
            return
        if isinstance(target, ast.Starred):
            record(target.value)
            return
        key = resolver.resolve_key(target)
        if key is not None and key.startswith("self."):
            keys.add(key)

    for node in ast.walk(method.func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                record(target)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            record(node.target)
    return keys


def _return_summary(
    method: _Method,
    hypothesis: dict[str, Interval],
    summaries: dict[str, Interval] | None = None,
) -> Interval:
    """Join of the method's return-expression intervals (coarse, syntactic
    locals stay TOP — enough for bool votes and masked signatures)."""
    from repro.analysis.flow.domains import Env

    analyzer = IntervalAnalyzer(
        constants=method.constants,
        field_bounds=hypothesis,
        aliases=method.aliases,
        call_summaries=summaries or {},
    )
    env: "Env[Interval]" = Env(_TOP)
    result: Interval | None = None

    def visit(node: ast.AST) -> None:
        nonlocal result
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return
        if isinstance(node, ast.Return) and node.value is not None:
            value = analyzer.eval(node.value, env)
            result = value if result is None else result.join(value)
        for child in ast.iter_child_nodes(node):
            visit(child)

    for stmt in method.func.body:
        visit(stmt)
    return _TOP if result is None else result


def _harvest_class(
    node: ast.ClassDef,
    module_constants: dict[str, int],
    injected_bounds: dict[str, Interval],
    injected_summaries: dict[str, Interval],
) -> ClassWidths:
    methods = [_prepare_method(func, module_constants) for func in _class_methods(node)]
    # Stores in chunk-executor closures are stores of the class too.
    bodies = methods + [
        closure for method in methods for closure in _closure_methods(method)
    ]

    candidates: set[str] = set()
    for method in methods:
        candidates.update(_store_keys(method))

    hypothesis: dict[str, Interval] = {key: _NONNEG for key in candidates}
    hypothesis.update(injected_bounds)

    # Return summaries under the non-negative hypothesis (two rounds so
    # summaries referencing sibling methods settle).
    summaries: dict[str, Interval] = dict(injected_summaries)
    for _ in range(2):
        for method in methods:
            summaries[f"self.{method.func.name}"] = _return_summary(
                method, hypothesis, summaries
            )

    # ------------------------------------------------------------------
    # Fact pass: joins of provably-finite stores.
    # ------------------------------------------------------------------
    facts: dict[str, Interval] = {}

    def collect(event: StoreEvent) -> None:
        if event.key in injected_bounds:
            return  # another class's invariant; verified there
        expr = event.value_expr
        if expr is None or isinstance(expr, ast.Constant):
            return
        if _is_pure_load(expr):
            # A verbatim copy of another field is a re-seed, not a width
            # declaration.  A *local* is fine: locals holding masked
            # computations carry the width (``row[way] = new_signature``),
            # while hypothesis-tainted locals are unbounded above under
            # the [0, inf) hypothesis and can produce no fact.
            loaded = fact_resolver.resolve_key(expr)
            if loaded is None or loaded.startswith("self."):
                return
        value = event.value
        if value.empty or value.lo is None or value.lo < 0 or value.hi is None:
            return
        fact = Interval(0, value.hi)
        facts[event.key] = facts.get(event.key, Interval.bottom()).join(fact)

    for method in bodies:
        analyzer = IntervalAnalyzer(
            constants=method.constants,
            field_bounds=hypothesis,
            aliases=method.aliases,
            call_summaries=summaries,
        )
        fact_resolver = analyzer
        analyzer.on_store = collect
        analyzer.run(method.func)

    result = ClassWidths(node=node, bounds=dict(facts))

    # ------------------------------------------------------------------
    # Verification pass: loads assume the declared bound; every store
    # must re-establish it.
    # ------------------------------------------------------------------
    bounds: dict[str, Interval] = {**facts, **injected_bounds}
    seen: set[tuple[int, str]] = set()

    def verify(event: StoreEvent) -> None:
        bound = bounds[event.key]
        expr = event.value_expr
        if expr is None:
            return  # tuple unpacking — cannot split the value
        if isinstance(expr, ast.Constant) and expr.value is None:
            return  # invalid-entry sentinel
        if _is_pure_load(expr):
            loaded = current_resolver.resolve_key(expr)
            if loaded is not None and loaded not in bounds and loaded not in current_constants:
                return  # re-seed from an untracked reference field
        if event.value.empty or bound.contains(event.value):
            return
        anchor = (getattr(event.stmt, "lineno", 0), event.key)
        if anchor in seen:
            return
        seen.add(anchor)
        result.escapes.append((event.stmt, event.key, bound, event.value))

    for method in bodies:
        analyzer = IntervalAnalyzer(
            constants=method.constants,
            field_bounds=bounds,
            aliases=method.aliases,
            call_summaries=summaries,
        )
        current_resolver = analyzer
        current_constants = method.constants
        analyzer.on_store = verify
        analyzer.run(method.func)

    # Recompute return summaries under the *proven* bounds so dependent
    # classes (annotated-param injection) see e.g. predict() -> [0, 1].
    for method in methods:
        result.summaries[f"self.{method.func.name}"] = _return_summary(
            method, dict(bounds), summaries
        )
    return result


def harvest_module(tree: ast.Module) -> dict[str, ClassWidths]:
    """Harvest every class of a module, in definition order, threading
    proven bounds through annotated ``__init__`` parameters."""
    module_constants = _module_constants(tree)
    harvested: dict[str, ClassWidths] = {}
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        injected_bounds: dict[str, Interval] = {}
        injected_summaries: dict[str, Interval] = {}
        for f_name, class_name in _annotated_param_fields(node):
            donor = harvested.get(class_name)
            if donor is None:
                continue
            prefix = f"self.{f_name}."
            for key, bound in donor.bounds.items():
                if key.startswith("self."):
                    injected_bounds[prefix + key[len("self.") :]] = bound
            for key, summary in donor.summaries.items():
                if key.startswith("self."):
                    injected_summaries[prefix + key[len("self.") :]] = summary
        harvested[node.name] = _harvest_class(
            node, module_constants, injected_bounds, injected_summaries
        )
    return harvested


def _annotated_param_fields(node: ast.ClassDef) -> list[tuple[str, str]]:
    """``(field, class_name)`` pairs for ``self.f = p`` in ``__init__``
    where parameter ``p`` is annotated with a class name."""
    init = next(
        (
            item
            for item in node.body
            if isinstance(item, ast.FunctionDef) and item.name == "__init__"
        ),
        None,
    )
    if init is None:
        return []
    annotations: dict[str, str] = {}
    for arg in list(init.args.args) + list(init.args.kwonlyargs):
        annotation = arg.annotation
        if isinstance(annotation, ast.Name):
            annotations[arg.arg] = annotation.id
        elif isinstance(annotation, ast.Attribute):
            annotations[arg.arg] = annotation.attr
        elif isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            annotations[arg.arg] = annotation.value.rsplit(".", 1)[-1]
    linked: list[tuple[str, str]] = []
    for stmt in init.body:
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Attribute)
            and isinstance(stmt.targets[0].value, ast.Name)
            and stmt.targets[0].value.id == "self"
            and isinstance(stmt.value, ast.Name)
            and stmt.value.id in annotations
        ):
            linked.append((stmt.targets[0].attr, annotations[stmt.value.id]))
    return linked


# ----------------------------------------------------------------------
# Rules.
# ----------------------------------------------------------------------
@register_rule
class WidthEscapeRule(Rule):
    """Interval-prove that kernel fields stay within their inferred widths."""

    id = "flow-width-escape"
    description = (
        "a store into a field with an inferable bit width (masked, clamped, "
        "or boolean stores elsewhere in the class) may escape that width; "
        "widths are proven inductively at the paper configuration"
    )
    severity = "error"

    def check_file(self, source: SourceFile, ctx: ProjectContext):
        if not source.is_kernel or source.tree is None:
            return
        for widths in harvest_module(source.tree).values():
            for stmt, key, bound, value in widths.escapes:
                yield self.finding(
                    source,
                    stmt,
                    f"store into {key} may escape its inferred width "
                    f"{bound} (value lands in {value}); every other store "
                    "establishes the bound, so this one breaks the "
                    "induction — mask or clamp it",
                )


@register_rule
class Table1WidthRule(ProjectRule):
    """Statically re-verify Table I: the proven dynamic ranges of the GHRP
    kernel state must match the bit widths the storage accounting charges."""

    id = "flow-table1-width"
    description = (
        "the interval-proven ranges of the GHRP kernel (counters, path "
        "histories, per-block signatures, prediction bits) must occupy "
        "exactly the bit widths Table I budgets for them"
    )
    severity = "error"

    #: (class, field key, config attribute giving the bit width, label)
    EXPECTED = (
        ("GHRPCacheKernel", "self.state.tables[*]", "counter_bits", "table counters"),
        ("GHRPKernelState", "self.spec", "history_bits", "speculative path history"),
        ("GHRPKernelState", "self.retired", "history_bits", "retired path history"),
        ("GHRPCacheKernel", "self._signatures[*]", "signature_bits", "per-block signatures"),
        ("GHRPCacheKernel", "self._pred_dead[*]", None, "per-block prediction bits"),
    )

    def check_project(self, ctx: ProjectContext):
        try:
            from repro.core.config import GHRPConfig
        except ImportError:  # pragma: no cover - repro is importable in-tree
            return
        config = GHRPConfig.paper_exact()
        source = next(
            (
                candidate
                for candidate in ctx.files
                if candidate.path.name == "ghrp.py"
                and "kernel" in candidate.dir_names
                and candidate.tree is not None
            ),
            None,
        )
        if source is None:
            return
        harvested = harvest_module(source.tree)
        for class_name, key, width_attr, label in self.EXPECTED:
            widths = harvested.get(class_name)
            if widths is None:
                yield Finding(
                    rule=self.id,
                    path=str(source.path),
                    line=1,
                    col=1,
                    message=f"class {class_name} not found while re-verifying Table I",
                    severity=self.severity,
                )
                continue
            expected_bits = 1 if width_attr is None else getattr(config, width_attr)
            expected_hi = (1 << expected_bits) - 1
            bound = widths.bounds.get(key)
            anchor = widths.node
            if bound is None or bound.hi is None:
                yield Finding(
                    rule=self.id,
                    path=str(source.path),
                    line=anchor.lineno,
                    col=anchor.col_offset + 1,
                    message=(
                        f"no provable width for {label} ({class_name}.{key}): "
                        f"Table I budgets {expected_bits} bit(s) but the "
                        "interval pass found no bounding store"
                    ),
                    severity=self.severity,
                )
            elif bound.hi != expected_hi:
                yield Finding(
                    rule=self.id,
                    path=str(source.path),
                    line=anchor.lineno,
                    col=anchor.col_offset + 1,
                    message=(
                        f"{label} ({class_name}.{key}) proven to range over "
                        f"{bound} = {max(bound.hi, 1).bit_length()} bit(s), but "
                        f"Table I budgets {expected_bits} bit(s) "
                        f"([0, {expected_hi}]) — the storage accounting and "
                        "the implementation disagree"
                    ),
                    severity=self.severity,
                )
