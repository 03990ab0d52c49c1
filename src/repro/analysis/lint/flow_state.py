"""``flow-digest-coverage`` / ``flow-delta-sync``: kernel state audits.

Divergence sentinels and crash bundles are only as good as
``state_digest()``: a field the kernel mutates but the digest never reads
is a blind spot where fast-path state can drift from the reference
without tripping a sentinel.  These rules close the loop structurally:

- **flow-digest-coverage** — for every kernel class that implements a
  digest hook (``state_digest``/``digest``), the set of ``self.`` roots
  its methods mutate (assignments, ``+=``, container mutator calls,
  stores through aliased rows) must be *read* by the digest, directly or
  through the methods it calls (``self._base_digest()``, ``super()``
  chains, ``self.state.digest()`` counts as reading ``self.state``).
- **flow-delta-sync** — delta counters (``_d_*``/``d_*``/``delta_*``)
  accumulated by the fast path must be reset by the class's effective
  ``sync()`` (resolved through the base-class chain, following
  ``super().sync()``), keeping sync idempotent.

Exemptions:

- fields assigned a *bare constructor parameter* in ``__init__``
  (``self.cache = cache``) are references to reference-side objects —
  their internals are the reference engine's state, not the kernel's, so
  mutations through them (``self.cache.now += ...``) are not digest
  material.
- window-binding machinery (:data:`WINDOW_BINDING_FIELDS`): the chunked
  batch engine rebinds executor closures at every ``begin_window()`` and
  tears them down at every barrier.  None of it is kernel *state* —
  simulation state buffered inside an open window's closures is flushed
  into digest-visible fields by ``sync()`` — so the digest rightly never
  reads it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analysis.flow.intervals import IntervalAnalyzer
from repro.analysis.lint.core import (
    ProjectContext,
    Rule,
    SourceFile,
    register_rule,
)

__all__ = [
    "MUTATOR_METHODS",
    "WINDOW_BINDING_FIELDS",
    "class_chain",
    "project_class_map",
]

#: Method names that mutate their receiver in place.
MUTATOR_METHODS = frozenset(
    {
        "append",
        "add",
        "update",
        "extend",
        "insert",
        "pop",
        "popitem",
        "clear",
        "setdefault",
        "remove",
        "discard",
        "sort",
        "reverse",
    }
)

_DIGEST_NAMES = ("state_digest", "digest")
_DELTA_PREFIXES = ("_d_", "d_", "delta_", "_delta_")

#: Per-window binding machinery of the chunked batch engine: the flush of
#: the executor closures bound by ``begin_window()``.  Rebound at every
#: window and cleared at barriers; never simulation state, so never
#: digest material.
WINDOW_BINDING_FIELDS = frozenset({"_window_flush"})


# ----------------------------------------------------------------------
# Project class map and base-chain resolution.
# ----------------------------------------------------------------------
def project_class_map(
    ctx: ProjectContext,
) -> dict[str, tuple[ast.ClassDef, SourceFile]]:
    """First definition of each class name across the scanned files."""
    class_map: dict[str, tuple[ast.ClassDef, SourceFile]] = {}
    for source in ctx.files:
        if source.tree is None:
            continue
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ClassDef) and node.name not in class_map:
                class_map[node.name] = (node, source)
    return class_map


def _base_names(node: ast.ClassDef) -> list[str]:
    names: list[str] = []
    for base in node.bases:
        if isinstance(base, ast.Name):
            names.append(base.id)
        elif isinstance(base, ast.Attribute):
            names.append(base.attr)
    return names


def class_chain(
    node: ast.ClassDef, class_map: dict[str, tuple[ast.ClassDef, SourceFile]]
) -> list[ast.ClassDef]:
    """Linearized single-inheritance chain, most-derived first.

    Follows the first resolvable base at each level — the kernel
    hierarchy is single-inheritance, so this is its MRO.
    """
    chain = [node]
    seen = {node.name}
    current = node
    while True:
        nxt = next(
            (
                class_map[name][0]
                for name in _base_names(current)
                if name in class_map and name not in seen
            ),
            None,
        )
        if nxt is None:
            return chain
        chain.append(nxt)
        seen.add(nxt.name)
        current = nxt


def _own_method(
    node: ast.ClassDef, name: str
) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and item.name == name:
            return item
    return None


def _resolve_method(
    chain: list[ast.ClassDef], name: str, start: int = 0
) -> tuple[ast.FunctionDef | ast.AsyncFunctionDef, int] | None:
    for index in range(start, len(chain)):
        found = _own_method(chain[index], name)
        if found is not None:
            return found, index
    return None


# ----------------------------------------------------------------------
# Mutation and read collection.
# ----------------------------------------------------------------------
def _root_of(key: str | None) -> str | None:
    """``self.tables[*].signature`` -> ``tables``; non-self keys -> None."""
    if key is None or not key.startswith("self."):
        return None
    rest = key[len("self.") :]
    for index, char in enumerate(rest):
        if char in ".[":
            return rest[:index]
    return rest


@dataclass
class _Mutation:
    root: str
    method: str
    node: ast.AST


def _method_mutations(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> list[_Mutation]:
    """``self.``-rooted mutations of one method, alias-resolved."""
    resolver = IntervalAnalyzer(aliases=IntervalAnalyzer.collect_aliases(func))
    mutations: list[_Mutation] = []

    def record(target: ast.expr, anchor: ast.AST) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                record(element, anchor)
            return
        if isinstance(target, ast.Starred):
            record(target.value, anchor)
            return
        if isinstance(target, ast.Name):
            # Rebinding a local never mutates a field, even when the
            # local aliases one (``obs = self.obs`` defines the alias;
            # only writes *through* it — ``obs.foo = x`` — mutate).
            return
        root = _root_of(resolver.resolve_key(target))
        if root is not None:
            mutations.append(_Mutation(root=root, method=func.name, node=anchor))

    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                record(target, node)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            record(node.target, node)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATOR_METHODS
        ):
            root = _root_of(resolver.resolve_key(node.func.value))
            if root is not None:
                mutations.append(_Mutation(root=root, method=func.name, node=node))
    return mutations


def _bare_param_fields(node: ast.ClassDef) -> set[str]:
    """Fields ``__init__`` assigns a constructor parameter verbatim."""
    init = _own_method(node, "__init__")
    if init is None:
        return set()
    params = {arg.arg for arg in list(init.args.args) + list(init.args.kwonlyargs)}
    exempt: set[str] = set()
    for stmt in init.body:
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Attribute)
            and isinstance(stmt.targets[0].value, ast.Name)
            and stmt.targets[0].value.id == "self"
            and isinstance(stmt.value, ast.Name)
            and stmt.value.id in params
        ):
            exempt.add(stmt.targets[0].attr)
    return exempt


def _digest_reads(
    chain: list[ast.ClassDef],
    method: ast.FunctionDef | ast.AsyncFunctionDef,
    level: int,
    covered: set[str],
    visited: set[tuple[int, str]],
) -> None:
    """Roots read by a digest method, following self/super calls."""
    key = (level, method.name)
    if key in visited:
        return
    visited.add(key)
    for node in ast.walk(method):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            covered.add(node.attr)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            callee = node.func
            if isinstance(callee.value, ast.Name) and callee.value.id == "self":
                resolved = _resolve_method(chain, callee.attr, start=0)
                if resolved is not None:
                    _digest_reads(chain, resolved[0], resolved[1], covered, visited)
            elif (
                isinstance(callee.value, ast.Call)
                and isinstance(callee.value.func, ast.Name)
                and callee.value.func.id == "super"
            ):
                resolved = _resolve_method(chain, callee.attr, start=level + 1)
                if resolved is not None:
                    _digest_reads(chain, resolved[0], resolved[1], covered, visited)


def _is_abstract_digest(method: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """A digest that only raises (the base-class contract stub)."""
    body = [
        stmt
        for stmt in method.body
        if not (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))
    ]
    return all(isinstance(stmt, ast.Raise) for stmt in body) and bool(body)


# ----------------------------------------------------------------------
# Rules.
# ----------------------------------------------------------------------
@register_rule
class DigestCoverageRule(Rule):
    """Every mutated kernel field must be visible to the state digest."""

    id = "flow-digest-coverage"
    description = (
        "a kernel class mutates a self. field its state_digest()/digest() "
        "never reads (directly or via called helpers) — the divergence "
        "sentinel cannot see drift in that field"
    )
    severity = "error"

    def check_file(self, source: SourceFile, ctx: ProjectContext):
        if not source.is_kernel or source.tree is None:
            return
        class_map = project_class_map(ctx)
        for node in source.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            digest = next(
                (
                    found
                    for name in _DIGEST_NAMES
                    if (found := _own_method(node, name)) is not None
                ),
                None,
            )
            if digest is None or _is_abstract_digest(digest):
                continue
            chain = class_chain(node, class_map)
            covered: set[str] = set()
            _digest_reads(chain, digest, 0, covered, set())
            exempt = _bare_param_fields(node) | WINDOW_BINDING_FIELDS
            # sync() is the designated kernel->reference flush point: its
            # writes land on reference-side aggregates by design, and its
            # delta resets are audited by flow-delta-sync.
            skip_methods = {"__init__", digest.name, "sync"}
            reported: set[str] = set()
            for item in node.body:
                if (
                    not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    or item.name in skip_methods
                ):
                    continue
                for mutation in _method_mutations(item):
                    root = mutation.root
                    if root in covered or root in exempt or root in reported:
                        continue
                    reported.add(root)
                    yield self.finding(
                        source,
                        mutation.node,
                        f"{node.name}.{mutation.method} mutates self.{root} "
                        f"but {digest.name}() never reads it — the field is "
                        "invisible to divergence sentinels and crash "
                        "bundles; export it in the digest (or drop the "
                        "dead state)",
                    )


@register_rule
class DeltaSyncRule(Rule):
    """Delta counters mutated by the fast path must be reset in sync()."""

    id = "flow-delta-sync"
    description = (
        "a delta counter (_d_*/d_*/delta_*) is accumulated outside sync() "
        "but the class's effective sync() (including super().sync() "
        "chains) never reassigns it — sync would stop being idempotent"
    )
    severity = "error"

    def check_file(self, source: SourceFile, ctx: ProjectContext):
        if not source.is_kernel or source.tree is None:
            return
        class_map = project_class_map(ctx)
        for node in source.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            chain = class_chain(node, class_map)
            reset = self._sync_resets(chain)
            reported: set[str] = set()
            for item in node.body:
                if (
                    not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    or item.name in {"__init__", "sync"}
                ):
                    continue
                for mutation in _method_mutations(item):
                    root = mutation.root
                    if not root.startswith(_DELTA_PREFIXES) or root in reported:
                        continue
                    if reset is not None and root in reset:
                        continue
                    reported.add(root)
                    detail = (
                        "the class resolves no sync() at all"
                        if reset is None
                        else "its effective sync() never reassigns it"
                    )
                    yield self.finding(
                        source,
                        mutation.node,
                        f"{node.name}.{mutation.method} accumulates delta "
                        f"counter self.{root} but {detail} — flushing twice "
                        "would double-count it",
                    )

    @staticmethod
    def _sync_resets(chain: list[ast.ClassDef]) -> set[str] | None:
        """Fields reassigned by the effective sync() chain, or None when
        no class in the chain defines sync()."""
        resolved = _resolve_method(chain, "sync")
        if resolved is None:
            return None
        resets: set[str] = set()
        method, level = resolved
        while True:
            follows_super = False
            for inner in ast.walk(method):
                if (
                    isinstance(inner, ast.Assign)
                    or isinstance(inner, ast.AugAssign)
                    or isinstance(inner, ast.AnnAssign)
                ):
                    targets = (
                        inner.targets if isinstance(inner, ast.Assign) else [inner.target]
                    )
                    for target in targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            resets.add(target.attr)
                if (
                    isinstance(inner, ast.Call)
                    and isinstance(inner.func, ast.Attribute)
                    and inner.func.attr == "sync"
                    and isinstance(inner.func.value, ast.Call)
                    and isinstance(inner.func.value.func, ast.Name)
                    and inner.func.value.func.id == "super"
                ):
                    follows_super = True
            if not follows_super:
                return resets
            nxt = _resolve_method(chain, "sync", start=level + 1)
            if nxt is None:
                return resets
            method, level = nxt
