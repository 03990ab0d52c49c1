"""Policy-contract conformance rules.

The cache engine is policy-agnostic: every policy the registry can build
must be a drop-in :class:`~repro.cache.policy_api.ReplacementPolicy`.
Two invariants keep that true:

- ``contract-policy-abc`` (project rule): every factory registered in
  :mod:`repro.policies.registry` builds a concrete ``ReplacementPolicy``
  whose overrides keep the ABC's signatures — same parameter names in the
  same order, any extra parameters defaulted.  A "broadened" override
  (renamed/extra required parameters) works under the one caller that
  grew with it and silently breaks every other engine call site.
- ``contract-module-state`` (per-file): policy modules must not mutate
  module-level state at call time.  Two policy instances in one process
  (a set-dueling pair, parallel grid workers after ``fork``) must not
  couple through a shared global; registration-time mutation of an
  explicit registry is the one sanctioned exception (suppressed where it
  happens, with the reason).
- ``contract-atomic-write`` (per-file): experiment-layer code that
  persists JSON must go through the durable helper
  (:func:`repro.experiments.cellcache.atomic_write_json`) or replicate
  its tmp + fsync + ``os.replace`` discipline; a bare
  ``open(path, "w")`` + ``json.dump`` tears under ``kill -9`` and a
  torn result file silently loses computed cells.  A sanctioned
  bare-open site would be suppressed where it happens, with the reason.
- ``contract-fast-path`` (project rule): registering a
  :class:`~repro.kernel.base.BatchKernel` with ``@batch_kernel`` *is* the
  fast-path opt-in, so every registry entry must be coherent: the kernel's
  ``policy_class`` back-reference must match the registry key, the policy
  must still pass the reference-path ABC contract (the fast path falls
  back to — and is differentially tested against — the reference engine,
  so opting in never excuses breaking it), and the kernel must
  implement the ``state_digest()`` sentinel hook: runtime verification,
  crash capture, and repro bundles all read kernel state through it, so
  a kernel without it turns the first divergence into an opaque
  ``NotImplementedError``.
"""

from __future__ import annotations

import ast
import inspect
from dataclasses import replace
from typing import Iterable, Iterator

from repro.analysis.lint.core import (
    Finding,
    ProjectContext,
    ProjectRule,
    Rule,
    SourceFile,
    register_rule,
    terminal_name,
)

__all__ = ["PolicyAbcRule", "ModuleStateRule", "FastPathRule", "AtomicWriteRule"]


@register_rule
class PolicyAbcRule(ProjectRule):
    id = "contract-policy-abc"
    description = (
        "every registered policy factory must build a concrete "
        "ReplacementPolicy whose overrides keep the ABC's signatures"
    )

    def check_project(self, ctx: ProjectContext) -> Iterator[Finding]:
        from repro.cache.policy_api import ReplacementPolicy
        from repro.policies import registry

        for name in registry.available_policies():
            factory = registry._REGISTRY[name]
            if isinstance(factory, type):
                cls = factory
            else:
                try:
                    cls = type(factory())
                except Exception as error:  # noqa: BLE001 - report, don't crash
                    yield self._finding_for(
                        factory,
                        f"factory for policy {name!r} failed to build an "
                        f"instance for conformance checking: {error}",
                    )
                    continue
            if not issubclass(cls, ReplacementPolicy):
                yield self._finding_for(
                    cls, f"policy {name!r} builds {cls.__name__}, which is not "
                    "a ReplacementPolicy",
                )
                continue
            if inspect.isabstract(cls):
                missing = ", ".join(sorted(cls.__abstractmethods__))
                yield self._finding_for(
                    cls,
                    f"policy {name!r} ({cls.__name__}) is abstract; missing: {missing}",
                )
                continue
            yield from self._check_signatures(name, cls, ReplacementPolicy)

    # ------------------------------------------------------------------
    def _check_signatures(
        self, name: str, cls: type, base_cls: type
    ) -> Iterator[Finding]:
        for method_name, base_method in inspect.getmembers(
            base_cls, inspect.isfunction
        ):
            if method_name.startswith("__"):
                continue
            impl = getattr(cls, method_name, None)
            if impl is None or impl is base_method or not inspect.isfunction(impl):
                continue
            base_params = list(inspect.signature(base_method).parameters.values())
            impl_params = list(inspect.signature(impl).parameters.values())
            for position, base_param in enumerate(base_params):
                if position >= len(impl_params) or (
                    impl_params[position].name != base_param.name
                ):
                    got = (
                        impl_params[position].name
                        if position < len(impl_params)
                        else "<missing>"
                    )
                    yield self._finding_for(
                        impl,
                        f"policy {name!r}: {cls.__name__}.{method_name} renames "
                        f"or drops parameter {base_param.name!r} (got {got!r}); "
                        "overrides must keep the ABC's signature",
                    )
                    break
            else:
                for extra in impl_params[len(base_params):]:
                    if extra.default is inspect.Parameter.empty and extra.kind not in (
                        inspect.Parameter.VAR_POSITIONAL,
                        inspect.Parameter.VAR_KEYWORD,
                    ):
                        yield self._finding_for(
                            impl,
                            f"policy {name!r}: {cls.__name__}.{method_name} adds "
                            f"required parameter {extra.name!r}; the engine "
                            "calls the ABC signature and cannot supply it",
                        )

    @staticmethod
    def _finding_for(obj: object, message: str) -> Finding:
        try:
            path = inspect.getsourcefile(obj) or "<unknown>"  # type: ignore[arg-type]
            _, line = inspect.getsourcelines(obj)  # type: ignore[arg-type]
        except (TypeError, OSError):
            path, line = "<unknown>", 1
        return Finding(
            rule="contract-policy-abc", path=path, line=line, col=1, message=message
        )


@register_rule
class FastPathRule(ProjectRule):
    id = "contract-fast-path"
    description = (
        "every @batch_kernel registry entry must be coherent: policy_class "
        "matches the key, the policy passes the reference-path ABC "
        "contract, and the kernel implements state_digest()"
    )

    def check_project(self, ctx: ProjectContext) -> Iterator[Finding]:
        from repro.cache.policy_api import ReplacementPolicy
        from repro.kernel.base import BatchKernel, CacheKernel, registered_batch_kernels

        abc_rule = PolicyAbcRule()
        for policy_cls, kernel_cls in registered_batch_kernels().items():
            if kernel_cls.policy_class is not policy_cls:
                declared = getattr(kernel_cls.policy_class, "__name__", None)
                yield replace(
                    PolicyAbcRule._finding_for(
                        kernel_cls,
                        f"kernel {kernel_cls.__name__} is registered for "
                        f"{policy_cls.__name__} but declares policy_class="
                        f"{declared}; the registry key and the kernel's "
                        "back-reference must agree",
                    ),
                    rule=self.id,
                )
            if not (
                isinstance(policy_cls, type)
                and issubclass(policy_cls, ReplacementPolicy)
            ):
                yield replace(
                    PolicyAbcRule._finding_for(
                        kernel_cls,
                        f"kernel {kernel_cls.__name__} is registered for "
                        f"{policy_cls!r}, which is not a ReplacementPolicy "
                        "class; the batch engine aliases the reference "
                        "policy's state and cannot drive anything else",
                    ),
                    rule=self.id,
                )
                continue
            # Registering a kernel never excuses the reference contract:
            # the fall-back and the differential harness both drive the
            # policy through the reference engine.
            name = policy_cls.name or policy_cls.__name__
            for finding in abc_rule._check_signatures(
                name, policy_cls, ReplacementPolicy
            ):
                yield replace(finding, rule=self.id)
            if kernel_cls.state_digest in (
                CacheKernel.state_digest,
                BatchKernel.state_digest,
            ):
                yield replace(
                    PolicyAbcRule._finding_for(
                        kernel_cls,
                        f"kernel {kernel_cls.__name__} does not implement "
                        "state_digest(); the sentinel layer (runtime "
                        "verification, crash capture, repro bundles) reads "
                        "every registered kernel's state through that hook",
                    ),
                    rule=self.id,
                )


@register_rule
class AtomicWriteRule(Rule):
    id = "contract-atomic-write"
    description = (
        "experiment-layer JSON persistence must use the durable helper "
        "(atomic_write_json: tmp + fsync + os.replace), not bare "
        "open(..., 'w') + json.dump, which tears under kill -9"
    )

    def check_file(self, source: SourceFile, ctx: ProjectContext) -> Iterable[Finding]:
        # The job service persists results and endpoint metadata with the
        # same crash-safety obligations as the experiment layer.
        if source.tree is None or not (
            "experiments" in source.dir_names or "service" in source.dir_names
        ):
            return ()
        return self._check(source)

    def _check(self, source: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if not isinstance(node, (ast.With, ast.AsyncWith)):
                continue
            handles = {
                item.optional_vars.id
                for item in node.items
                if self._is_text_write_open(item.context_expr)
                and isinstance(item.optional_vars, ast.Name)
            }
            if not handles:
                continue
            for call in ast.walk(node):
                if self._is_json_dump(call, handles):
                    yield self.finding(
                        source,
                        node,
                        "bare open(..., 'w') + json.dump is not crash-safe "
                        "(a kill -9 mid-write tears the file); use "
                        "repro.experiments.cellcache.atomic_write_json or "
                        "its tmp + fsync + os.replace discipline",
                    )
                    break

    @staticmethod
    def _is_text_write_open(call: ast.AST) -> bool:
        if not (
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name)
            and call.func.id == "open"
        ):
            return False
        mode: ast.AST | None = None
        if len(call.args) >= 2:
            mode = call.args[1]
        for keyword in call.keywords:
            if keyword.arg == "mode":
                mode = keyword.value
        return (
            isinstance(mode, ast.Constant)
            and isinstance(mode.value, str)
            and "w" in mode.value
            and "b" not in mode.value
        )

    @staticmethod
    def _is_json_dump(call: ast.AST, handles: frozenset[str] | set[str]) -> bool:
        """A ``json.dump(..., <handle>)`` writing into one of ``handles``."""
        if not (
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr == "dump"
            and isinstance(call.func.value, ast.Name)
            and call.func.value.id == "json"
        ):
            return False
        targets = [arg for arg in call.args[1:2]] + [
            keyword.value for keyword in call.keywords if keyword.arg == "fp"
        ]
        return any(
            isinstance(target, ast.Name) and target.id in handles
            for target in targets
        )


@register_rule
class ModuleStateRule(Rule):
    id = "contract-module-state"
    description = (
        "policy modules must not mutate module-level state at call time; "
        "two instances in one process would couple through the global"
    )

    _MUTATORS = frozenset(
        {
            "append",
            "extend",
            "insert",
            "remove",
            "add",
            "discard",
            "update",
            "setdefault",
            "pop",
            "popitem",
            "clear",
            "sort",
            "reverse",
        }
    )

    def check_file(self, source: SourceFile, ctx: ProjectContext) -> Iterable[Finding]:
        if "policies" not in source.dir_names and "branch" not in source.dir_names:
            return ()
        return self._check(source)

    def _check(self, source: SourceFile) -> Iterator[Finding]:
        module_state = self._module_level_containers(source.tree)
        for top in source.tree.body:
            if not isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            for node in ast.walk(top):
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                yield from self._check_function(source, node, module_state)

    def _check_function(
        self,
        source: SourceFile,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        module_state: frozenset[str],
    ) -> Iterator[Finding]:
        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                yield self.finding(
                    source,
                    node,
                    f"'global {', '.join(node.names)}' rebinds module state "
                    "at call time",
                )
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Subscript):
                        base = terminal_name(target.value)
                        if (
                            isinstance(target.value, ast.Name)
                            and base in module_state
                        ):
                            yield self.finding(
                                source,
                                node,
                                f"store into module-level container {base!r} "
                                "at call time",
                            )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in module_state
                and node.func.attr in self._MUTATORS
            ):
                yield self.finding(
                    source,
                    node,
                    f"{node.func.value.id}.{node.func.attr}() mutates "
                    "module-level state at call time",
                )

    @staticmethod
    def _module_level_containers(tree: ast.Module) -> frozenset[str]:
        """Module-level names bound to mutable containers."""
        names: set[str] = set()
        container_calls = {"dict", "list", "set", "defaultdict", "OrderedDict", "deque"}
        for node in tree.body:
            values: list[tuple[ast.AST, ast.AST]] = []
            if isinstance(node, ast.Assign):
                values = [(target, node.value) for target in node.targets]
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                values = [(node.target, node.value)]
            for target, value in values:
                if not isinstance(target, ast.Name):
                    continue
                is_container = isinstance(value, (ast.Dict, ast.List, ast.Set)) or (
                    isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Name)
                    and value.func.id in container_calls
                )
                if is_container:
                    names.add(target.id)
        return frozenset(names)
