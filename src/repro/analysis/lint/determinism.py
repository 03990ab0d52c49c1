"""Determinism rules.

Simulation results must be bit-identical across runs, hosts, and worker
counts (the supervised grid executor of ``repro.experiments.supervisor``
asserts this dynamically; these rules enforce it at the source level).
They apply only to simulation-kernel modules — files under ``cache/``,
``policies/``, ``frontend/``, ``traces/``, ``core/``, ``btb/``,
``branch/``, ``kernel/``, or ``service/`` — where a single
nondeterministic call poisons every downstream MPKI number.

- ``det-unseeded-random``: module-global ``random.*`` (and
  ``numpy.random.*``) draws share interpreter-wide state seeded from the
  OS; kernel code must use :class:`repro.util.rng.DeterministicRng` or an
  explicitly seeded generator instance.
- ``det-wallclock``: ``time.time()`` / ``datetime.now()`` and friends in
  kernel code leak the host clock into results.
- ``det-set-iteration``: iterating a ``set`` visits elements in hash
  order, which for ``str`` keys varies per process (PYTHONHASHSEED).
  Wrap in ``sorted(...)`` or use a list/dict.
- ``det-environ-read``: environment reads outside config modules make
  results depend on invisible host state.
- ``det-id-keyed-dict``: ``id()`` values are allocation addresses; maps
  keyed by them have run-dependent ordering (and collide after GC).
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.lint.core import (
    Finding,
    ProjectContext,
    Rule,
    SourceFile,
    dotted_names,
    register_rule,
)

__all__ = [
    "UnseededRandomRule",
    "WallClockRule",
    "SetIterationRule",
    "EnvironReadRule",
    "IdKeyedDictRule",
]

_RANDOM_DRAWS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "randbytes",
        "getrandbits",
        "choice",
        "choices",
        "sample",
        "shuffle",
        "uniform",
        "triangular",
        "betavariate",
        "expovariate",
        "gammavariate",
        "gauss",
        "lognormvariate",
        "normalvariate",
        "vonmisesvariate",
        "paretovariate",
        "weibullvariate",
    }
)

_WALLCLOCK_TIME_FUNCS = frozenset(
    {"time", "time_ns", "monotonic", "monotonic_ns", "perf_counter", "perf_counter_ns"}
)
_WALLCLOCK_DATETIME_FUNCS = frozenset({"now", "utcnow", "today"})


class _KernelRule(Rule):
    """Base: applies only to simulation-kernel modules."""

    def check_file(self, source: SourceFile, ctx: ProjectContext) -> Iterable[Finding]:
        if not source.is_kernel:
            return ()
        return self._check(source)

    def _check(self, source: SourceFile) -> Iterable[Finding]:
        raise NotImplementedError


@register_rule
class UnseededRandomRule(_KernelRule):
    id = "det-unseeded-random"
    description = (
        "kernel code must not draw from the module-global random (or "
        "numpy.random) state; use repro.util.rng.DeterministicRng or a "
        "seeded generator instance"
    )

    def _check(self, source: SourceFile) -> Iterator[Finding]:
        bare_random_names = self._bare_imports(source.tree)
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id in bare_random_names:
                yield self.finding(
                    source, node, f"call to random.{func.id} uses the global RNG state"
                )
                continue
            if not isinstance(func, ast.Attribute):
                continue
            chain = dotted_names(func)
            if len(chain) == 2 and chain[0] == "random":
                if chain[1] in _RANDOM_DRAWS:
                    yield self.finding(
                        source,
                        node,
                        f"random.{chain[1]}() draws from the global RNG state",
                    )
                elif chain[1] == "Random" and not node.args and not node.keywords:
                    yield self.finding(
                        source, node, "random.Random() without a seed is OS-seeded"
                    )
            elif len(chain) == 3 and chain[0] in ("numpy", "np") and chain[1] == "random":
                if chain[2] == "default_rng" and not node.args and not node.keywords:
                    yield self.finding(
                        source, node, "numpy default_rng() without a seed is OS-seeded"
                    )
                elif chain[2] != "default_rng":
                    yield self.finding(
                        source,
                        node,
                        f"numpy.random.{chain[2]}() uses the global numpy RNG state",
                    )

    @staticmethod
    def _bare_imports(tree: ast.Module) -> frozenset[str]:
        """Names bound by ``from random import ...`` that draw randomness."""
        names: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                for alias in node.names:
                    if alias.name in _RANDOM_DRAWS:
                        names.add(alias.asname or alias.name)
        return frozenset(names)


@register_rule
class WallClockRule(_KernelRule):
    id = "det-wallclock"
    description = (
        "kernel code must not read the host clock (time.time, datetime.now, "
        "...); simulated time is the reconstructed instruction count"
    )

    def _check(self, source: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            chain = dotted_names(node.func)
            if len(chain) >= 2 and chain[-2] == "time" and chain[-1] in _WALLCLOCK_TIME_FUNCS:
                yield self.finding(
                    source, node, f"time.{chain[-1]}() reads the host clock"
                )
            elif chain[-1] in _WALLCLOCK_DATETIME_FUNCS and (
                set(chain[:-1]) & {"datetime", "date"}
            ):
                yield self.finding(
                    source,
                    node,
                    f"{'.'.join(chain)}() reads the host clock",
                )


@register_rule
class SetIterationRule(_KernelRule):
    id = "det-set-iteration"
    description = (
        "iterating a set visits elements in hash order, which varies per "
        "process for str keys; sort first or keep a list/dict"
    )

    _ORDER_SINKS = frozenset({"list", "tuple", "enumerate", "iter"})
    _ORDER_SAFE = frozenset({"sorted", "len", "sum", "min", "max", "any", "all", "frozenset", "set"})

    def _check(self, source: SourceFile) -> Iterator[Finding]:
        # Name tracking is module-wide and flow-insensitive: any name (or
        # self-attribute) ever assigned a set expression counts as a set
        # everywhere.  Precise enough in practice, and one pass means each
        # iteration site is reported exactly once.
        known_sets = self._set_names(source.tree)
        for node in ast.walk(source.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if self._is_set_expr(node.iter, known_sets):
                    yield self.finding(
                        source, node.iter, "loop iterates a set in hash order"
                    )
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for generator in node.generators:
                    if self._is_set_expr(generator.iter, known_sets):
                        yield self.finding(
                            source,
                            generator.iter,
                            "comprehension iterates a set in hash order",
                        )
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id in self._ORDER_SINKS and node.args:
                    if self._is_set_expr(node.args[0], known_sets):
                        yield self.finding(
                            source,
                            node,
                            f"{node.func.id}() materializes a set in hash order",
                        )

    # -- helpers -------------------------------------------------------
    def _set_names(self, tree: ast.Module) -> frozenset[str]:
        """Names (and self-attribute names) assigned a set expression."""
        names: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and self._is_set_literal(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
                    elif isinstance(target, ast.Attribute):
                        names.add(target.attr)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if self._is_set_literal(node.value) and isinstance(node.target, ast.Name):
                    names.add(node.target.id)
        return frozenset(names)

    @staticmethod
    def _is_set_literal(node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")
        ):
            return True
        return False

    def _is_set_expr(self, node: ast.AST, known_sets: frozenset[str]) -> bool:
        if self._is_set_literal(node):
            return True
        if isinstance(node, ast.Name) and node.id in known_sets:
            return True
        if isinstance(node, ast.Attribute) and node.attr in known_sets:
            return True
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_set_expr(node.left, known_sets) or self._is_set_expr(
                node.right, known_sets
            )
        return False


@register_rule
class EnvironReadRule(_KernelRule):
    id = "det-environ-read"
    description = (
        "kernel code must not read os.environ / os.getenv; host environment "
        "belongs in config modules, threaded through explicit parameters"
    )

    def _check(self, source: SourceFile) -> Iterator[Finding]:
        if source.is_config_module:
            return
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Attribute):
                chain = dotted_names(node)
                if chain[-2:] == ["os", "environ"] or (
                    len(chain) >= 2 and chain[-1] == "environ" and chain[0] == "os"
                ):
                    yield self.finding(source, node, "os.environ read in kernel code")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                chain = dotted_names(node.func)
                if chain[-2:] == ["os", "getenv"]:
                    yield self.finding(source, node, "os.getenv() read in kernel code")


@register_rule
class IdKeyedDictRule(_KernelRule):
    id = "det-id-keyed-dict"
    description = (
        "id() values are allocation addresses: maps keyed by them order "
        "(and collide) differently per run; key by a stable field instead"
    )

    _DICT_METHODS = frozenset({"get", "setdefault", "pop"})

    def _check(self, source: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Subscript) and self._is_id_call(node.slice):
                yield self.finding(source, node, "container indexed by id(...)")
            elif isinstance(node, ast.Dict):
                for key in node.keys:
                    if key is not None and self._is_id_call(key):
                        yield self.finding(source, key, "dict literal keyed by id(...)")
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self._DICT_METHODS
                and node.args
                and self._is_id_call(node.args[0])
            ):
                yield self.finding(
                    source, node, f".{node.func.attr}() keyed by id(...)"
                )

    @staticmethod
    def _is_id_call(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "id"
        )
