"""Interval (value-range) abstract interpretation over function CFGs.

The domain is the classic integer-interval lattice: ``Interval(lo, hi)``
with ``None`` for an unbounded end, plus an explicit empty interval as
bottom.  The interpreter (:class:`IntervalAnalyzer`) evaluates integer
locals and ``self.``-rooted fields over the CFGs of
:mod:`repro.analysis.flow.cfg`, with:

- *inductive field hypotheses*: loads from a declared-width field assume
  the declared range, so each store only has to re-establish the
  invariant locally — the classic inductive proof shape;
- *branch refinement* on guarded CFG edges (``if value < counter_max:``
  narrows ``value`` in the taken branch);
- transfer functions for the saturation idioms the simulator uses
  (``min``/``max`` clamps, guarded increments, ``& mask``, shifts);
- *element summaries* for container fields (one weak-updated interval
  stands for every element of ``self.tables``), and a flow-insensitive
  alias pre-pass binding locals like ``row = self.tables[t]`` or
  ``for row, index in zip(self.tables, idx):`` to those summaries;
- widening after a few passes so loops converge.

Stores into fields with a declared bound are reported to an ``on_store``
callback — the ``flow-width-escape`` rule turns out-of-range stores into
findings.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable

from repro.analysis.flow.cfg import CFG, Block, build_cfg
from repro.analysis.flow.domains import Env, element_key

__all__ = ["Interval", "IntervalAnalyzer", "StoreEvent"]


def _min(*values: int | None) -> int | None:
    known = [value for value in values if value is not None]
    if len(known) < len(values):
        return None
    return min(known)


def _max(*values: int | None) -> int | None:
    known = [value for value in values if value is not None]
    if len(known) < len(values):
        return None
    return max(known)


@dataclass(frozen=True, slots=True)
class Interval:
    """``[lo, hi]`` with ``None`` as -inf/+inf; ``empty`` flags bottom."""

    lo: int | None = None
    hi: int | None = None
    empty: bool = False

    # -- constructors ---------------------------------------------------
    @staticmethod
    def top() -> "Interval":
        return Interval(None, None)

    @staticmethod
    def bottom() -> "Interval":
        return Interval(0, 0, empty=True)

    @staticmethod
    def const(value: int) -> "Interval":
        return Interval(value, value)

    @staticmethod
    def range(lo: int | None, hi: int | None) -> "Interval":
        if lo is not None and hi is not None and lo > hi:
            return Interval.bottom()
        return Interval(lo, hi)

    # -- predicates -----------------------------------------------------
    @property
    def is_top(self) -> bool:
        return not self.empty and self.lo is None and self.hi is None

    def contains(self, other: "Interval") -> bool:
        if other.empty:
            return True
        if self.empty:
            return False
        lo_ok = self.lo is None or (other.lo is not None and other.lo >= self.lo)
        hi_ok = self.hi is None or (other.hi is not None and other.hi <= self.hi)
        return lo_ok and hi_ok

    def __str__(self) -> str:
        if self.empty:
            return "[]"
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "+inf" if self.hi is None else str(self.hi)
        return f"[{lo}, {hi}]"

    # -- lattice --------------------------------------------------------
    def join(self, other: "Interval") -> "Interval":
        if self.empty:
            return other
        if other.empty:
            return self
        return Interval(_min(self.lo, other.lo), _max(self.hi, other.hi))

    def meet(self, other: "Interval") -> "Interval":
        if self.empty or other.empty:
            return Interval.bottom()
        lo = self.lo if other.lo is None else (other.lo if self.lo is None else max(self.lo, other.lo))
        hi = self.hi if other.hi is None else (other.hi if self.hi is None else min(self.hi, other.hi))
        return Interval.range(lo, hi)

    def widen(self, newer: "Interval") -> "Interval":
        """Standard interval widening: drop any moving bound to infinity."""
        if self.empty:
            return newer
        if newer.empty:
            return self
        if newer.lo is not None and self.lo is not None and newer.lo >= self.lo:
            lo = self.lo
        else:
            lo = self.lo if newer.lo == self.lo else None
        if newer.hi is not None and self.hi is not None and newer.hi <= self.hi:
            hi = self.hi
        else:
            hi = self.hi if newer.hi == self.hi else None
        return Interval(lo, hi)

    # -- arithmetic transfer functions ---------------------------------
    def _binary_empty(self, other: "Interval") -> bool:
        return self.empty or other.empty

    def add(self, other: "Interval") -> "Interval":
        if self._binary_empty(other):
            return Interval.bottom()
        lo = None if self.lo is None or other.lo is None else self.lo + other.lo
        hi = None if self.hi is None or other.hi is None else self.hi + other.hi
        return Interval(lo, hi)

    def sub(self, other: "Interval") -> "Interval":
        if self._binary_empty(other):
            return Interval.bottom()
        lo = None if self.lo is None or other.hi is None else self.lo - other.hi
        hi = None if self.hi is None or other.lo is None else self.hi - other.lo
        return Interval(lo, hi)

    def neg(self) -> "Interval":
        if self.empty:
            return self
        return Interval(
            None if self.hi is None else -self.hi,
            None if self.lo is None else -self.lo,
        )

    def mul(self, other: "Interval") -> "Interval":
        if self._binary_empty(other):
            return Interval.bottom()
        ends_a = (self.lo, self.hi)
        ends_b = (other.lo, other.hi)
        if None in ends_a or None in ends_b:
            # Keep the common nonneg × nonneg shape bounded below.
            if self._nonneg and other._nonneg:
                return Interval(0, None)
            return Interval.top()
        products = [a * b for a in ends_a for b in ends_b]
        return Interval(min(products), max(products))

    @property
    def _nonneg(self) -> bool:
        return not self.empty and self.lo is not None and self.lo >= 0

    def floordiv(self, other: "Interval") -> "Interval":
        if self._binary_empty(other):
            return Interval.bottom()
        if other.lo is not None and other.lo >= 1 and self._nonneg:
            hi = None if self.hi is None else self.hi // other.lo
            lo = 0 if other.hi is None else self.lo // other.hi
            return Interval(lo, hi)
        return Interval.top()

    def mod(self, other: "Interval") -> "Interval":
        if self._binary_empty(other):
            return Interval.bottom()
        if other.lo is not None and other.lo >= 1 and other.hi is not None:
            # Python % with a positive divisor lands in [0, divisor-1]
            # for any sign of the dividend.
            upper = other.hi - 1
            if self._nonneg and self.hi is not None and self.hi < other.lo:
                return self  # no wraparound possible
            return Interval(0, upper)
        return Interval.top()

    def lshift(self, other: "Interval") -> "Interval":
        if self._binary_empty(other):
            return Interval.bottom()
        if self._nonneg and other._nonneg:
            lo = self.lo << other.lo
            hi = (
                None
                if self.hi is None or other.hi is None
                else self.hi << other.hi
            )
            return Interval(lo, hi)
        return Interval.top()

    def rshift(self, other: "Interval") -> "Interval":
        if self._binary_empty(other):
            return Interval.bottom()
        if self._nonneg and other._nonneg:
            hi = None if self.hi is None else self.hi >> other.lo
            lo = 0 if other.hi is None or self.lo is None else self.lo >> other.hi
            return Interval(lo, hi)
        return Interval.top()

    def bitand(self, other: "Interval") -> "Interval":
        if self._binary_empty(other):
            return Interval.bottom()
        # x & y with either side known non-negative is bounded by it.
        bounds = []
        if self._nonneg and self.hi is not None:
            bounds.append(self.hi)
        if other._nonneg and other.hi is not None:
            bounds.append(other.hi)
        if bounds and (self._nonneg or other._nonneg):
            return Interval(0, min(bounds))
        if self._nonneg or other._nonneg:
            return Interval(0, None)
        return Interval.top()

    def bitor(self, other: "Interval") -> "Interval":
        if self._binary_empty(other):
            return Interval.bottom()
        if self._nonneg and other._nonneg:
            if self.hi is None or other.hi is None:
                return Interval(0, None)
            # x | y < 2^k where k bounds both operands' widths.
            width = max(self.hi.bit_length(), other.hi.bit_length())
            return Interval(max(self.lo, other.lo), (1 << width) - 1)
        return Interval.top()

    def bitxor(self, other: "Interval") -> "Interval":
        if self._binary_empty(other):
            return Interval.bottom()
        if self._nonneg and other._nonneg:
            if self.hi is None or other.hi is None:
                return Interval(0, None)
            width = max(self.hi.bit_length(), other.hi.bit_length())
            return Interval(0, (1 << width) - 1)
        return Interval.top()

    def clamp_min(self, other: "Interval") -> "Interval":
        """``min(self, other)`` pointwise."""
        if self._binary_empty(other):
            return Interval.bottom()
        return Interval(_min(self.lo, other.lo), _min(self.hi, other.hi))

    def clamp_max(self, other: "Interval") -> "Interval":
        """``max(self, other)`` pointwise."""
        if self._binary_empty(other):
            return Interval.bottom()
        return Interval(_max(self.lo, other.lo), _max(self.hi, other.hi))


TOP = Interval.top()


@dataclass(frozen=True, slots=True)
class StoreEvent:
    """One store into a tracked key, as seen by the rule callback."""

    stmt: ast.stmt
    key: str
    value: Interval
    value_expr: ast.expr | None


class IntervalAnalyzer:
    """Abstract-interpret one function over ``Env[Interval]``.

    Parameters
    ----------
    constants:
        Keys (``"self.counter_max"``, ``"WIDTH"``) with known constant
        integer values; loads evaluate to the constant.
    field_bounds:
        Declared ranges for tracked keys; loads assume the range
        (inductive hypothesis) and every store is reported via
        ``on_store`` for the caller to verify against it.
    aliases:
        Local-name -> key bindings from the flow-insensitive alias
        pre-pass (see :meth:`collect_aliases`).
    call_summaries:
        Return-value intervals for ``self.method(...)`` calls.
    on_store:
        Callback invoked with a :class:`StoreEvent` for each store into
        a key present in ``field_bounds``.
    """

    WIDEN_AFTER = 3
    MAX_PASSES = 20

    def __init__(
        self,
        constants: dict[str, int] | None = None,
        field_bounds: dict[str, Interval] | None = None,
        aliases: dict[str, str] | None = None,
        call_summaries: dict[str, Interval] | None = None,
        on_store: Callable[[StoreEvent], None] | None = None,
    ):
        self.constants = dict(constants or {})
        self.field_bounds = dict(field_bounds or {})
        self.aliases = dict(aliases or {})
        self.call_summaries = dict(call_summaries or {})
        self.on_store = on_store
        self._report = False  # set during the final reporting pass

    # ------------------------------------------------------------------
    # Key resolution: expressions -> tracked environment keys.
    # ------------------------------------------------------------------
    def resolve_key(self, node: ast.expr) -> str | None:
        if isinstance(node, ast.Name):
            return self.aliases.get(node.id, node.id)
        if isinstance(node, ast.Attribute):
            base = self.resolve_key(node.value)
            if base is None:
                return None
            return f"{base}.{node.attr}"
        if isinstance(node, ast.Subscript):
            base = self.resolve_key(node.value)
            if base is None:
                return None
            return element_key(base)
        return None

    # ------------------------------------------------------------------
    # Alias pre-pass.
    # ------------------------------------------------------------------
    @staticmethod
    def collect_aliases(func: ast.FunctionDef | ast.AsyncFunctionDef) -> dict[str, str]:
        """Bind locals that are consistently *views* of ``self`` state.

        Handled shapes (``K`` is the key of a ``self``-rooted chain)::

            x = self.F              -> x: self.F
            x = self.F[i]           -> x: self.F[*]
            x = y[i]   (y aliased)  -> x: <y-key>[*]
            x, y = self.F           -> x/y: self.F[*]
            for x in self.F:        -> x: self.F[*]
            for i, x in enumerate(self.F):            -> x: self.F[*]
            for x, y in zip(self.A, self.B):          -> x/y element-wise

        Only names used as *containers or objects* (subscripted or
        attribute-accessed somewhere in the function) become aliases —
        a scalar copy like ``value = row[index]`` stays an ordinary
        local, so branch tests on it refine only that one element, not
        the whole summary.  A name assigned from two different sources
        (or rebound from anything else) is not an alias; stores
        *through* a name (``row[i] = ...``) do not rebind it.
        """
        candidates: dict[str, set[str | None]] = {}
        compound_use: set[str] = set()

        def key_of(node: ast.expr) -> str | None:
            if isinstance(node, ast.Name):
                return node.id
            if isinstance(node, ast.Attribute):
                base = key_of(node.value)
                return None if base is None else f"{base}.{node.attr}"
            if isinstance(node, ast.Subscript):
                base = key_of(node.value)
                return None if base is None else element_key(base)
            return None

        def record(name: str, key: str | None) -> None:
            candidates.setdefault(name, set()).add(key)

        def bind_target(target: ast.expr, key: str | None) -> None:
            if isinstance(target, ast.Name):
                record(target.id, key)
            elif isinstance(target, (ast.Tuple, ast.List)):
                # Unpacking a container view binds each name to one of
                # its elements (``r0, r1, r2 = state.tables``).
                element = None if key is None else element_key(key)
                for item in target.elts:
                    bind_target(item, element)
            elif isinstance(target, ast.Starred):
                bind_target(target.value, None)
            # Subscript/Attribute stores mutate through the name
            # without rebinding it: no record.

        def source_keys(iter_expr: ast.expr, target: ast.expr) -> None:
            if (
                isinstance(iter_expr, ast.Call)
                and isinstance(iter_expr.func, ast.Name)
                and iter_expr.func.id == "enumerate"
                and iter_expr.args
                and isinstance(target, ast.Tuple)
                and len(target.elts) == 2
            ):
                bind_target(target.elts[0], None)
                source_keys(iter_expr.args[0], target.elts[1])
                return
            if (
                isinstance(iter_expr, ast.Call)
                and isinstance(iter_expr.func, ast.Name)
                and iter_expr.func.id == "zip"
                and isinstance(target, ast.Tuple)
                and len(target.elts) == len(iter_expr.args)
            ):
                for element, source in zip(target.elts, iter_expr.args, strict=False):
                    source_keys(source, element)
                return
            key = key_of(iter_expr)
            bind_target(target, None if key is None else element_key(key))

        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                bind_target(node.targets[0], key_of(node.value))
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
                record(node.target.id, None)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                source_keys(node.iter, node.target)
            elif isinstance(node, ast.comprehension):
                source_keys(node.iter, node.target)
            elif isinstance(node, (ast.Subscript, ast.Attribute)):
                if isinstance(node.value, ast.Name):
                    compound_use.add(node.value.id)

        aliases: dict[str, str] = {}
        for name, keys in candidates.items():
            if len(keys) == 1 and name in compound_use:
                (key,) = keys
                if key is not None and (key.startswith("self.") or "[*]" in key):
                    aliases[name] = key
        aliases.pop("self", None)
        # Resolve chains (value -> row[*] -> self.tables[*]).
        return {
            name: _resolve_chain(key, aliases) for name, key in aliases.items()
        }

    # ------------------------------------------------------------------
    # Expression evaluation.
    # ------------------------------------------------------------------
    def eval(self, node: ast.expr, env: Env[Interval]) -> Interval:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool):
                return Interval.const(int(node.value))
            if isinstance(node.value, int):
                return Interval.const(node.value)
            return TOP
        if isinstance(node, (ast.Name, ast.Attribute, ast.Subscript)):
            key = self.resolve_key(node)
            if key is None:
                return TOP
            if key in env.bindings:  # refinements narrow the hypothesis
                return env.bindings[key]
            if key in self.constants:
                return Interval.const(self.constants[key])
            if key in self.field_bounds:
                return self.field_bounds[key]
            return env.get(key)
        if isinstance(node, ast.BinOp):
            return self._eval_binop(node, env)
        if isinstance(node, ast.UnaryOp):
            operand = self.eval(node.operand, env)
            if isinstance(node.op, ast.USub):
                return operand.neg()
            if isinstance(node.op, ast.UAdd):
                return operand
            if isinstance(node.op, ast.Not):
                return Interval(0, 1)
            return TOP  # ~x
        if isinstance(node, ast.Call):
            return self._eval_call(node, env)
        if isinstance(node, ast.IfExp):
            then_env = self.refine(env, node.test, True)
            else_env = self.refine(env, node.test, False)
            return self.eval(node.body, then_env).join(self.eval(node.orelse, else_env))
        if isinstance(node, (ast.Compare, ast.BoolOp)):
            return Interval(0, 1)
        return TOP

    def _eval_binop(self, node: ast.BinOp, env: Env[Interval]) -> Interval:
        left = self.eval(node.left, env)
        right = self.eval(node.right, env)
        op = node.op
        if isinstance(op, ast.Add):
            return left.add(right)
        if isinstance(op, ast.Sub):
            return left.sub(right)
        if isinstance(op, ast.Mult):
            return left.mul(right)
        if isinstance(op, ast.FloorDiv):
            return left.floordiv(right)
        if isinstance(op, ast.Mod):
            return left.mod(right)
        if isinstance(op, ast.LShift):
            return left.lshift(right)
        if isinstance(op, ast.RShift):
            return left.rshift(right)
        if isinstance(op, ast.BitAnd):
            return left.bitand(right)
        if isinstance(op, ast.BitOr):
            return left.bitor(right)
        if isinstance(op, ast.BitXor):
            return left.bitxor(right)
        return TOP

    def _eval_call(self, node: ast.Call, env: Env[Interval]) -> Interval:
        func = node.func
        if isinstance(func, ast.Name):
            args = [self.eval(arg, env) for arg in node.args]
            if func.id == "min" and args:
                result = args[0]
                for arg in args[1:]:
                    result = result.clamp_min(arg)
                return result
            if func.id == "max" and args:
                result = args[0]
                for arg in args[1:]:
                    result = result.clamp_max(arg)
                return result
            if func.id == "abs" and len(args) == 1:
                arg = args[0]
                if arg._nonneg:
                    return arg
                return Interval(0, None if arg.hi is None or arg.lo is None else max(abs(arg.lo), abs(arg.hi)))
            if func.id == "len":
                return Interval(0, None)
            if func.id in {"int", "bool"} and len(node.args) == 1:
                inner = args[0]
                return inner if func.id == "int" else Interval(0, 1)
            # mask(k) and friends from repro.util.bits, when the width
            # is a resolvable constant.
            if func.id == "mask" and len(node.args) == 1:
                width = self.eval(node.args[0], env)
                if width.lo is not None and width.lo == width.hi:
                    return Interval.const((1 << width.lo) - 1)
        if isinstance(func, ast.Attribute):
            # Method-call summaries, keyed by the resolved receiver chain
            # ("self.predict", "self.state.predict"); bare method names
            # remain accepted for self-calls.
            base_key = self.resolve_key(func.value)
            if base_key is not None:
                dotted = f"{base_key}.{func.attr}"
                if dotted in self.call_summaries:
                    return self.call_summaries[dotted]
            if (
                isinstance(func.value, ast.Name)
                and func.value.id == "self"
                and func.attr in self.call_summaries
            ):
                return self.call_summaries[func.attr]
        return TOP

    # ------------------------------------------------------------------
    # Branch refinement.
    # ------------------------------------------------------------------
    def refine(self, env: Env[Interval], test: ast.expr, value: bool) -> Env[Interval]:
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            return self.refine(env, test.operand, not value)
        if isinstance(test, ast.BoolOp):
            if (isinstance(test.op, ast.And) and value) or (
                isinstance(test.op, ast.Or) and not value
            ):
                refined = env
                for operand in test.values:
                    refined = self.refine(refined, operand, value)
                return refined
            return env
        if not isinstance(test, ast.Compare) or len(test.ops) != 1:
            return env
        left, right = test.left, test.comparators[0]
        op = test.ops[0]
        if not value:
            flipped = {
                ast.Lt: ast.GtE,
                ast.LtE: ast.Gt,
                ast.Gt: ast.LtE,
                ast.GtE: ast.Lt,
                ast.Eq: ast.NotEq,
                ast.NotEq: ast.Eq,
            }.get(type(op))
            if flipped is None:
                return env
            op = flipped()
        refined = env.copy()
        self._refine_operand(refined, left, op, self.eval(right, env), swap=False)
        self._refine_operand(refined, right, op, self.eval(left, env), swap=True)
        return refined

    def _refine_operand(
        self,
        env: Env[Interval],
        node: ast.expr,
        op: ast.cmpop,
        other: Interval,
        swap: bool,
    ) -> None:
        key = self.resolve_key(node) if isinstance(node, (ast.Name, ast.Attribute, ast.Subscript)) else None
        if key is None or key in self.constants:
            return
        if key in env.bindings:
            current = env.bindings[key]
        else:
            current = self.field_bounds.get(key, env.get(key))
        if swap:
            inverse = {
                ast.Lt: ast.Gt,
                ast.LtE: ast.GtE,
                ast.Gt: ast.Lt,
                ast.GtE: ast.LtE,
            }.get(type(op))
            if inverse is None and not isinstance(op, (ast.Eq, ast.NotEq)):
                return
            op = inverse() if inverse is not None else op
        if isinstance(op, ast.Lt) and other.hi is not None:
            bound = Interval(None, other.hi - 1)
        elif isinstance(op, ast.LtE) and other.hi is not None:
            bound = Interval(None, other.hi)
        elif isinstance(op, ast.Gt) and other.lo is not None:
            bound = Interval(other.lo + 1, None)
        elif isinstance(op, ast.GtE) and other.lo is not None:
            bound = Interval(other.lo, None)
        elif isinstance(op, ast.Eq):
            bound = other
        else:
            return
        env.set(key, current.meet(bound))

    # ------------------------------------------------------------------
    # Statement / block transfer.
    # ------------------------------------------------------------------
    def _store(
        self,
        env: Env[Interval],
        target: ast.expr,
        value: Interval,
        stmt: ast.stmt,
        value_expr: ast.expr | None,
    ) -> None:
        if isinstance(target, ast.Tuple):
            for element in target.elts:
                self._store(env, element, TOP, stmt, None)
            return
        key = self.resolve_key(target)
        if key is None:
            return
        if key in self.field_bounds and self.on_store is not None and self._report:
            self.on_store(StoreEvent(stmt=stmt, key=key, value=value, value_expr=value_expr))
        if key.endswith("[*]") or isinstance(target, ast.Subscript):
            # Weak update: the summary covers every element.
            stored = element_key(key) if not key.endswith("[*]") else key
            if stored not in self.field_bounds:
                env.set(stored, env.get(stored).join(value))
        elif key not in self.field_bounds:
            env.set(key, value)

    def _transfer_stmt(self, stmt: ast.stmt, env: Env[Interval]) -> None:
        if isinstance(stmt, ast.Assign):
            value = self.eval(stmt.value, env)
            for target in stmt.targets:
                self._store(env, target, value, stmt, stmt.value)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            value = self.eval(stmt.value, env)
            self._store(env, stmt.target, value, stmt, stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            load = ast.copy_location(
                ast.BinOp(
                    left=_as_load(stmt.target), op=stmt.op, right=stmt.value
                ),
                stmt,
            )
            value = self.eval(load, env)
            self._store(env, stmt.target, value, stmt, load)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._bind_loop_target(stmt, env)
        # Expression statements (mutator calls) do not change intervals.

    def _bind_loop_target(self, stmt: ast.For | ast.AsyncFor, env: Env[Interval]) -> None:
        self._bind_iter(stmt.iter, stmt.target, env, stmt)

    def _bind_iter(
        self,
        iter_expr: ast.expr,
        target: ast.expr,
        env: Env[Interval],
        stmt: ast.stmt,
    ) -> None:
        if isinstance(iter_expr, ast.Call) and isinstance(iter_expr.func, ast.Name):
            name = iter_expr.func.id
            if name == "range":
                args = [self.eval(arg, env) for arg in iter_expr.args]
                if len(args) == 1:
                    lo, hi = Interval.const(0), args[0]
                elif len(args) >= 2:
                    lo, hi = args[0], args[1]
                else:
                    return
                upper = None if hi.hi is None else hi.hi - 1
                self._store(env, target, Interval(lo.lo if lo.lo is not None else None, upper), stmt, None)
                return
            if (
                name == "enumerate"
                and iter_expr.args
                and isinstance(target, ast.Tuple)
                and len(target.elts) == 2
            ):
                self._store(env, target.elts[0], Interval(0, None), stmt, None)
                self._bind_iter(iter_expr.args[0], target.elts[1], env, stmt)
                return
            if (
                name == "zip"
                and isinstance(target, ast.Tuple)
                and len(target.elts) == len(iter_expr.args)
            ):
                for element, source in zip(target.elts, iter_expr.args, strict=False):
                    self._bind_iter(source, element, env, stmt)
                return
        # Aliased names keep their summary binding; scalar targets of a
        # resolvable container load its element summary.
        if isinstance(target, ast.Name) and target.id in self.aliases:
            return
        if isinstance(iter_expr, (ast.Name, ast.Attribute, ast.Subscript)):
            key = self.resolve_key(iter_expr)
            if key is not None:
                summary = element_key(key)
                if summary in self.field_bounds:
                    self._store(env, target, self.field_bounds[summary], stmt, None)
                    return
                if summary in env.bindings:
                    self._store(env, target, env.bindings[summary], stmt, None)
                    return
        self._store(env, target, TOP, stmt, None)

    def _transfer_block(self, block: Block, env: Env[Interval]) -> Env[Interval]:
        out = env.copy()
        for stmt in block.stmts:
            if isinstance(stmt, (ast.While, ast.Match)):
                continue  # guards live on the edges
            self._transfer_stmt(stmt, out)
        return out

    # ------------------------------------------------------------------
    def run(
        self,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        initial: Env[Interval] | None = None,
    ) -> dict[Block, Env[Interval]]:
        """Solve to fixpoint, then one reporting pass firing ``on_store``.

        Returns the block-entry environments.
        """
        cfg = build_cfg(func)
        if not self.aliases:
            self.aliases = self.collect_aliases(func)
        order = cfg.reverse_postorder()
        bottom = Env(TOP, None)
        state_in: dict[Block, Env[Interval]] = {}
        state_out: dict[Block, Env[Interval]] = {}
        seed = initial.copy() if initial is not None else Env(TOP)

        self._report = False
        for pass_number in range(self.MAX_PASSES):
            changed = False
            for block in order:
                if block is cfg.entry:
                    incoming = seed.copy()
                else:
                    incoming: Env[Interval] | None = None
                    for pred in block.preds:
                        if pred not in state_out:
                            continue
                        flowed = state_out[pred]
                        for edge in pred.edges:
                            if edge.dst is block and edge.guard is not None:
                                flowed = self.refine(
                                    state_out[pred], edge.guard, bool(edge.guard_value)
                                )
                                break
                        incoming = (
                            flowed.copy()
                            if incoming is None
                            else incoming.join(flowed, Interval.join)
                        )
                    if incoming is None:
                        incoming = bottom.copy()
                if pass_number >= self.WIDEN_AFTER and block in state_in:
                    incoming = state_in[block].join(incoming, Interval.widen)
                if block not in state_in or state_in[block] != incoming:
                    state_in[block] = incoming
                    changed = True
                outgoing = self._transfer_block(block, incoming)
                if block not in state_out or state_out[block] != outgoing:
                    state_out[block] = outgoing
                    changed = True
            if not changed:
                break

        # Reporting pass: re-run each block transfer on the fixpoint
        # entry state so on_store sees converged intervals exactly once.
        self._report = True
        for block in order:
            if block in state_in:
                self._transfer_block(block, state_in[block])
        self._report = False
        return state_in


def _as_load(node: ast.expr) -> ast.expr:
    """A Load-context copy of an assignment target."""
    clone = ast.copy_location(ast.parse(ast.unparse(node), mode="eval").body, node)
    return clone


def _resolve_chain(key: str, aliases: dict[str, str]) -> str:
    """Substitute alias heads until fixpoint (``row[*]`` -> ``self.tables[*]``)."""
    for _ in range(5):
        head_end = len(key)
        for index, char in enumerate(key):
            if char in ".[":
                head_end = index
                break
        head, rest = key[:head_end], key[head_end:]
        if head not in aliases or aliases[head] == key:
            break
        base = aliases[head]
        while rest.startswith("[*]") and base.endswith("[*]"):
            rest = rest[3:]
        key = base + rest
    return key
