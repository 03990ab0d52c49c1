"""Policy registry: name -> factory.

The experiment harness, CLI, and benchmarks refer to policies by the short
names the paper uses ("lru", "srrip", "sdbp", "ghrp", ...).  Factories take
arbitrary keyword arguments forwarded to the policy constructor, so e.g.
``make_policy("ghrp", enable_bypass=False)`` builds the ablation variant.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.cache.policy_api import ReplacementPolicy
from repro.policies.deadblock import CounterDBPPolicy, ReferenceTracePolicy
from repro.policies.dueling import SetDuelingPolicy
from repro.policies.fifo import FIFOPolicy
from repro.policies.ghrp_policy import GHRPPolicy
from repro.policies.lru import LRUPolicy, MRUPolicy
from repro.policies.nru import NRUPolicy
from repro.policies.opt import BeladyOptPolicy
from repro.policies.plru import TreePLRUPolicy
from repro.policies.random_policy import RandomPolicy
from repro.policies.sdbp import SDBPPolicy
from repro.policies.ship import SHiPPolicy
from repro.policies.srrip import BRRIPPolicy, DRRIPPolicy, SRRIPPolicy

__all__ = ["PAPER_POLICIES", "register_policy", "make_policy",
           "available_policies"]

PAPER_POLICIES: tuple[str, ...] = ("lru", "random", "srrip", "sdbp", "ghrp")
"""The five policies every comparison figure in the paper evaluates."""

PolicyFactory = Callable[..., ReplacementPolicy]

_REGISTRY: dict[str, PolicyFactory] = {}


def register_policy(name: str, factory: PolicyFactory) -> None:
    """Register ``factory`` under ``name``; duplicate names are an error."""
    if name in _REGISTRY:
        raise ValueError(f"policy {name!r} is already registered")
    # repro: allow(contract-module-state) -- the sanctioned registration
    # point: called at import time only, and duplicate names are an error.
    _REGISTRY[name] = factory


def make_policy(name: str, **kwargs: object) -> ReplacementPolicy:
    """Instantiate the policy registered as ``name``.

    >>> make_policy("lru").name
    'lru'
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown policy {name!r}; known policies: {known}") from None
    return factory(**kwargs)


def available_policies() -> tuple[str, ...]:
    """Sorted names of all registered policies."""
    return tuple(sorted(_REGISTRY))


def _make_ghrp_dip(**kwargs: object) -> SetDuelingPolicy:
    """GHRP set-dueled against LRU (a DIP-style hedge: if GHRP's training
    transients hurt on a trace, followers fall back to LRU)."""
    policy = SetDuelingPolicy(GHRPPolicy(), LRUPolicy(), **kwargs)
    policy.name = "ghrp-dip"  # registry identity (instance-level override)
    return policy


register_policy("ghrp-dip", _make_ghrp_dip)

for _policy_class in (
    LRUPolicy,
    MRUPolicy,
    FIFOPolicy,
    RandomPolicy,
    NRUPolicy,
    TreePLRUPolicy,
    SRRIPPolicy,
    BRRIPPolicy,
    DRRIPPolicy,
    BeladyOptPolicy,
    SDBPPolicy,
    GHRPPolicy,
    SHiPPolicy,
    ReferenceTracePolicy,
    CounterDBPPolicy,
):
    register_policy(_policy_class.name, _policy_class)
