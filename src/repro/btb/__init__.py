"""Branch target buffer.

A set-associative structure caching the targets of taken branches, built on
the same engine and policy interface as the I-cache.  The paper's default
configuration is 4,096 entries, 4-way (modeled after the Samsung Mongoose
BTB); the GHRP-coupled replacement mode is in
:class:`repro.policies.GHRPBTBPolicy`.
"""

from repro.btb.btb import BranchTargetBuffer, BTBResult

__all__ = ["BranchTargetBuffer", "BTBResult"]
