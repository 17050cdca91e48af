"""Recompute the reference zero counts of the pole-search inputs.

    python3 perfbench/pole_counts.py

Counts the zeros of the extended-precision Jplus inside each job's region by
the argument principle, for every potential of the fixed pool and for the
narrow-limit shells, and writes pole_counts.json next to this file.  The
checks refuse the cache when the pool it was computed for differs from the
pool that workloads.py generates now.  Takes a few minutes.
"""

from __future__ import annotations

import json
import sys

import workloads
from reference import RefPotential

#: the finder moves the contour off the degenerate point k = 0 by this much;
#: the reference counts over the same rectangle
K_FLOOR = 1e-9


def reference_count(pot: dict, region: dict) -> int:
    ref = RefPotential(pot["breakpoints"], pot["heights"], pot.get("kappa", 1.0))
    return ref.zero_count(max(region["re_min"], K_FLOOR), region["re_max"],
                          region["im_min"], region["im_max"])


def main() -> int:
    pool = workloads.pole_pool()
    counts = []
    for i, pot in enumerate(pool):
        counts.append(reference_count(pot, workloads.POLE_REGION))
        if i % 128 == 127:
            print(f"{i + 1}/{len(pool)}", file=sys.stderr)
    narrow = [reference_count(pot, {**workloads.POLE_REGION, "im_max": im_max})
              for pot, (_, im_max) in zip(workloads.narrow_potentials(), workloads.NARROW_SHELLS)]
    cache = {"digest": workloads.pool_digest(), "pool": counts, "narrow": narrow}
    workloads.POLE_COUNTS.write_text(json.dumps(cache) + "\n")
    print(f"wrote {workloads.POLE_COUNTS}: {sum(counts)} zeros in {len(counts)} pool regions, "
          f"narrow {narrow}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
