#!/usr/bin/env python3
"""A large design-space sweep through the geometry-grouped planner.

``evaluate_many`` plans every batch before any work starts: requests are
grouped per workload and ordered by pass signature, so each profiling
pass is computed exactly once per trace across the whole batch — also
under ``jobs > 1``, where each group goes to one worker and traces the
parent session already holds ship as raw column bytes.  With the
``repro.accel`` NumPy kernels installed (``pip install '.[accel]'``) the
profiling passes themselves are vectorized, bit-identically to the
stdlib backend.

This script sweeps the paper's full 192-point Table-2 space over a few
workloads (576+ evaluations), prints the per-workload best performer, and
shows the knobs that matter for big sweeps:

* ``REPRO_ACCEL`` / ``repro.accel.set_backend`` — kernel backend;
* ``jobs=N`` — shard groups across worker processes;
* ``cache_dir`` — persist traces/passes so the next sweep starts warm.

Run with:  python examples/table2_sweep.py [workload ...]
"""

import sys
import time

from repro.accel import active_backend
from repro.api import SweepRequest, evaluate_many
from repro.dse.space import default_design_space
from repro.workloads.registry import suite_names

DEFAULT_WORKLOADS = ("sha", "dijkstra", "gsm_c")


def main(names: list[str]) -> None:
    unknown = set(names) - set(suite_names("mibench"))
    if unknown:
        raise SystemExit(f"unknown workloads: {sorted(unknown)}")
    space = default_design_space()
    sweep = SweepRequest.make(names, machines=space.specs(range(len(space))))
    requests = sweep.expand()
    print(f"{len(requests)} evaluations "
          f"({len(names)} workloads x {len(requests) // len(names)} "
          f"configurations), kernel backend: {active_backend()}\n")

    start = time.perf_counter()
    results = evaluate_many(requests)  # planned + grouped automatically
    elapsed = time.perf_counter() - start

    for name in names:
        mine = [result for result in results if result.workload == name]
        fastest = min(mine, key=lambda result: result.seconds)
        print(f"{name:12s} best machine: {fastest.machine:42s} "
              f"cpi={fastest.cpi:.3f}")
    print(f"\nswept {len(requests)} points in {elapsed:.2f} s "
          f"({elapsed / len(requests) * 1e3:.2f} ms per evaluation)")


if __name__ == "__main__":
    main(list(sys.argv[1:]) or list(DEFAULT_WORKLOADS))
