"""Cold-start probe: one fresh interpreter brings a workload's first cell
to the point where it is ready to run, then reports when it got there.

Run by ``run.py`` as ``python3 perfbench/setup_probe.py WORKLOAD SEED`` with
``PYTHONPATH`` pointing at ``src``.  It prints one JSON line holding
``time.perf_counter()`` at readiness; on Linux that clock is system-wide
monotonic, so the parent subtracts its own launch instant to get the
set-up time from process start.
"""

import json
import sys
import time

if __name__ == "__main__":
    t_start = time.perf_counter()
    from workloads import build_workload

    # building the cell list imports every simulator module the cell needs
    cell = build_workload(sys.argv[1], int(sys.argv[2]))[0]
    t_imported = time.perf_counter()
    engine = cell.prepare()
    ready = time.perf_counter()
    print(json.dumps({
        "ready": ready,
        "import_s": t_imported - t_start,
        "prepare_s": ready - t_imported,
        **engine,
    }))
