"""Run one pass of a workload in a fresh process and write its measurements.

Started by run.py as ``python3 wrbench/pass_runner.py '<spec json>'`` with
PYTHONPATH pointing at the checkout's ``src``.  A fresh process per pass
gives every pass the same cold state and its own peak-memory reading.
The start of the timed span is reported on the system-wide monotonic clock,
so that run.py can take out of the wall time the stops it made.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time
from pathlib import Path

from spans import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def _steal_s() -> float:
    """Time the hypervisor has taken from this VM's vCPUs, summed over them,
    from /proc/stat; 0.0 where it is not available."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def _cpu(who) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def main(spec: dict) -> int:
    import wrlat  # imports every wrlat module, so the tracer sees all bindings

    if Path(wrlat.__file__).resolve().parent != (ROOT / "src" / "wrlat").resolve():
        print(f"wrlat was imported from {wrlat.__file__}, not from this checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[spec["workload"]]
    out_dir = Path(spec["out_dir"])
    tracer = Tracer(out_dir) if spec["trace"] else None
    with tracer or contextlib.nullcontext():
        self0, kids0 = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
        steal0, t0 = _steal_s(), time.perf_counter()
        raw = workload.run(spec["params"], out_dir, spec["index"])
        wall = time.perf_counter() - t0
        steal = _steal_s() - steal0
        parent_cpu = _cpu(resource.RUSAGE_SELF) - self0
        cpu = parent_cpu + _cpu(resource.RUSAGE_CHILDREN) - kids0
    peak_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {"start": t0, "wall_s": wall, "steal_s": steal, "cpu_s": cpu, "parent_cpu_s": parent_cpu,
              "peak_rss_mb": peak_kb / 1024, "raw": raw}
    if tracer:
        tracer.merge_workers()
        result["trace"] = tracer.report()
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
