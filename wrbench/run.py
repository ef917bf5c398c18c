"""wrlat benchmark: run one workload and print its metrics as JSON.

    python3 wrbench/run.py --workload survey_deep --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` it measures set-up time, then runs whole passes of the
workload, each in a fresh process, for about ``--seconds`` seconds and
reports the end-to-end metrics as medians over passes.  With ``--trace 1``
it runs one untraced and one traced pass and reports the per-layer metrics.
Every output is checked exactly; the last line of stdout is the result
object, the line before it the run's environment, inputs and raw samples.

Reported times are seconds at a nominal host speed.  While a pass runs,
this process stops it (with its workers) five times a second, times a fixed
reference task in CPU time with nothing of the workload running, and
resumes it.  The stops, and the share of the pass's busy time that the
hypervisor stole from the VM, are taken out of the pass's wall time.  Each
time of the pass is then multiplied by REFERENCE_NOMINAL_S over the mean of
its readings.  On a shared host whose speed drifts by a third over minutes, and
changes within seconds, this removes most of the drift.  The raw times and
the readings are in the record line.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from spans import LAYERS
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_PASSES = 2
SETUP_SAMPLES_PER_PASS = 4  # spread over the run, so one slow spell of the host does not set them all
RUN_LIMIT_S = 170  # every run, its passes included, ends within this
# roughly the reference task's time on an idle 2-vCPU Xeon VM with Python 3.11
REFERENCE_NOMINAL_S = 0.0015
PROBE_INTERVAL_S = 0.2  # between stops of a pass; each stop lasts about 10 ms
PROBE_SAMPLES = 4

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _child_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def reference_task() -> int:
    """Small Fraction and integer arithmetic, the kind of pure-Python work wrlat does; about 2 ms."""
    acc = 0
    for i in range(1, 401):
        f = Fraction(i % 97 - 48, i % 89 + 1) * Fraction(i % 7 + 1, 3)
        acc += f.numerator % 11 + (i * i) % 13
    return acc


def read_speed() -> float:
    """Median CPU time of the reference task, after one run that warms the caches."""
    reference_task()
    times = []
    for _ in range(PROBE_SAMPLES):
        t0 = time.thread_time()
        reference_task()
        times.append(time.thread_time() - t0)
    return statistics.median(times)


def measure_setup(count: int, deadline: float) -> list[list[float]]:
    """Import time of wrlat.cli in `count` fresh interpreters, each as
    [seconds, reading just before, reading just after]."""
    code = ("import time; t = time.perf_counter(); import wrlat.cli; "
            "print(time.perf_counter() - t, wrlat.cli.__file__)")
    want = (ROOT / "src" / "wrlat" / "cli.py").resolve()
    samples = []
    reading = read_speed()
    for _ in range(count):
        proc = subprocess.run([sys.executable, "-c", code], env=_child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise BenchError(f"importing wrlat.cli failed: {proc.stderr.strip()[-500:]}")
        seconds, path = proc.stdout.split()
        if Path(path).resolve() != want:
            raise BenchError(f"wrlat.cli was imported from {path}, not from this checkout")
        after = read_speed()
        samples.append([float(seconds), reading, after])
        reading = after
    return samples


def _signal_group(pgid: int, sig: int):
    with contextlib.suppress(ProcessLookupError):  # the pass has just exited
        os.killpg(pgid, sig)


def run_pass(name: str, params: dict, out_dir: Path, index: int, trace: bool, deadline: float) -> dict:
    """Run one pass in a process group of its own, stopping it now and then to read the host's speed."""
    result_path = out_dir / f"pass-{index}.json"
    spec = {"workload": name, "params": params, "out_dir": str(out_dir), "index": index,
            "trace": trace, "result": str(result_path)}
    readings, stops = [], []
    with open(out_dir / f"pass-{index}.err", "w+", encoding="utf-8") as err:
        proc = subprocess.Popen([sys.executable, str(BENCH / "pass_runner.py"), json.dumps(spec)],
                                env=_child_env(), cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err,
                                start_new_session=True)
        try:
            while proc.poll() is None:
                if time.monotonic() > deadline:
                    raise BenchError(f"pass {index} did not finish within the run limit")
                try:
                    proc.wait(PROBE_INTERVAL_S)
                    break
                except subprocess.TimeoutExpired:
                    pass
                t0 = time.perf_counter()
                _signal_group(proc.pid, signal.SIGSTOP)
                try:
                    readings.append(read_speed())
                finally:
                    _signal_group(proc.pid, signal.SIGCONT)
                stops.append((t0, time.perf_counter()))
        finally:
            if proc.poll() is None:
                _signal_group(proc.pid, signal.SIGKILL)
                proc.wait()
        if proc.returncode != 0:
            err.seek(0)
            raise BenchError(f"pass {index} failed: {err.read().strip()[-2000:]}")
    p = json.loads(result_path.read_text(encoding="utf-8"))
    # the pass measured [start, start + wall_s] on the same system-wide clock
    begin, end = p["start"], p["start"] + p["wall_s"]
    p["raw_wall_s"] = p["wall_s"]
    p["stopped_s"] = sum(max(0.0, min(b, end) - max(a, begin)) for a, b in stops)
    running = p["wall_s"] - p["stopped_s"]
    # take out the hypervisor's steal: the pass lost the stolen share of the
    # vCPU time it kept busy, its CPU time plus the steal it met
    steal = p["steal_s"] * running / p["wall_s"]
    p["wall_s"] = running * p["cpu_s"] / (p["cpu_s"] + steal)
    if not readings:  # a pass shorter than one interval
        readings.append(read_speed())
    p["reference_s"] = readings
    return p


def speed_factor(p: dict) -> float:
    """Multiplier that turns the pass's measured seconds into nominal seconds.

    The readings are in CPU time, so they give the speed at which the host
    runs code, not how long a process waits for a CPU on a shared host.
    Wall-time readings over-corrected: the probe, woken five times a second,
    met more steal and waiting than the pass did.  The readings are taken at
    even intervals, so their mean is the pass's time-averaged slowness.  Not
    their median: the host switches between a fast and a slow state, about
    1.8 times apart, and the median of such readings jumps from one state to
    the other.
    """
    return REFERENCE_NOMINAL_S / statistics.mean(p["reference_s"])


def end_to_end_metrics(setup: list[list[float]], passes: list[dict], items: list[int]) -> dict:
    """Medians over set-up samples and over passes, with times at nominal speed."""
    med = statistics.median
    values = {
        "setup_s": med(s * REFERENCE_NOMINAL_S / statistics.mean(around) for s, *around in setup),
        "wall_s": med(p["wall_s"] * speed_factor(p) for p in passes),
        "cpu_s": med(p["cpu_s"] * speed_factor(p) for p in passes),
        "items_per_s": med(n / (p["wall_s"] * speed_factor(p)) for n, p in zip(items, passes)),
        "peak_rss_mb": med(p["peak_rss_mb"] for p in passes),
    }
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}


def layer_metrics(untraced: dict, traced: dict, workers: int) -> dict:
    """Per-layer metrics from one traced pass, with the untraced pass as its base."""
    tr = traced["trace"]
    counts = tr["counts"]
    factor = speed_factor(traced)
    # spans were timed with the stops and the steal in them; take out their share
    span_factor = factor * traced["wall_s"] / traced["raw_wall_s"]
    out = {}
    for layer in LAYERS:
        out[f"{layer.key}.calls"] = (tr["calls"].get(layer.key, 0), "count")
        out[f"{layer.key}.self_s"] = (tr["self_s"].get(layer.key, 0.0) * span_factor, "s")
    ideals_out = counts.get("ideals.enumerate_ideals.ideals_out", 0)
    candidates = counts.get("ideals.enumerate_ideals.candidates", 0)
    out["ideals.enumerate_ideals.ideals_out"] = (ideals_out, "count")
    out["ideals.enumerate_ideals.candidates"] = (candidates, "count")
    out["ideals.enumerate_ideals.hit_ratio"] = (ideals_out / candidates if candidates else 0.0, "ratio")
    out["survey.run_survey.parent_cpu_s"] = (counts.get("survey.run_survey.cpu_s", 0.0) * factor, "s")
    out["survey.run_survey.parallel_efficiency"] = (
        untraced["cpu_s"] / (workers * untraced["wall_s"]), "ratio")
    out["svp.enumerate_shortest.vectors_out"] = (counts.get("svp.enumerate_shortest.vectors_out", 0), "count")
    out["trace.overhead"] = (traced["wall_s"] * factor / (untraced["wall_s"] * speed_factor(untraced)) - 1,
                             "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _commit() -> str:
    """HEAD of the checkout, or 'unknown' when it is not a git repository."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}  # not a repository around it
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "commit": _commit(),
    }


def run(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    workload = WORKLOADS[name]
    params = workload.params(seed)
    out_dir = ROOT / ".wrbench_out" / f"{name}-{seed}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        setup, passes, durations = [], [], []
        if trace:
            passes = [run_pass(name, params, out_dir, i, i == 1, deadline) for i in (0, 1)]
        else:
            measure_setup(1, deadline)  # may write bytecode caches; not counted
            measure_start = time.monotonic()
            while True:
                t = time.monotonic()
                setup += measure_setup(SETUP_SAMPLES_PER_PASS, deadline)
                passes.append(run_pass(name, params, out_dir, len(passes), False, deadline))
                durations.append(time.monotonic() - t)
                if (len(passes) >= MIN_PASSES
                        and time.monotonic() - measure_start + statistics.median(durations) > seconds):
                    break
        failures, items = workload.check(name, params, seed, [p["raw"] for p in passes], out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            out_dir.parent.rmdir()
        except OSError:
            pass
    attempted = max(1, sum(items))
    if trace:
        metrics = layer_metrics(passes[0], passes[1], params.get("workers", 1))
    else:
        metrics = end_to_end_metrics(setup, passes, items)
    record = {
        "environment": environment(),
        "workload": name,
        "seed": seed,
        "parameters": params,
        "trace": trace,
        "samples": {"setup_s": len(setup), "passes": len(passes)},
        "raw_setup_s": setup,
        "raw_passes": [{k: p[k] for k in ("raw_wall_s", "stopped_s", "steal_s", "wall_s", "cpu_s",
                                          "parent_cpu_s", "peak_rss_mb", "reference_s")}
                       | {"items": n, "speed_factor": speed_factor(p)} for p, n in zip(passes, items)],
        "fail_ratio": len(failures) / attempted,
        "failures": failures[:20],
        "absent_layers": passes[-1].get("trace", {}).get("absent", []),
        "elapsed_s": time.monotonic() - start,
    }
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its passes (run_pass cleans up on the way out)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (ROOT / "src" / "wrlat" / "__init__.py").is_file():
        print(f"error: no wrlat sources under {ROOT / 'src'}; run from a wrlat checkout", file=sys.stderr)
        return 2
    try:
        record, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
