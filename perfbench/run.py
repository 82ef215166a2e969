"""consrep benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload explore-n3 --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

Run from the root of a source checkout; consrep is imported from its
``src`` directory, nothing is installed.  Each run starts fresh
single-threaded child interpreters (``worker.py``): several that only set
up, for ``setup_s``, and one that sets up and then runs timed ops of the
workload for ``--seconds`` seconds.  Every child runs under a fixed
address-space cap below the machine's RAM.  Every op passes a correctness
gate or counts as failed; a child that hits the memory cap, crashes or
overruns counts its op in flight as failed.

With ``--trace 0`` the result carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of traced ops (the median op, taken
per metric) plus the tracing overhead.  The last line of standard output
is the result as JSON; the exit code is 0 only when every gate passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 15
MEM_CAP_MB = 2048            # address-space cap of every child, in MiB
# Set-up and the last op may run past --seconds by this much before the
# children still running are killed.
RUN_MARGIN_S = 120
# Set-up is reported in seconds on a machine whose reference loop
# (worker.reference_s) takes this long: about its time on the baseline
# machine.  Dividing by each child's own probe removes the machine's
# drift in speed, which moves raw set-up times by a fifth between runs.
REF_NOMINAL_S = 0.02

END_TO_END_UNITS = {"setup_s": "s", "wall_ref": "ref", "states_per_ref": "1/ref",
                    "transitions_per_ref": "1/ref", "peak_rss_mb": "MB"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args: list, timeout: float):
    """Run the worker with ``args``; return (spawn time, exit code, JSON
    lines printed).  Kills the child if it outlives ``timeout``."""
    t_spawn = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], cwd=ROOT,
                            env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = []
    for line in out.splitlines():
        try:
            lines.append(json.loads(line))
        except json.JSONDecodeError:
            continue
    return t_spawn, proc.returncode, lines


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + seconds + RUN_MARGIN_S
    common = ["--workload", workload, "--seed", str(seed),
              "--mem-cap-mb", str(MEM_CAP_MB)]

    def child(command, *extra):
        return spawn([command, *common, *extra],
                     timeout=max(deadline - time.monotonic(), 1.0))

    def setup_only():
        """One set-up child's (set-up seconds, fastest reference probe
        after it), or None if it failed."""
        t_spawn, code, lines = child("setup")
        ready = [x["ready"] for x in lines if "ready" in x]
        refs = [x["ref_s"] for x in lines if "ref_s" in x]
        if code != 0 or not ready or not refs:
            return None
        return ready[0] - t_spawn, min(refs[0])

    # One unmeasured set-up first, so that byte-code caches are written
    # before any set-up is timed.  The timed set-ups are split before and
    # after the work child, so that they sample both ends of the run.
    setup_only()
    setups = [setup_only() for _ in range(SETUP_SAMPLES // 2)]
    _, code, lines = child("run", "--seconds", str(seconds), "--trace", str(int(trace)))
    setups += [setup_only() for _ in range(SETUP_SAMPLES - len(setups))]

    ops = [x for x in lines if "wall_s" in x]
    done = next((x for x in lines if x.get("done")), None)
    attempted = sum(op["attempted"] for op in ops)
    failed = sum(op["failed"] for op in ops)
    errors = [e for op in ops for e in op["errors"]]
    memory_hit = any("memory_error" in x for x in lines)
    if code != 0 or done is None or memory_hit:
        # The op in flight when the child died, ran out of memory or was
        # killed never reported: count it as failed.
        attempted += 1
        failed += 1
        errors.append(f"child ended with code {code} after {len(ops)} ops"
                      + (" (memory cap hit)" if memory_hit else ""))
    if None in setups:
        errors.append("a set-up child failed")

    metrics = {}
    untraced = [op for op in ops if not op["traced"]]
    traced = [op for op in ops if op["traced"]]
    if not trace and untraced and None not in setups:
        # Op times are in units of the reference loop timed around each op
        # ("ref"), since the machine's speed drifts by up to half between
        # runs; the table also prints them in seconds.
        metrics = {
            "setup_s": statistics.median(s / ref for s, ref in setups) * REF_NOMINAL_S,
            "wall_ref": statistics.median(op["wall_s"] / op["ref_s"] for op in untraced),
            "states_per_ref": statistics.median(
                op["states"] * op["ref_s"] / op["wall_s"] for op in untraced),
            "transitions_per_ref": statistics.median(
                op["transitions"] * op["ref_s"] / op["wall_s"] for op in untraced),
            "peak_rss_mb": done["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in metrics.items()}
    elif trace and traced and untraced:
        from tracer import layer_metric_names

        for name, unit in layer_metric_names():
            value = statistics.median_low(op["layers"][name] for op in traced)
            metrics[name] = {"value": value, "unit": unit}
        overhead = (statistics.median(op["wall_s"] for op in traced)
                    - statistics.median(op["wall_s"] for op in untraced))
        metrics["tracing.overhead_s"] = {"value": overhead, "unit": "s"}
    correct = failed == 0 and not errors and bool(metrics)
    return {"correct": correct, "attempted": max(attempted, 1), "failed": failed,
            "metrics": metrics, "errors": errors, "ops": len(ops),
            "op_walls": [op["wall_s"] for op in untraced],
            "setup_walls": [s for s, _ in setups] if None not in setups else [],
            "refs": [op["ref_s"] for op in untraced]}


def print_table(workload: str, result: dict) -> None:
    frac = result["failed"] / result["attempted"]
    print(f"== {workload}: {result['ops']} ops, {result['attempted']} attempted, "
          f"{result['failed']} failed, failed_frac {frac:.4f}")
    walls = result["op_walls"]
    if walls:
        print(f"  op wall_s over {len(walls)} untraced ops: min {min(walls):.4f}, "
              f"median {statistics.median(walls):.4f}, max {max(walls):.4f}; "
              f"reference loop median {statistics.median(result['refs']):.5f} s")
    if result["setup_walls"]:
        print(f"  set-up wall_s over {len(result['setup_walls'])} children: median "
              f"{statistics.median(result['setup_walls']):.4f}")
    for name, m in result["metrics"].items():
        print(f"  {name:48s} {m['value']:>16.6f} {m['unit']}")
    for e in result["errors"][:20]:
        print(f"  gate: {e}")


def print_context() -> None:
    ram_gb = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**30
    print(f"python {sys.version.split()[0]}, nproc {os.cpu_count()}, "
          f"RAM {ram_gb:.1f} GiB")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "consrep" / "__init__.py").is_file():
        print(f"error: no consrep sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    print_context()
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
        print_table(args.workload, result)
        print(json.dumps({k: result[k] for k in
                          ("correct", "attempted", "failed", "metrics")}))
        return 0 if result["correct"] else 1

    results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace))
               for w in WORKLOADS}
    for w, result in results.items():
        print_table(w, result)
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    ok = all(r["correct"] for r in results.values())
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "workloads": {w: {k: r[k] for k in ("correct", "metrics")}
                                    for w, r in results.items()}}))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
