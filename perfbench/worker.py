"""Benchmark child process: one workload, timed, gated, optionally traced.

Run by ``run.py`` in a fresh interpreter with ``src`` on ``PYTHONPATH``,
as ``worker.py setup|run --workload W --seed N --mem-cap-mb M`` (``run``
also takes ``--seconds`` and ``--trace``).  It caps its own address
space, sets up (imports consrep, builds the first System, computes its
initial representatives) and prints a ``ready`` line with its monotonic
clock.  ``setup`` then prints three runs of a fixed reference loop that
measure the machine's current speed, and exits.  ``run`` runs ops of the
workload until the time budget is spent, each between two runs of the
reference loop (verify-n12 also runs it between its instances, outside
the timed calls), and prints each op as one JSON line; a final ``done``
line carries the peak RSS and, in traced runs, writes the spans.

Ops and their correctness gates:

* ``explore-n3``: ``verifier.explore`` on n=3 to a fixed BFS bound, which
  must end in ``BoundExceeded`` with exactly the bound's states.  For the
  default seed the first op's counts and digest of the prefix
  (representative keys in id order, then edges) must match
  ``digests.json``; for every seed each op must repeat the first op's
  prefix.
* ``corr-n3``: ``verifier.check_correspondence`` on n=3 to a fixed bound;
  it must pass, find no defects and check exactly the bound's states.
* ``verify-n12``: one pass of ``consrep verify`` over the seven n<=2
  instances; each must exit 0 with every report ``pass``, and its report
  bytes must match ``digests.json`` (default seed) or the first pass.

``python3 perfbench/worker.py record-digests`` rewrites ``digests.json``
from the current code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import statistics
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
OUT_DIR = ROOT / ".perfbench_out"

# consrep is imported inside the functions below: its import is part of
# the set-up that setup() times.

DEFAULT_SEED = 0
EXPLORE_BOUND = 10_000
CORR_BOUND = 1_000
WORKLOADS = ("explore-n3", "corr-n3", "verify-n12")
REF_ITERATIONS = 300_000


def reference_s() -> float:
    """Wall time of a fixed pure-Python loop, about 15-20 ms.

    The shared machine's speed drifts by up to half over seconds to
    minutes; op times divided by the mean of this probe, taken right
    before and after each op and, in verify-n12, between its instances,
    track the drift and leave the work's own cost."""
    start = time.perf_counter()
    total = 0
    for i in range(REF_ITERATIONS):
        total += i * i
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# Inputs from the seed.

def n3_values(seed: int) -> tuple:
    """Proposals for the three-agent instance: (1,2,3) for the default
    seed, else three distinct values from 1..9 in seeded order."""
    if seed == DEFAULT_SEED:
        return (1, 2, 3)
    return tuple(random.Random(seed).sample(range(1, 10), 3))


def n12_instances(seed: int) -> list:
    """The seven acceptance instances as (n, values, budget): n=1 with one
    value, n=2 with (a,b), (b,a) and (c,c), budgets 0 and 1.  The default
    seed gives (4), (5,7), (7,5), (3,3)."""
    if seed == DEFAULT_SEED:
        d, a, b, c = 4, 5, 7, 3
    else:
        d, a, b, c = random.Random(seed).sample(range(1, 10), 4)
    instances = [(1, (d,), 0)]
    for values in ((a, b), (b, a), (c, c)):
        instances += [(2, values, 0), (2, values, 1)]
    return instances


def instance_key(n: int, values: tuple, budget: int) -> str:
    return f"n={n} values={','.join(map(str, values))} budget={budget}"


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Ops.  Each returns a dict with the timed wall time, the states and
# transitions handled, and the ops attempted and failed with reasons.

def _result(wall_s, states, transitions, attempted, errors) -> dict:
    return {"wall_s": wall_s, "states": states, "transitions": transitions,
            "attempted": attempted, "failed": len(errors), "errors": errors}


def prefix_digest(graph) -> str:
    """sha256 over the representative keys in id order, then the edges."""
    from consrep import lts, repsem

    ids = graph.node_ids
    h = hashlib.sha256()
    for rep in sorted(ids, key=ids.__getitem__):
        h.update(repsem.rep_key(rep).encode())
        h.update(b"\n")
    for tr in graph.edges:
        h.update(f"{ids[tr.source]} {ids[tr.target]} "
                 f"{lts.action_str(tr.action)} {tr.rule}\n".encode())
    return h.hexdigest()


def explore_gate(graph, bound: int, expected: dict | None,
                 first_fingerprint: int | None) -> tuple:
    """Errors of one explore op, and the prefix's in-process fingerprint.

    The recorded digest is compared only when ``expected`` is given (the
    first op of a default-seed run); every later op must repeat the first
    op's fingerprint, a hash of the same node order and edges."""
    if graph is None:
        return ["explore ended below the bound instead of raising BoundExceeded"], None
    errors = []
    if len(graph.node_ids) != bound:
        errors.append(f"{len(graph.node_ids)} states, expected {bound}")
    if graph.defects:
        errors.append(f"{len(graph.defects)} defects")
    if expected is not None:
        if len(graph.edges) != expected["transitions"]:
            errors.append(f"{len(graph.edges)} transitions, "
                          f"expected {expected['transitions']}")
        if prefix_digest(graph) != expected["digest"]:
            errors.append("prefix digest differs from the recorded one")
    fingerprint = hash((tuple(graph.node_ids), graph.edges))
    if first_fingerprint is not None and fingerprint != first_fingerprint:
        errors.append("prefix differs from the first op's")
    return errors, fingerprint


class ExploreN3:
    def __init__(self, seed: int, digests: dict):
        from consrep import consensus_model as cm

        self.inst = cm.make_instance(3, n3_values(seed))
        recorded = digests["explore-n3"]
        self.expected = recorded if (seed == DEFAULT_SEED
                                     and recorded["bound"] == EXPLORE_BOUND) else None
        self.first_fingerprint = None

    def system(self):
        from consrep import consensus_model as cm
        return cm.build_system(self.inst)

    def run(self, sys_) -> dict:
        from consrep import verifier
        from consrep.errors import BoundExceeded

        graph = None
        start = time.perf_counter()
        try:
            verifier.explore(sys_, "representative", max_states=EXPLORE_BOUND)
        except BoundExceeded as exc:
            graph = exc.graph
        wall = time.perf_counter() - start
        first = self.first_fingerprint is None
        errors, fingerprint = explore_gate(
            graph, EXPLORE_BOUND, self.expected if first else None,
            self.first_fingerprint)
        if first:
            self.first_fingerprint = fingerprint
        states = len(graph.node_ids) if graph else 0
        transitions = len(graph.edges) if graph else 0
        return _result(wall, states, transitions, 1, errors)


def corr_gate(report, bound: int) -> list:
    errors = []
    if not report.passed:
        errors.append(f"correspondence failed: {len(report.sound_failures)} sound, "
                      f"{len(report.complete_failures)} complete")
    if report.defects:
        errors.append(f"{len(report.defects)} defects")
    if report.checked != bound:
        errors.append(f"checked {report.checked} states, expected {bound}")
    return errors


class CorrN3:
    def __init__(self, seed: int, digests: dict):
        from consrep import consensus_model as cm

        self.inst = cm.make_instance(3, n3_values(seed))

    def system(self):
        from consrep import consensus_model as cm
        return cm.build_system(self.inst)

    def run(self, sys_) -> dict:
        from consrep import repsem, verifier

        # The op's transitions are the successor pairs the check compares:
        # the distinct representative-semantics targets of each state it
        # checks, which equal the calculus-side targets when it passes.
        # They are counted as the op makes them, so a check that compares
        # fewer or more pairs moves transitions_per_ref.
        original = repsem.rep_successors
        pairs = 0

        def counted(sys_, rep):
            nonlocal pairs
            result = original(sys_, rep)
            pairs += len({target for _, target in result})
            return result

        repsem.rep_successors = counted
        try:
            start = time.perf_counter()
            report = verifier.check_correspondence(sys_, max_states=CORR_BOUND)
            wall = time.perf_counter() - start
        finally:
            repsem.rep_successors = original
        errors = corr_gate(report, CORR_BOUND)
        if pairs == 0:
            errors.append("no successor pairs counted: the check no longer calls "
                          "repsem.rep_successors")
        return _result(wall, report.checked, pairs, 1, errors)


def verify_instance(n: int, values: tuple, budget: int, out_path: Path,
                    expected_sha: str | None, mutations=()) -> tuple:
    """Run ``consrep verify`` on one instance.

    Returns (wall seconds, errors, report sha256, states, transitions)."""
    from consrep import cli

    argv = ["verify", "--n", str(n), "--values", ",".join(map(str, values)),
            "--budget", str(budget), "--output", str(out_path)]
    for m in mutations:
        argv += ["--mutate", m]
    out_path.unlink(missing_ok=True)
    start = time.perf_counter()
    code = cli.main(argv)
    wall = time.perf_counter() - start
    errors = []
    if code != 0:
        errors.append(f"exit code {code}")
    if not out_path.exists():
        return wall, errors + ["no report written"], None, 0, 0
    data = out_path.read_bytes()
    sha = hashlib.sha256(data).hexdigest()
    payload = json.loads(data)
    failing = [r["check"] for r in payload["reports"] if r.get("status") != "pass"]
    if failing:
        errors.append(f"checks not passing: {', '.join(failing)}")
    if expected_sha is not None and sha != expected_sha:
        errors.append("report bytes differ from the recorded digest")
    states = transitions = 0
    for r in payload["reports"]:
        if r["check"] == "properties":
            states = r["details"]["states"]
            transitions = r["details"]["transitions"]
    return wall, errors, sha, states, transitions


class VerifyN12:
    def __init__(self, seed: int, digests: dict):
        self.instances = n12_instances(seed)
        self.expected = digests["verify-n12"] if seed == DEFAULT_SEED else {}
        self.first: dict = {}
        OUT_DIR.mkdir(exist_ok=True)
        self.out_path = OUT_DIR / "verify-report.json"

    def system(self):
        return None     # each verify builds its own System

    def run(self, _sys) -> dict:
        wall = 0.0
        states = transitions = failed = 0
        errors = []
        probes = []
        for i, (n, values, budget) in enumerate(self.instances):
            if i:
                probes.append(reference_s())
            key = instance_key(n, values, budget)
            expected = self.expected.get(key) or self.first.get(key)
            w, errs, sha, s, t = verify_instance(n, values, budget, self.out_path,
                                                 expected)
            self.first.setdefault(key, sha)
            wall += w
            states += s
            transitions += t
            failed += bool(errs)
            errors += [f"{key}: {e}" for e in errs]
        result = _result(wall, states, transitions, len(self.instances), errors)
        result["failed"] = failed
        result["inner_refs"] = probes
        return result


WORKLOAD_CLASSES = {"explore-n3": ExploreN3, "corr-n3": CorrN3,
                    "verify-n12": VerifyN12}


# ---------------------------------------------------------------------------
# The child's main loop.

def emit(obj) -> None:
    print(json.dumps(obj), flush=True)


def setup(workload: str, seed: int):
    """The set-up a user pays before the first timed call: import consrep,
    build the workload's first System, compute its initial states."""
    import consrep
    from consrep import cli, lts  # noqa: F401  (cli is part of the import cost)
    from consrep import consensus_model as cm

    src = (ROOT / "src").resolve()
    if Path(consrep.__file__).resolve().parent.parent != src:
        raise SystemExit(f"consrep imported from {consrep.__file__}, not {src}")
    if workload == "verify-n12":
        n, values, budget = n12_instances(seed)[0]
    else:
        n, values, budget = 3, n3_values(seed), None
    sys_ = cm.build_system(cm.make_instance(n, values, budget))
    lts.initial_reps(sys_)


def run_ops(workload: str, seed: int, seconds: float, trace: bool) -> None:
    bench = WORKLOAD_CLASSES[workload](seed, load_digests())
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
    deadline = time.perf_counter() + seconds
    last = 0.0
    k = 0
    # Traced runs alternate untraced and traced ops, so that the tracing
    # overhead is measured in the same process.
    min_ops = 2 if trace else 1
    while k < min_ops or time.perf_counter() + last <= deadline:
        begin = time.perf_counter()
        sys_ = bench.system()
        traced = trace and k % 2 == 1
        result = None
        ref_before = reference_s()
        try:
            if traced:
                tracer.install()
                try:
                    result, layers = tracer.run_op(lambda: bench.run(sys_), sys_)
                finally:
                    tracer.uninstall()
                result["layers"] = layers
            else:
                result = bench.run(sys_)
        except MemoryError:
            pass
        if result is None:
            # Reported once the handler has released the op's memory.
            emit({"memory_error": True, "op": k})
            break
        result["traced"] = traced
        result["ref_s"] = statistics.fmean(
            [ref_before, *result.pop("inner_refs", []), reference_s()])
        emit(result)
        del sys_
        last = time.perf_counter() - begin
        k += 1
    done = {"done": True,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{workload}-seed{seed}.tsv"
        tracer.write(path)
        done["spans"] = len(tracer.spans)
    emit(done)


def record_digests() -> None:
    """Recompute the default seed's gate data and rewrite digests.json."""
    from consrep import consensus_model as cm
    from consrep import verifier
    from consrep.errors import BoundExceeded

    sys_ = cm.build_system(cm.make_instance(3, n3_values(DEFAULT_SEED)))
    try:
        verifier.explore(sys_, "representative", max_states=EXPLORE_BOUND)
        raise SystemExit("explore finished below the bound")
    except BoundExceeded as exc:
        graph = exc.graph
    record = {"explore-n3": {"bound": EXPLORE_BOUND,
                             "states": len(graph.node_ids),
                             "transitions": len(graph.edges),
                             "digest": prefix_digest(graph)},
              "verify-n12": {}}
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / "record.json"
    for n, values, budget in n12_instances(DEFAULT_SEED):
        _, errors, sha, _, _ = verify_instance(n, values, budget, out, None)
        if errors:
            raise SystemExit(f"{instance_key(n, values, budget)}: {errors}")
        record["verify-n12"][instance_key(n, values, budget)] = sha
    DIGESTS.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("record-digests", help="rewrite digests.json from the current code")
    setup_parser = commands.add_parser(
        "setup", help="set up, print the ready line and a reference probe, exit")
    run_parser = commands.add_parser("run", help="set up, then run timed ops")
    for sub in (setup_parser, run_parser):
        sub.add_argument("--workload", required=True, choices=WORKLOADS)
        sub.add_argument("--seed", type=int, required=True)
        sub.add_argument("--mem-cap-mb", type=int, required=True,
                         help="address-space cap in MiB")
    run_parser.add_argument("--seconds", type=float, required=True)
    run_parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.command == "record-digests":
        record_digests()
        return 0
    cap = args.mem_cap_mb * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    setup(args.workload, args.seed)
    emit({"ready": time.monotonic()})
    if args.command == "setup":
        emit({"ref_s": [reference_s() for _ in range(3)]})
    else:
        run_ops(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
