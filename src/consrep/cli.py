"""Command-line front end: explore, verify, trace.

Configuration comes from flags, falling back to a JSON config file, then
defaults; the file may set only what the command has a flag for, to a value
the flag could give.  Exit codes: 0 pass, 1 usage or configuration error, 2 state
or configuration bound exceeded, 3 check failure (a failed report, a state that breaks
the representative invariants or matches no shape of the encoding, or a
replayed schedule that ends where the algorithm is undefined: faults of
the program, not of its input).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys as _sys

from . import consensus_model as cm
from . import lts, repsem, verifier
from .errors import (
    BoundExceeded,
    ConsrepError,
    EmptyKnowledge,
    GraphTruncated,
    InvariantViolation,
    NotReachableShape,
    StepNotEnabled,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BOUND = 2
EXIT_CHECK_FAILED = 3


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it
    as it was."""
    parser = argparse.ArgumentParser(
        prog="consrep",
        description="Explore and verify the consensus system and its "
                    "standard-form representative semantics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file (flags win over it)")
        p.add_argument("--n", type=int, help="number of agents")
        p.add_argument("--values", help="comma-separated proposed values")
        p.add_argument("--budget", type=int, help="crash budget (default n-1)")
        p.add_argument("--mutate", action="append", default=None,
                       choices=sorted(cm.MUTATIONS),
                       help="enable a fault-injection mutation (testing hook)")
        p.add_argument("--output", help="write the result to this path")

    def add_max_states(p):
        p.add_argument("--max-states", type=_state_bound, dest="max_states",
                       help=f"state bound, at least 1 "
                            f"(default {verifier.DEFAULT_MAX_STATES})")

    p_explore = sub.add_parser("explore", help="explore the state space")
    add_common(p_explore)
    add_max_states(p_explore)
    p_explore.add_argument("--format", choices=["json", "dot", "text"],
                           help="output format (default text)")

    p_verify = sub.add_parser("verify", help="run every machine check; "
                                             "writes a JSON report")
    add_common(p_verify)
    add_max_states(p_verify)

    p_trace = sub.add_parser("trace", help="replay a schedule of rule instances")
    add_common(p_trace)
    p_trace.add_argument("schedule", nargs="*",
                         help="steps: first 'ti=K', then rule instances as "
                              "printed by the enabled list")
    return parser


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_state_bound(value) -> bool:
    # A bound below 1 cannot hold a single state.
    return _is_int(value) and value >= 1


def _state_bound(text: str) -> int:
    value = int(text)
    if not _is_state_bound(value):
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


# Per config key: its default, and what its flag could give, with the test.
_KEYS = {
    "n": (None, "an integer", _is_int),
    "values": (None, "a list of integers or a comma-separated string", lambda v:
               isinstance(v, str) or isinstance(v, list) and all(map(_is_int, v))),
    "budget": (None, "an integer", _is_int),
    "max_states": (verifier.DEFAULT_MAX_STATES, "an integer of at least 1",
                   _is_state_bound),
    "format": (None, "one of dot, json, text", ["dot", "json", "text"].__contains__),
    "output": (None, "a path", lambda v: isinstance(v, str)),
    "mutate": ([], f"a list of names from {sorted(cm.MUTATIONS)}", lambda v:
               isinstance(v, list) and all(m in sorted(cm.MUTATIONS) for m in v)),
}


def _load_config(args) -> dict:
    cfg = {key: default for key, (default, _, _) in _KEYS.items()}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            file_cfg = json.load(fh)
        unknown = set(file_cfg) - set(cfg)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        # A key is accepted where its flag is: the parsed arguments of each
        # command carry exactly the flags it has.
        foreign = {key for key in file_cfg if not hasattr(args, key)}
        if foreign:
            raise ValueError(f"config keys not taken by {args.command}: "
                             f"{sorted(foreign)}")
        for key, value in file_cfg.items():
            _, what, valid = _KEYS[key]
            if not valid(value):
                raise ValueError(f"config key {key!r} must be {what}, not {value!r}")
        cfg.update(file_cfg)
    for key in cfg:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    if isinstance(cfg["values"], str):
        cfg["values"] = [int(x) for x in cfg["values"].split(",") if x]
    if cfg["n"] is None or not cfg["values"]:
        raise ValueError("an instance needs --n and --values")
    return cfg


def _build_system(cfg) -> cm.System:
    inst = cm.make_instance(cfg["n"], cfg["values"], cfg["budget"])
    return cm.build_system(inst, cfg["mutate"])


def _emit(text: str, path):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        print(text)


def _dump_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2)


def cmd_explore(cfg) -> int:
    sys_ = _build_system(cfg)
    code = EXIT_OK
    try:
        graph = verifier.explore(sys_, "representative", cfg["max_states"])
    except BoundExceeded as exc:
        graph = exc.graph
        code = EXIT_BOUND
    stats = verifier.graph_stats(graph)
    fmt = cfg["format"] or "text"
    if fmt == "dot":
        _emit(verifier.export_dot(graph), cfg["output"])
    elif fmt == "json":
        payload = {"stats": [stats], "graph": verifier.graph_jsonable(graph)}
        _emit(_dump_json(payload), cfg["output"])
    else:
        _emit("\n".join(f"{k}: {v}" for k, v in stats.items()), cfg["output"])
    return code


def cmd_verify(cfg) -> int:
    sys_ = _build_system(cfg)
    max_states = cfg["max_states"]

    corr = verifier.check_correspondence(sys_, max_states)
    reports = [corr.to_jsonable()]
    bound_hit = corr.truncated

    # One representative graph serves every check after correspondence:
    # the one it explored, or a fresh exploration where it has none.
    graph = corr.graph
    if graph is None:
        try:
            graph = verifier.explore(sys_, "representative", max_states)
        except BoundExceeded as exc:
            bound_hit = True
            graph = exc.graph

    def skipped(check, bound):
        return {"check": check, "status": "skipped",
                "details": {"reason": f"{bound} bound exceeded"}}

    if graph.truncated:
        reports += [skipped(check, "state") for check in
                    ("confluence", "normal-forms", "properties", "bisimulation")]
    else:
        try:
            reports.append(verifier.check_confluence(sys_, graph).to_jsonable())
        except BoundExceeded:
            bound_hit = True
            reports.append(skipped("confluence", "configuration"))
        reports.append(verifier.check_normal_forms(sys_, graph).to_jsonable())
        reports.append(verifier.check_properties(sys_, graph).to_jsonable())
        ok, evidence = verifier.weak_bisim(graph)
        reports.append({
            "check": "bisimulation",
            "status": "pass" if ok else "fail",
            "details": {"relation_pairs": len(evidence)} if ok
            else {"distinguishing": evidence},
        })

    payload = {"instance": {"n": sys_.n, "values": list(sys_.u),
                            "budget": sys_.inst.budget,
                            "mutations": sorted(sys_.mutations)},
               "reports": reports}
    _emit(_dump_json(payload), cfg["output"])
    if any(r.get("status") == "fail" for r in reports):
        return EXIT_CHECK_FAILED
    if bound_hit:
        return EXIT_BOUND
    return EXIT_OK


def cmd_trace(cfg, schedule) -> int:
    sys_ = _build_system(cfg)
    choices = {f"ti={rep.ti}": rep for rep in lts.initial_reps(sys_)}
    lines = []
    if not schedule:
        for name, rep in choices.items():
            lines.append(f"-- initial after {name}")
            lines.append(repsem.rep_str(rep))
        _emit("\n".join(lines), cfg["output"])
        return EXIT_OK
    first = schedule[0]
    if first not in choices:
        raise StepNotEnabled(first, sorted(choices))
    rep = choices[first]
    lines.append(f"-- {first}")
    lines.append(repsem.rep_str(rep))
    code = EXIT_OK
    for step in [*schedule[1:], None]:
        try:
            # Rule names are distinct among a state's transitions.
            enabled = {rule: target
                       for _, target, rule in lts.labelled_targets(sys_, rep)}
        except EmptyKnowledge as exc:
            # The algorithm is undefined here (mutations only): the replay
            # stops, and what it replayed is printed.
            lines.append(f"-- enabled: undefined ({exc})")
            code = EXIT_CHECK_FAILED
            break
        if step is None:
            lines.append(f"-- enabled: {', '.join(sorted(enabled)) or '(none)'}")
        elif step not in enabled:
            raise StepNotEnabled(step, sorted(enabled))
        else:
            rep = enabled[step]
            repsem.validate_rep(sys_, rep)
            lines.append(f"-- {step}")
            lines.append(repsem.rep_str(rep))
    _emit("\n".join(lines), cfg["output"])
    return code


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv if argv is not None else _sys.argv[1:])
    except SystemExit as exc:
        # argparse exits 2 on bad usage, the code of an exceeded state bound
        # here; --help exits 0.
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        cfg = _load_config(args)
        if args.command == "explore":
            return cmd_explore(cfg)
        if args.command == "verify":
            return cmd_verify(cfg)
        return cmd_trace(cfg, args.schedule)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_USAGE
    except GraphTruncated as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_BOUND
    except (InvariantViolation, NotReachableShape) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_CHECK_FAILED
    except ConsrepError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
