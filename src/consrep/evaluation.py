"""Structural evaluation of configurations.

The evaluation relation rewrites a located term until every component is
either a message in transit, a guarded sum waiting for input, or the
observer; it splits located parallel compositions, garbage-collects dead
and empty components, evaluates output arguments, unfolds constants and
resolves conditionals.  It is locally confluent and terminating on the
reachable fragment, so its fixed point is the canonical syntactic form a
configuration is summarised by.

One refinement keeps it terminating everywhere it matters: a constant call
whose unfolding resolves straight back to the very same call (the stalled
observer is the one case) is *inert* and is not unfolded.  Cutting that
trivial cycle keeps such components stable under evaluation without losing
any behaviour, since the cycle never exposes a new redex.

Evaluation is compositional.  ``_norm`` is structural over ``res`` and
``npar``, a located component's step reads only whether its location is
live, and a fixed point normalises to itself.  So the fixed point of a
configuration equals that of the same configuration with every parallel
component replaced by its own fixed point under the same live set, and
evaluating the whole raises exactly when evaluating some component does.
The confluence check computes a component's fixed point once per live set
on this ground (``tests/test_confluence_oracle.py`` checks the property on
every configuration it visits on the n<=2 instances).
"""

from __future__ import annotations

from .calculus_ast import (
    NNIL,
    Config,
    Defs,
    as_nat,
    eval_expr,
    match_pattern,
    subst_proc,
)
from .errors import NonTermination, NotFullyEvaluated, UndefinedConstant

DEFAULT_EVAL_STEPS = 10**6


def _unfold_call(name: str, arg, defs: Defs):
    """Unfold a constant call: the substituted body, or None when the call
    is inert (its unfolding resolves straight back to the same call)."""
    eq = defs.equations.get(name)
    if eq is None:
        raise UndefinedConstant(name)
    av = eval_expr(arg, defs.ftable)
    if (name, av) in defs.cache:
        return defs.cache[name, av]
    pattern, body = eq
    unfolded = subst_proc(body, match_pattern(pattern, av))
    t = unfolded
    while t[0] == "if":
        t = t[2] if as_nat(eval_expr(t[1], defs.ftable)) > 0 else t[3]
    if t[0] == "const" and t[1] == name and eval_expr(t[2], defs.ftable) == av:
        unfolded = None
    defs.cache[name, av] = unfolded
    return unfolded


def _located_step(cfg: Config, location, p, defs: Defs):
    """The unique evaluation step of a located component, or None.

    At most one rule applies per position: rules are disjoint by the head
    constructor, and a dead location admits only garbage collection.
    """
    if not cfg.is_live(location):
        return ("E3", NNIL)
    match p:
        case ("par", a, b):
            return ("E1", ("npar", ("loc", location, a), ("loc", location, b)))
        case ("nil",):
            return ("E2", NNIL)
        case ("out", ch, e, cont):
            if e[0] == "lit":
                return None
            v = eval_expr(e, defs.ftable)
            return ("EOut", ("loc", location, ("out", ch, ("lit", v), cont)))
        case ("const", name, arg):
            unfolded = _unfold_call(name, arg, defs)
            if unfolded is None:
                return None
            return ("EConst", ("loc", location, unfolded))
        case ("if", e, a, b):
            if as_nat(eval_expr(e, defs.ftable)) > 0:
                return ("EIfTrue", ("loc", location, a))
            return ("EIfFalse", ("loc", location, b))
    return None


def _rebuild(net, context):
    """``net`` put back in place of the subterm whose ``context`` it is, a
    chain of (tag, sibling, parent context) from the subterm up to the
    root (None): tag 0 for the left of an ``npar``, 1 for its right, 2 for
    the body of a ``res`` whose channel is the sibling."""
    while context is not None:
        tag, other, context = context
        if tag == 0:
            net = ("npar", net, other)
        elif tag == 1:
            net = ("npar", other, net)
        else:
            net = ("res", net, other)
    return net


def eval_steps(cfg: Config, defs: Defs) -> list:
    """All single evaluation steps from a configuration, as (rule name,
    configuration) pairs, in pre-order of the positions they fire at (left
    before right)."""
    found = []
    stack = [(cfg.net, None)]
    while stack:
        net, context = stack.pop()
        match net:
            case ("loc", location, p):
                s = _located_step(cfg, location, p, defs)
                if s is not None:
                    found.append((s[0], _rebuild(s[1], context)))
            case ("npar", a, b):
                if a == NNIL:
                    found.append(("E4", _rebuild(b, context)))
                if b == NNIL:
                    found.append(("E5", _rebuild(a, context)))
                stack.append((b, (1, a, context)))
                stack.append((a, (0, b, context)))
            case ("res", inner, ch):
                stack.append((inner, (2, ch, context)))
    return [(step, cfg._replace(net=net)) for step, net in found]


def _norm(net, cfg: Config, defs: Defs, counter: list, max_steps: int):
    while True:
        match net:
            case ("nnil",):
                return net
            case ("res", inner, ch):
                return ("res", _norm(inner, cfg, defs, counter, max_steps), ch)
            case ("npar", a, b):
                a2 = _norm(a, cfg, defs, counter, max_steps)
                b2 = _norm(b, cfg, defs, counter, max_steps)
                if a2 == NNIL:
                    _tick(counter, max_steps)
                    return b2
                if b2 == NNIL:
                    _tick(counter, max_steps)
                    return a2
                return ("npar", a2, b2)
            case ("loc", location, p):
                s = _located_step(cfg, location, p, defs)
                if s is None:
                    return net
                _tick(counter, max_steps)
                net = s[1]
            case _:
                return net


def _tick(counter: list, max_steps: int):
    counter[0] += 1
    if counter[0] > max_steps:
        raise NonTermination(f"no fixed point within {max_steps} steps")


def evaluate(cfg: Config, defs: Defs, max_steps: int = DEFAULT_EVAL_STEPS) -> Config:
    """Maximal evaluation: the unique fixed point reachable from ``cfg``.

    Applies steps in a fixed order; local confluence (machine-checked by
    the verifier) makes the result independent of that order.
    """
    counter = [0]
    return cfg._replace(net=_norm(cfg.net, cfg, defs, counter, max_steps))


# ---------------------------------------------------------------------------
# The components of fully evaluated configurations.

def split_restriction(net):
    """Peel the outer restriction chain: (channels outermost-first, core)."""
    chans = []
    while net[0] == "res":
        chans.append(net[2])
        net = net[1]
    return tuple(chans), net


def flatten_components(core) -> list:
    """Located components of a restriction-free parallel tree, in order."""
    comps: list = []
    stack = [core]
    while stack:
        n = stack.pop()
        match n:
            case ("nnil",):
                pass
            case ("loc", location, p):
                comps.append((location, p))
            case ("npar", a, b):
                if a == NNIL or b == NNIL:
                    raise NotFullyEvaluated("nil under a parallel composition")
                stack.append(b)
                stack.append(a)
            case ("res", _, _):
                raise NotFullyEvaluated("restriction below a parallel composition")
            case _:
                raise NotFullyEvaluated(f"not a network: {n!r}")
    return comps
