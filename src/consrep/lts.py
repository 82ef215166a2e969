"""Labelled transitions over canonical representatives.

The calculus semantics derives every step from the expanded normal form,
taken as its list of (slot, located component) pairs
(``repsem.expansion``): communication pairs an output in transit with the
matching collector (or the observer), suspicion fires the right branch of
a collector sum, perfect suspicion lets the observer skip a crashed
agent, and a crash shrinks the live set.  Only channels outside the
system's restriction emit.  Each step is a record of the components it
replaces, by index into that list.  Its target is canonicalised back to a
representative, which realises closure under structural congruence:
``repsem.sf_step`` patches the source representative, dropping the
entries of the replaced components (and, on a crash, every entry the
crashed agent owns) and merging in the slots of the leaves left in their
place, so only those leaves are evaluated and classified.  Both halves are
memoised per component on the System (see ``repsem``): that an expansion
component is a fixed point and classifies back to its slot is checked
once per slot, and each replacement leaf is evaluated and classified once,
looked up by the identity of the leaf object that the offer memo or the
received-leaf memo below holds.  What a component offers a step (its
output, its silent leaves and its inputs) is read off its guard leaves
once per slot, and the leaf a Com step leaves behind is substituted once
per (input slot, guard leaf index, received value), since a slot
determines its component.  Targets are not validated here; the callers
validate each state when they first discover it.  ``calculus_targets``
gives the τ-target set and the visible (action, target) pairs, for the
correspondence check: it builds no ``Transition`` and never hashes the
shared source, and every step's target is still built, so an undefined
one raises where it stands.  ``step_starts`` gives what each step of a
state leaves before evaluation (``_step_start``), for the confluence
check's walk over a graph; ``calculus_raw_successors`` composes it into
raw configurations, the definition the tests compare against.

The representative semantics takes the successors straight from the rule
set on representatives.  Both expose the same observable: the `ok` send,
which leaves the representative fixed, enabled where ``emits_ok`` says.

``labelled_targets`` gives a state's transitions as (action, target,
rule) triples in canonical order; every transition shares its source, so
sorting the triples orders the transitions.  ``verifier.explore`` reads
them and builds no ``Transition``; ``successors`` wraps the same triples
for the callers that want ``Transition`` records.
"""

from __future__ import annotations

from typing import NamedTuple

from . import consensus_model as cm
from . import repsem
from .calculus_ast import (
    BOT,
    CHAN_OK,
    NNIL,
    STAR,
    Config,
    chan_str,
    npar_chain,
    res_chain,
    substitute,
    value_str,
)
from .errors import TiAlreadySet

TAU = ("tau",)


def act_send(ch, v) -> tuple:
    return ("snd", ch, v)


OK = act_send(CHAN_OK, BOT)


def action_str(action) -> str:
    match action:
        case ("tau",):
            return "tau"
        case ("snd", ch, v):
            return f"{chan_str(ch)}!{value_str(v)}"
        case ("rcv", ch, v):
            return f"{chan_str(ch)}?{value_str(v)}"
    return repr(action)


class Transition(NamedTuple):
    source: repsem.Representative
    action: tuple
    target: repsem.Representative
    rule: str


def select_ti(sys: cm.System, cfg: Config) -> list:
    """One successor per possible trusted immortal.  Must be applied before
    anything else; every other rule requires the choice made."""
    if cfg.ti is not None:
        raise TiAlreadySet(f"trusted immortal already {cfg.ti}")
    return [cfg._replace(ti=t) for t in sorted(cfg.live)]


def initial_reps(sys: cm.System) -> list:
    """Canonical representatives of the instance, one per trusted immortal."""
    cfg = cm.make_initial(sys.inst)
    return [repsem.sf(sys, c) for c in select_ti(sys, cfg)]


def emits_ok(rep: repsem.Representative) -> bool:
    """Whether the observer of ``rep`` is at `ok` and accepting, the one
    state of the representative semantics with a visible step."""
    wj, _, wb = rep.wrap
    return wj == 0 and wb == 1


# ---------------------------------------------------------------------------
# Calculus steps.

def _guard_leaves(p) -> list:
    leaves = []
    stack = [p]
    while stack:
        g = stack.pop()
        if g[0] == "sum":
            stack.append(g[2])
            stack.append(g[1])
        else:
            leaves.append(g)
    return leaves


class Step(NamedTuple):
    """One calculus step of an expanded normal form, target not yet built."""
    rule: str
    action: tuple
    replaced: dict        # expansion index -> new located leaf, or None
    crashed: int | None = None  # the agent a Stop step crashes


def _offers(sys: cm.System, slot: tuple, comp: tuple) -> tuple:
    """What the component ``comp`` of one expansion slot offers, memoised
    on the System, as (output, silent, inputs):

    * output: None, or (channel, value, Com rule, Snd step) for an output in
      transit, with the Snd step (rule, action) None on a restricted
      channel;
    * silent: (rule, new located leaf, ti, agent) per Tau, Susp or PSusp
      leaf in guard order, firing in a state unless its trusted immortal is
      ``ti`` or ``agent`` is live (None blocks nothing);
    * inputs: (slot, guard leaf index, location, channel, pattern,
      continuation) per input leaf in guard order.

    What fires in a state depends only on these and on the state's ti and
    live set.  The memo is keyed by the identity of ``comp``, which the
    slot memo (``repsem._slot_component``) makes one object per slot, so a
    lookup hashes no term; the entry keeps ``comp`` alive, so its id is
    not reused while the entry exists."""
    entry = sys._offers.get(id(comp))
    if entry is not None:
        return entry[1]
    _, location, p = comp
    output, silent, inputs = None, [], []
    match p:
        case ("out", ch, ("lit", v), ("nil",)):
            snd = None
            if ch not in sys.restriction:
                snd = (f"Snd {chan_str(ch)}", act_send(ch, v))
            output = (ch, v, f"Com {chan_str(ch)}", snd)
        case ("const", "WRAP", _):
            pass  # inert observer: no transitions
        case ("tau", cont):
            silent.append((f"Tau l={location}", ("loc", location, cont), None, None))
        case _:
            protected = "no-ti-protection" not in sys.mutations
            for li, leaf in enumerate(_guard_leaves(p)):
                match leaf:
                    case ("in", ch, pattern, cont):
                        inputs.append((slot, li, location, ch, pattern, cont))
                    case ("susp", k, cont):
                        if k != location:
                            silent.append((f"Susp l={location} k={k}",
                                           ("loc", location, cont),
                                           k if protected else None, None))
                    case ("psusp", k, cont):
                        silent.append((f"PSusp l={location} k={k}",
                                       ("loc", location, cont), None, k))
    offers = (output, tuple(silent), tuple(inputs))
    sys._offers[id(comp)] = (comp, offers)
    return offers


def _calculus_steps(sys: cm.System, rep: repsem.Representative,
                    comps: list) -> list:
    """Every table-style step of the expansion ``comps`` of ``rep``: the
    silent steps in component order, then per output in transit its Com
    steps and its Snd step, then the crashes."""
    live, ti = rep.live, rep.ti
    outputs = []   # (idx, channel, value, Com rule, Snd step)
    inputs = []    # (idx, slot, leaf index, location, channel, pattern, cont)
    steps = []

    for idx, (slot, comp) in enumerate(comps):
        assert comp[1] == STAR or comp[1] in live
        output, silent, ins = _offers(sys, slot, comp)
        if output is not None:
            outputs.append((idx, *output))
        for rule, leaf, blocking_ti, blocking_live in silent:
            if blocking_ti != ti and blocking_live not in live:
                steps.append(Step(rule, TAU, {idx: leaf}))
        if ins:
            inputs.extend((idx, *entry) for entry in ins)

    for oidx, och, ov, com_rule, snd in outputs:
        for iidx, slot, li, iloc, ich, pattern, cont in inputs:
            if och == ich:
                received = sys._received.get((slot, li, ov))
                if received is None:
                    received = sys._received[slot, li, ov] = (
                        "loc", iloc, substitute(cont, pattern, ov))
                steps.append(Step(com_rule, TAU, {oidx: None, iidx: received}))
        if snd is not None:
            steps.append(Step(*snd, {oidx: None}))

    if rep.budget > 0:
        for location in live:
            if location == ti:
                continue
            steps.append(Step(f"Stop l={location}", TAU, {}, location))

    return steps


def _step_start(rep: repsem.Representative, comps: list, step: Step) -> tuple:
    """What a step of the expansion ``comps`` of ``rep`` leaves before
    evaluation: its context (live, budget, ti) and its components, those
    it consumes left out, or ``(NNIL,)`` where none is left."""
    leaves = (step.replaced.get(idx, comp) for idx, (_, comp) in enumerate(comps))
    left = tuple(leaf for leaf in leaves if leaf is not None) or (NNIL,)
    live, budget = frozenset(rep.live), rep.budget
    if step.crashed is not None:
        live, budget = live - {step.crashed}, budget - 1
    return (live, budget, rep.ti), left


def _raw_config(sys: cm.System, rep: repsem.Representative, comps: list,
                step: Step) -> Config:
    """The configuration a step reaches, before evaluation."""
    context, left = _step_start(rep, comps, step)
    return Config(*context, net=res_chain(npar_chain(left), sys.restriction))


def calculus_raw_successors(sys: cm.System, rep: repsem.Representative) -> list:
    """Table-style transitions of the expanded normal form, as
    (rule, action, raw configuration) with the target not yet evaluated."""
    comps = repsem.expansion(sys, rep)
    return [(step.rule, step.action, _raw_config(sys, rep, comps, step))
            for step in _calculus_steps(sys, rep, comps)]


def step_starts(sys: cm.System, rep: repsem.Representative) -> list:
    """``_step_start`` of each calculus step of ``rep``, in step order:
    ``calculus_raw_successors`` with no term built."""
    comps = repsem.expansion(sys, rep)
    return [_step_start(rep, comps, step)
            for step in _calculus_steps(sys, rep, comps)]


def _step_targets(sys: cm.System, rep: repsem.Representative):
    """Each calculus step of ``rep`` with the representative it reaches,
    in step order; every target is built, so a step whose target is
    undefined raises where it stands."""
    comps = repsem.expansion(sys, rep)
    for step in _calculus_steps(sys, rep, comps):
        yield step, repsem.sf_step(sys, rep, comps, step)


def calculus_targets(sys: cm.System, rep: repsem.Representative) -> tuple:
    """The steps of ``rep`` in the calculus semantics, as the set of the
    targets of its internal steps and the set of (action, target) pairs of
    its visible ones, with no ``Transition`` built and the shared source
    never hashed."""
    taus, visible = set(), set()
    for step, target in _step_targets(sys, rep):
        if step.action == TAU:
            taus.add(target)
        else:
            visible.add((step.action, target))
    return taus, visible


def labelled_targets(sys: cm.System, rep: repsem.Representative) -> list:
    """Every transition from a representative as an (action, target, rule)
    triple, in the canonical order of ``successors``: every transition
    shares its source, so sorting the triples orders the transitions."""
    # rep_successors returns distinct pairs, so the triples are distinct.
    triples = [(TAU, target, rule)
               for rule, target in repsem.rep_successors(sys, rep)]
    if emits_ok(rep):
        # Emitting ok consumes the observer; extraction restores it, so the
        # observable loops on the representative.
        triples.append((OK, rep, "Snd ok"))
    triples.sort()
    return triples


def successors(sys: cm.System, rep: repsem.Representative) -> list:
    """Every transition from a representative, canonically sorted."""
    return [Transition(rep, action, target, rule)
            for action, target, rule in labelled_targets(sys, rep)]
