"""Labelled transitions over canonical representatives.

The calculus semantics derives every step from the expanded normal form
(``repsem.expansion``, one located component per slot): communication
pairs an output in transit with the matching collector (or the
observer), suspicion fires the right branch of a collector sum, perfect
suspicion lets the observer skip a crashed agent, and a crash shrinks the
live set.  Only channels outside the system's restriction emit.

``keyed_steps`` is the one enumeration of those steps.  It walks the
representative's fields directly and reads, per entry, a record of what
its component offers a step (its output, its silent leaves and its
inputs), read off its guard leaves once per slot and kept on the System
under the entry's identity (entries are interned per System), or under
the wrap value for the observer.  Each step comes out as a record with a
key that names what it consumes: ``("c", input owner, output owner)`` for
a Com step, ``("s", owner)`` for a silent one, ``("snd", owner)`` for a
Snd step and ``("x", agent)`` for a crash, where an owner is an entry's
identity or the observer's wrap value.  The leaves a Com step leaves
behind are substituted once per Com key.  The correspondence check
compares these keys with the ones the representative semantics' rules
carry (``repsem.Rule``) and builds no ``Step``; ``_calculus_steps``
builds the ``Step`` of each record, a record of the components it
replaces by index into the expansion.

A step's target is canonicalised back to a representative, which
realises closure under structural congruence: ``repsem.sf_step`` patches
the source representative, dropping the entries of the replaced
components (and, on a crash, every entry the crashed agent owns) and
merging in the slots of the leaves left in their place, so only those
leaves are evaluated and classified.  Both halves are memoised per
component on the System (see ``repsem``): that an expansion component is
a fixed point and classifies back to its slot is checked once per slot,
and each replacement leaf is evaluated and classified once, looked up by
the identity of the leaf object that the offer memo or the Com-leaf memo
holds.  Targets are not validated here; the callers validate each state
when they first discover it.  ``calculus_targets`` gives the τ-target set
and the visible (action, target) pairs, for the states the
correspondence check compares in full: it builds no ``Transition`` and
never hashes the shared source, and every step's target is still built,
so an undefined one raises where it stands.  ``step_starts`` gives what
each step of a state leaves before evaluation (``_step_start``), for the
confluence check's walk over a graph; ``calculus_raw_successors``
composes it into raw configurations, the definition the tests compare
against.

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
# The rule of the representative semantics' `ok` step.  Its key names the
# observer at `ok`, the one wrap value that emits (``emits_ok``; validation
# pins the remembered value to bot), so one record serves every System.
OK_RULE = repsem.Rule("Snd ok", "Snd", ("snd", (0, BOT, 1)))


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


# The slot kind of each field of a representative from out1 on, in
# expansion order.
_KINDS = ("out1", "out2", "out3", "in1", "in2", "wrap")


def _offer(sys: cm.System, owner, kind: str, entry) -> tuple:
    """What the component of the slot ``(kind, entry)`` offers a step,
    memoised on the System under ``owner``, as (slot, output, silent,
    inputs, channels):

    * output: None, or (channel, value, Com rule, Snd record) for an output
      in transit, with the Snd record (step key, rule, action) None on a
      restricted channel;
    * silent: (step key, new located leaf, rule, ti, agent) per Tau, Susp
      or PSusp leaf in guard order, firing in a state unless its trusted
      immortal is ``ti`` or ``agent`` is live (None blocks nothing);
    * inputs: (channel, location, pattern, continuation) per input leaf in
      guard order, and channels the distinct channels among them.

    What fires in a state depends only on these and on the state's ti and
    live set.  ``owner`` is the identity of ``entry`` (entries are interned
    per System, and an entry's shape decides its field), or the wrap value
    itself for the observer, so a lookup hashes no term; the record holds
    ``entry`` alive, so its id is not reused while the record exists.  The
    component comes from the slot memo, which checks its round trip."""
    slot = (kind, entry)
    _, location, p = repsem._slot_component(sys, slot)
    output, silent, inputs = None, [], []
    match p:
        case ("out", ch, ("lit", v), ("nil",)):
            snd = None
            if ch not in sys.restriction:
                snd = (("snd", owner), f"Snd {chan_str(ch)}", act_send(ch, v))
            output = (ch, v, f"Com {chan_str(ch)}", snd)
        case ("const", "WRAP", _):
            pass  # inert observer: no transitions
        case ("tau", cont):
            silent.append((("s", owner), ("loc", location, cont),
                           f"Tau l={location}", None, None))
        case _:
            protected = "no-ti-protection" not in sys.mutations
            for leaf in _guard_leaves(p):
                match leaf:
                    case ("in", ch, pattern, cont):
                        inputs.append((ch, location, pattern, cont))
                    case ("susp", k, cont):
                        if k != location:
                            silent.append((("s", owner), ("loc", location, cont),
                                           f"Susp l={location} k={k}",
                                           k if protected else None, None))
                    case ("psusp", k, cont):
                        silent.append((("s", owner), ("loc", location, cont),
                                       f"PSusp l={location} k={k}", None, k))
    channels = tuple(dict.fromkeys(ch for ch, *_ in inputs))
    offer = sys._offers[owner] = (slot, output, tuple(silent), tuple(inputs),
                                  channels)
    return offer


def _com_leaves(sys: cm.System, key: tuple, channel, value) -> tuple:
    """The located leaves the input owner of the Com step key ``key``
    leaves behind on receiving ``value`` on ``channel``, one per input leaf
    on that channel in guard order, memoised on the System under ``key``.
    The output owner's record decides ``channel`` and ``value``, so the key
    decides the leaves."""
    _, in_owner, _ = key
    inputs = sys._offers[in_owner][3]
    leaves = sys._received[key] = tuple(
        ("loc", location, substitute(cont, pattern, value))
        for ch, location, pattern, cont in inputs if ch == channel)
    return leaves


def keyed_steps(sys: cm.System, rep: repsem.Representative) -> list:
    """Every calculus step of ``rep`` as a record (key, leaf, ...), in step
    order: the silent steps in component order, then per output in transit
    its Com steps and its Snd step, then the crashes.  Components are
    numbered in expansion order (``repsem._slots``); an owner is the
    identity of an entry, or the observer's wrap value (see ``_offer``).

    * Silent: (("s", owner), new leaf, rule, index).
    * Com: (("c", input owner, output owner), new leaf, rule, output index,
      input index).
    * Snd: (("snd", owner), None, rule, index, action).
    * Stop: (("x", agent), None).

    A key names the entries its step consumes; ``_step`` builds the
    ``Step`` of a record.  The representative's fields are walked
    directly: no expansion list and no ``Step`` is built."""
    offers = sys._offers
    live, ti = rep.live, rep.ti
    steps: list = []
    outputs = []   # (index, owner, output)
    inputs = {}    # channel -> [(index, owner)], in component order
    idx = 0
    for kind, entries in zip(_KINDS, (*rep[3:8], (rep.wrap,))):
        for entry in entries:
            owner = entry if kind == "wrap" else id(entry)
            offer = offers.get(owner) or _offer(sys, owner, kind, entry)
            _, output, silent, _, channels = offer
            if output is not None:
                outputs.append((idx, owner, output))
            for key, leaf, rule, blocking_ti, blocking_live in silent:
                if blocking_ti != ti and blocking_live not in live:
                    steps.append((key, leaf, rule, idx))
            for ch in channels:
                inputs.setdefault(ch, []).append((idx, owner))
            idx += 1

    received = sys._received
    for oidx, out_owner, (och, ov, com_rule, snd) in outputs:
        for iidx, in_owner in inputs.get(och, ()):
            key = ("c", in_owner, out_owner)
            leaves = received.get(key)
            if leaves is None:
                leaves = _com_leaves(sys, key, och, ov)
            for leaf in leaves:
                steps.append((key, leaf, com_rule, oidx, iidx))
        if snd is not None:
            key, rule, action = snd
            steps.append((key, None, rule, oidx, action))

    if rep.budget > 0:
        for location in live:
            if location != ti:
                steps.append((("x", location), None))
    return steps


def _step(record) -> Step:
    """The ``Step`` of one ``keyed_steps`` record."""
    key, leaf, *at = record
    match key[0]:
        case "s":
            rule, idx = at
            return Step(rule, TAU, {idx: leaf})
        case "c":
            rule, oidx, iidx = at
            return Step(rule, TAU, {oidx: None, iidx: leaf})
        case "snd":
            rule, idx, action = at
            return Step(rule, action, {idx: None})
    return Step(f"Stop l={key[1]}", TAU, {}, key[1])


def _calculus_steps(sys: cm.System, rep: repsem.Representative) -> list:
    """Every table-style step of ``rep``, in ``keyed_steps`` order, each
    replaced component named by its index in ``repsem.expansion``."""
    return [_step(record) for record in keyed_steps(sys, rep)]


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
            for step in _calculus_steps(sys, rep)]


def step_starts(sys: cm.System, rep: repsem.Representative) -> list:
    """``_step_start`` of each calculus step of ``rep``, in step order:
    ``calculus_raw_successors`` with no term built."""
    comps = repsem.expansion(sys, rep)
    return [_step_start(rep, comps, step)
            for step in _calculus_steps(sys, rep)]


def _step_targets(sys: cm.System, rep: repsem.Representative):
    """Each calculus step of ``rep`` with the representative it reaches,
    in step order; every target is built, so a step whose target is
    undefined raises where it stands."""
    comps = repsem.expansion(sys, rep)
    for step in _calculus_steps(sys, rep):
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
        triples.append((OK, rep, OK_RULE))
    triples.sort()
    return triples


def successors(sys: cm.System, rep: repsem.Representative) -> list:
    """Every transition from a representative, canonically sorted."""
    return [Transition(rep, action, target, rule)
            for action, target, rule in labelled_targets(sys, rep)]
