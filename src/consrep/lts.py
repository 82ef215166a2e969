"""Labelled transitions over canonical representatives.

The calculus semantics derives every step from the expanded normal form
(``repsem.expansion``, one located component per slot): communication
pairs an output in transit with the matching collector (or the
observer), suspicion fires the right branch of a collector sum, perfect
suspicion lets the observer skip a crashed agent, and a crash shrinks the
live set.  Only channels outside the system's restriction emit.

``keyed_steps`` is the one enumeration of those steps, and its records
are the one form of a step.  It walks the representative's fields
directly and reads, per entry, a record of what its component offers a
step (its output, its silent leaves and its inputs), read off its guard
leaves once per slot and kept on the System under the entry's identity
(entries, the observer's included, are interned per System).  Each step
is a record (key, leaf, rule, action, consumed):
``consumed`` names the slots of the components the step consumes, and
``leaf`` is the located leaf it leaves in place of the last of them.  The
key names the same consumption as a value: ``("c", input owner, output
owner)`` for a Com step, ``("s", owner)`` for a silent one, ``("snd",
owner)`` for a Snd step and ``("x", agent)`` for a crash, where an owner
is an entry's identity.  The leaves a Com step leaves behind are
substituted once per Com key.  The correspondence check compares these
keys with the ones the representative semantics' rules carry
(``repsem.Rule``).

A step's target is canonicalised back to a representative, which
realises closure under structural congruence: ``repsem.sf_step`` patches
the source representative, dropping the entries of the consumed slots
(and, on a crash, every entry the crashed agent owns) and merging in the
slots of the leaf left in their place, so only that leaf is evaluated
and classified.  Both halves are memoised per component on the System
(see ``repsem``): that an expansion component is a fixed point and
classifies back to its slot is checked once per slot, and each
replacement leaf is evaluated and classified once, looked up by the
identity of the leaf object that the offer memo or the Com-leaf memo
holds.  Targets are not validated here; the callers validate each state
when they first discover it.  ``calculus_targets`` gives the τ-target set
and the visible (action, target) pairs, for the states the
correspondence check compares in full: it builds no ``Transition`` and
never hashes the shared source, and every step's target is still built,
so an undefined one raises where it stands.  ``step_starts`` gives what
each step of a state leaves before evaluation (``_step_start``, which
lays a record onto ``repsem.expansion``), for the confluence check's
walk over a graph; ``calculus_raw_successors`` composes it into raw
configurations.

The representative semantics takes the successors straight from the rule
set on representatives.  Both expose the same observable: the `ok` send,
which leaves the representative fixed, enabled where ``emits_ok`` says;
its representative rule is kept with the others in ``System._rules``,
under the Snd key of the observer at `ok`.

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


def action_str(action) -> str:
    match action:
        case ("tau",):
            return "tau"
        case ("snd", ch, v):
            return f"{chan_str(ch)}!{value_str(v)}"
    return repr(action)


class Transition(NamedTuple):
    source: repsem.Representative
    action: tuple
    target: repsem.Representative
    rule: str


def select_ti(cfg: Config) -> list:
    """One successor per possible trusted immortal.  Must be applied before
    anything else; every other rule requires the choice made."""
    if cfg.ti is not None:
        raise TiAlreadySet(f"trusted immortal already {cfg.ti}")
    return [cfg._replace(ti=t) for t in sorted(cfg.live)]


def initial_reps(sys: cm.System) -> list:
    """Canonical representatives of the instance, one per trusted immortal."""
    cfg = cm.make_initial(sys.inst)
    return [repsem.sf(sys, c) for c in select_ti(cfg)]


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


def _offer(sys: cm.System, kind: str, entry) -> tuple:
    """What the component of the slot ``(kind, entry)`` offers a step,
    memoised on the System under the identity of ``entry``, as (slot,
    output, silent, inputs, channels):

    * output: None, or (channel, value, Com rule, Snd step) for an output
      in transit, with the Snd step (a ``keyed_steps`` record) None on a
      restricted channel;
    * silent: (step, ti, agent) per Susp or PSusp leaf in guard order,
      with ``step`` its ``keyed_steps`` record, firing in a state unless its
      trusted immortal is ``ti`` or ``agent`` is live (None blocks
      nothing);
    * inputs: (channel, location, pattern, continuation) per input leaf in
      guard order, and channels the distinct channels among them.

    What fires in a state depends only on these and on the state's ti and
    live set.  Entries are interned per System, and an entry's shape
    decides its field, so a lookup by identity hashes no term; the record
    holds ``entry`` alive, so its id is not reused while the record exists.
    The component comes from the slot memo, which checks its round trip."""
    owner = id(entry)
    slot = (kind, entry)
    consumed = (slot,)
    _, location, p = repsem._slot_component(sys, slot)
    output, silent, inputs = None, [], []

    def add_silent(rule, cont, ti=None, agent=None):
        step = (("s", owner), ("loc", location, cont), rule, TAU, consumed)
        silent.append((step, ti, agent))

    match p:
        case ("out", ch, ("lit", v), ("nil",)):
            snd = None
            if ch not in sys.restriction:
                snd = (("snd", owner), None, f"Snd {chan_str(ch)}",
                       act_send(ch, v), consumed)
            output = (ch, v, f"Com {chan_str(ch)}", snd)
        case ("const", "WRAP", _):
            pass  # inert observer: no transitions
        case _:
            protected = "no-ti-protection" not in sys.mutations
            for leaf in _guard_leaves(p):
                match leaf:
                    case ("in", ch, pattern, cont):
                        inputs.append((ch, location, pattern, cont))
                    case ("susp", k, cont):
                        if k != location:
                            add_silent(f"Susp l={location} k={k}", cont,
                                       k if protected else None)
                    case ("psusp", k, cont):
                        add_silent(f"PSusp l={location} k={k}", cont, agent=k)
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
    """Every calculus step of ``rep`` as a record (key, leaf, rule, action,
    consumed), in step order: the silent steps in slot order, then per
    output in transit its Com steps and its Snd step, then the crashes.

    * key names what the step consumes (see the module docstring);
    * consumed: the (kind, fields) slots of the components the step
      consumes, in slot order (``repsem._slots``): the component itself
      for a silent step, the output and then the input for Com, the output
      for Snd, none for a crash;
    * leaf: the located leaf the step leaves in place of the last slot it
      consumes, or None where it leaves none.

    The representative's fields are walked directly: no expansion list is
    built."""
    offers = sys._offers
    live, ti = rep.live, rep.ti
    steps: list = []
    outputs = []   # (slot, owner, output)
    inputs = {}    # channel -> [(slot, owner)], in slot order
    for kind, entries in zip(repsem._FIELD, (*rep[3:8], (rep.wrap,))):
        for entry in entries:
            owner = id(entry)
            offer = offers.get(owner) or _offer(sys, kind, entry)
            slot, output, silent, _, channels = offer
            if output is not None:
                outputs.append((slot, owner, output))
            for step, blocking_ti, blocking_live in silent:
                if blocking_ti != ti and blocking_live not in live:
                    steps.append(step)
            for ch in channels:
                inputs.setdefault(ch, []).append((slot, owner))

    received = sys._received
    for out_slot, out_owner, (och, ov, com_rule, snd) in outputs:
        for in_slot, in_owner in inputs.get(och, ()):
            key = ("c", in_owner, out_owner)
            leaves = received.get(key)
            if leaves is None:
                leaves = _com_leaves(sys, key, och, ov)
            consumed = (out_slot, in_slot)
            for leaf in leaves:
                steps.append((key, leaf, com_rule, TAU, consumed))
        if snd is not None:
            steps.append(snd)

    if rep.budget > 0:
        for location in live:
            if location != ti:
                steps.append((("x", location), None, f"Stop l={location}",
                              TAU, ()))
    return steps


def _step_start(rep: repsem.Representative, comps: list, step: tuple) -> tuple:
    """What ``step``, a ``keyed_steps`` record of ``rep``, leaves before
    evaluation, with ``comps`` the expansion of ``rep``: its context (live,
    budget, ti) and its components in expansion order, those it consumes
    left out and its leaf in place of the last of them, or ``(NNIL,)``
    where none is left."""
    key, leaf, _, _, consumed = step
    left = []
    for slot, comp in comps:
        if slot not in consumed:
            left.append(comp)
        elif slot == consumed[-1] and leaf is not None:
            left.append(leaf)
    live, budget = frozenset(rep.live), rep.budget
    if key[0] == "x":
        live, budget = live - {key[1]}, budget - 1
    return (live, budget, rep.ti), tuple(left) or (NNIL,)


def step_starts(sys: cm.System, rep: repsem.Representative) -> list:
    """``_step_start`` of each calculus step of ``rep``, in step order."""
    comps = repsem.expansion(sys, rep)
    return [_step_start(rep, comps, step) for step in keyed_steps(sys, rep)]


def calculus_raw_successors(sys: cm.System, rep: repsem.Representative) -> list:
    """Table-style transitions of the expanded normal form, as
    (rule, action, raw configuration) with the target not yet evaluated:
    each step's start (``step_starts``) under the system's restriction."""
    return [(rule, action, Config(*context, net=res_chain(npar_chain(left),
                                                          sys.restriction)))
            for (_, _, rule, action, _), (context, left)
            in zip(keyed_steps(sys, rep), step_starts(sys, rep))]


def calculus_targets(sys: cm.System, rep: repsem.Representative) -> tuple:
    """The steps of ``rep`` in the calculus semantics, as the set of the
    targets of its internal steps and the set of (action, target) pairs of
    its visible ones, with no ``Transition`` built and the shared source
    never hashed."""
    taus, visible = set(), set()
    for step in keyed_steps(sys, rep):
        target, action = repsem.sf_step(sys, rep, step), step[3]
        if action == TAU:
            taus.add(target)
        else:
            visible.add((action, target))
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
        key = ("snd", id(rep.wrap))
        rule = sys._rules.get(key) or repsem._keyed_rule(sys, key, rep.wrap)
        triples.append((OK, rep, rule))
    triples.sort()
    return triples


def successors(sys: cm.System, rep: repsem.Representative) -> list:
    """Every transition from a representative, canonically sorted."""
    return [Transition(rep, action, target, rule)
            for action, target, rule in labelled_targets(sys, rep)]
