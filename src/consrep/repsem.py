"""Standard-form representatives and their operational rules.

A representative is the global-state view of a reachable configuration:
the context (live set, crash budget, trusted immortal), the messages in
transit per phase, the collectors with their local state, and the
observer position.  Extraction evaluates a configuration to its fixed
point, reads the boxed fields off each component and sorts them;
expansion rebuilds the unique normal-form configuration.  Extraction is
constant on structural-congruence classes, so representative equality
decides congruence on the reachable fragment.

``rep_successors`` is an operational semantics given directly on
representatives.  Per phase there is a reception rule and a suspicion
twin; reception consumes the message in transit, suspicion leaves it and
feeds bot to the collector instead.  Receiving from the last peer rolls
the collector into the next round or the next phase.  The observer
advances on each accepted decision (or past a crashed agent), goes inert
on a conflicting one, and stands at the public `ok` output after the last.
A crash removes an agent and everything it owns.  The whole rule set is
checked against the calculus semantics state by state - see the verifier.

Both phases give a collector the same rule shape: it receives the
transit entry it awaits (from out1 for a round collector in in1, from
out2 for a sync collector in in2) or suspects the sender, and the move
drops that entry, replaces the collector and adds what its local step
sends.  Only the local step (``_phase1_local``, ``_phase2_local``) and
the rule's name differ, so one builder (``_move``), one target builder
(``_move_target``) and one loop serve both phases.  A collector's local
state lives in the parameters of its process constant, so its step is a
function of its own entry and the payload it receives alone.  So each
collector move - a collector entry with the transit entry it consumes,
or with None for its suspicion twin - has one ``Move`` record per
System, shared by every global state, keyed by the identities of those
two objects and holding them alive: its rule record made once, and the
local part of the step (the new entry and the messages sent) as the
(field, entries) pairs it adds, with the sr1-deletes-in1 mutation
already applied.  A state pays only for the global assembly: one lookup
by identity per move, and a rebuild of just the fields the move changes
(an entry dropped, a sorted merge).  An undefined decision raises before
anything is stored.  ``rep_successors`` does not validate what it
returns: its consumers validate each state once, when they first
discover it, against the state it was built from and the rule that built
it where they have them (``validate_rep``).  Each rule preserves the
invariants, so such a state is checked only for what its rule changed, as
the rule's ``Patch`` states it: the entries it added, the agent it
crashed, the observer it rebuilt.  A field the rule only drops from is a
sub-sequence of its source's validated field by construction
(``_move_target``'s slices and sorted merge, SR7's owner filter, SRW1's
``_drop``) and is not walked; that is the trust boundary, and
``tests/test_validate_source.py`` pins it edge by edge.

Each rule instance is a ``Rule`` record, made once: the ``Move`` of a
collector move builds its rule, the observer and crash rules come from a
memo on the System by step key, and ``lts.OK_RULE`` serves every System.  A rule renders,
hashes and sorts as its text, and carries what the checks read of it: its
family, the agent it suspects or perfectly suspects, its patch, and its
step key, which names the entries the step consumes in the key space of
``lts.keyed_steps``, so that the correspondence check pairs the two
semantics' steps without building the calculus targets.  No check parses
rule text.

Calculus-side canonicalisation works per component for the same reason.
``expansion`` lists a representative's normal form as (slot, located
component) pairs, one per slot in ``_slots`` order.  Each component comes
from a per-System memo that checks, once per slot, that the component is
an evaluation fixed point and classifies back to its slot.  ``sfi``
composes those components into a term under the system's restriction.  A
calculus step (an ``lts.keyed_steps`` record) names the slots it consumes,
not positions in that list, so nothing but ``sfi`` and the confluence
starts reads the list's order.  ``sf_step`` builds a step's target by
patching the source representative as the representative rules do: the
entry of each consumed slot leaves its field, the slots of the leaf left
in their place are merged in, and a crash drops what the crashed agent
owns (``crash_target``), as SR7 does in code of its own; the fields a
step leaves alone stay the source's tuples.  The slots a replacement
leaf evaluates to come from a second memo, keyed by the leaf's identity.
Locality makes both memos sound: evaluating a located component reads
only whether its own location is live, so a component or leaf evaluated
alone at its location evaluates the same in every state in which that
location is live.
Neither validates: the explorers validate each calculus-step target when
they first discover it, as they do representative successors.  Full
extraction (``sf``) builds nothing from the memos and validates its
result; it extracts the initial states and stays the oracle the tests
compare the incremental path with.

Representatives are the keys the explorers hash and compare on every
edge, so their entries are hash-consed.  Each distinct out1/out2/out3/
in1/in2 entry is one ``Entry`` per System (``System._entries``), a tuple
that computes its tuple hash once, when it is made.  Entries are interned
only where a memo entry is filled (a collector move, a leaf's
slots) and in ``sf``; the rules, ``sf_step`` and the crash rule reuse
those objects, so no state pays for interning, and the entries of the two
semantics compare by identity.  A representative's value, order, hash,
JSON and digest are those of the same fields as plain tuples, and
``validate_rep`` checks that ``live`` and every entry field are strictly
increasing, the canonical form that makes representative equality decide
congruence.  ``wrap`` stays a plain tuple: the observer rules rebuild it.

Two canonical choices keep extraction a function: once the observer
reaches the `ok` output its remembered value is gone from the term, so
the representative pins it to bot; and a configuration whose observer was
consumed by the environment is restored to that same ok-position
representative.  Emitting `ok` therefore leaves the representative fixed
(the observable self-loop lives in the transition-system layer).
"""

from __future__ import annotations

import json
from bisect import bisect_left
from operator import itemgetter
from typing import NamedTuple

from . import consensus_model as cm
from .calculus_ast import (
    BOT,
    NNIL,
    STAR,
    Config,
    npar_chain,
    res_chain,
    value_str,
)
from .errors import EmptyKnowledge, InvariantViolation, NotReachableShape
from .evaluation import (
    _located_step,
    evaluate,
    flatten_components,
    split_restriction,
)


class Entry(tuple):
    """An interned representative entry (see ``_intern``).  Its hash is
    ``tuple.__hash__`` of its value, computed once when it is made, so a
    representative's hash costs a call per entry in place of a walk over
    every value nested in it.  It pickles and copies as a plain ``tuple``,
    so a hash cached under one hash seed never reaches another process.  A
    tuple subclass cannot have non-empty ``__slots__``, so the hash lives
    in the instance ``__dict__``."""

    def __new__(cls, value):
        self = tuple.__new__(cls, value)
        self._hash = tuple.__hash__(self)
        return self

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return tuple, (tuple(self),)


class Rule(str):
    """A rule instance of the representative semantics as a record.  Its
    value, hash and order are those of its text, the rule as printed, and
    its instance ``__dict__`` holds what the checks read of it:

    * ``family``: the rule's name, the first word of its text;
    * ``key``: its step key in the key space of ``lts.keyed_steps``,
      ``("c", input owner, output owner)`` for a reception,
      ``("s", owner)`` for a suspicion, ``("snd", owner)`` for the `ok`
      send and ``("x", agent)`` for a crash;
    * ``suspected``: the agent a suspicion suspects, None for any other
      rule;
    * ``perfect``: the agent a perfect suspicion passes, 0 for any other
      rule;
    * ``patch``: what the rule changes in any state it applies to (a
      ``Patch``, made with the rule), by which ``validate_rep`` checks its
      targets; None for the `ok` send, whose target is its source, and for
      a move that adds an entry out of bounds (``_patch``).

    A key names entries by identity, which means nothing in another
    process, so a rule pickles and copies as a plain ``str``.  A str
    subclass cannot have non-empty ``__slots__``."""

    def __new__(cls, text: str, family: str, key: tuple, suspected=None,
                perfect: int = 0, patch=None):
        self = str.__new__(cls, text)
        self.family, self.key = family, key
        self.suspected, self.perfect = suspected, perfect
        self.patch = patch
        return self

    def __reduce__(self):
        return str, (str(self),)


def _intern(sys: cm.System, entry: tuple) -> Entry:
    """The System's ``Entry`` for the value ``entry``, made on first
    sight."""
    obj = sys._entries.get(entry)
    if obj is None:
        obj = sys._entries[entry] = Entry(entry)
    return obj


def _classify(sys: cm.System, location, proc) -> tuple:
    """``classify_component`` with the fields of an entry interned."""
    kind, fields = cm.classify_component(sys, location, proc)
    return kind, fields if kind == "wrap" else _intern(sys, fields)


class Representative(NamedTuple):
    """The canonical key of a congruence class.  ``live`` and each of
    out1..in2 are strictly increasing, and out1..in2 hold interned
    ``Entry`` objects; ``wrap`` is a plain tuple.  Its value, order and
    hash are those of the same fields as plain tuples, so a representative
    built by hand from plain tuples is equal to it and finds it in a
    dict."""
    live: tuple      # sorted agent ids
    budget: int
    ti: int
    out1: tuple      # (sender, receiver, round, relay-vector)
    out2: tuple      # (sender, receiver, knowledge-vector)
    out3: tuple      # (sender, decision value)
    in1: tuple       # (agent, round, knowledge, messages, awaited sender)
    in2: tuple       # (agent, knowledge, messages, awaited sender)
    wrap: tuple      # (position, remembered value, accepting flag)


# The fields held in strictly increasing order: live and out1 .. in2.
_CANONICAL_FIELDS = ("live", *Representative._fields[3:8])

# The slot kinds, each named as the field from out1 on that holds it, in
# slot order (``_slots``, ``lts.keyed_steps``), with the field's index in a
# representative.
_FIELD = {kind: k for k, kind in enumerate(Representative._fields) if k >= 3}

# Successors are built positionally, ``_new(Representative, fields)``, past
# the Python-level ``__new__`` of a NamedTuple.
_new = tuple.__new__


_OUT1, _OUT2, _OUT3, _IN1, _IN2, _WRAP = _FIELD.values()


class Patch(NamedTuple):
    """What one rule instance changes in any state it applies to, fields
    named by their index in a representative; ``validate_rep`` checks a
    target that the rule built from a validated source by this alone."""
    same: tuple      # the fields of live, out1 .. in2, wrap it leaves alone
    crashed: int     # the agent SR7 removes, 0 for every other rule
    wrap: bool       # whether it rebuilds the observer
    # Per added entry: (field index, entry, owner, key, the key's reader,
    # the other role fields where it joins out3, in1 or in2).
    placed: tuple


# An entry's first field is its owner.
_owner = itemgetter(0)

# The key an entry of out1 .. in2 holds once in its field, by field index:
# (sender, receiver, round) of a round message, (sender, receiver) of a
# sync message, the owner of the rest.  Entries sort by key first.
_KEY = {_OUT1: itemgetter(0, 1, 2), _OUT2: itemgetter(0, 1), _OUT3: _owner,
        _IN1: _owner, _IN2: _owner}

# The fields whose entries are roles, an agent holding at most one: per
# field of out1 .. in2, the other role fields.
_ROLES = (_OUT3, _IN1, _IN2)
_RIVALS = {f: tuple(g for g in _ROLES if g != f) if f in _ROLES else ()
           for f in _KEY}


def _in_bounds(n: int, field: int, entry) -> bool:
    """Whether the agents and rounds ``entry`` of field ``field`` names,
    its owner aside, lie within the instance's bounds."""
    if field == _OUT1:
        return 1 <= entry[1] <= n and 1 <= entry[2] < n
    if field == _OUT2:
        return 1 <= entry[1] <= n
    if field == _IN1:
        return 1 <= entry[1] < n and 1 <= entry[4] <= n
    if field == _IN2:
        return 1 <= entry[3] <= n
    return True


def _patch(n: int, drops: tuple = (), adds: tuple = (), crashed: int = 0,
           wrap: bool = False) -> Patch | None:
    """The patch of a rule that drops entries from the fields ``drops``,
    adds the (field, entries) pairs ``adds``, removes agent ``crashed`` if
    not 0, and rebuilds the observer if ``wrap``.  None where an added
    entry lies out of the bounds of an instance of ``n`` agents, a fact of
    the entry alone, so that the rule's targets get every check."""
    if not all(_in_bounds(n, f, e) for f, entries in adds for e in entries):
        return None
    changed = {*drops, *(f for f, _ in adds), *((_WRAP,) if wrap else ())}
    same = tuple(k for k in (0, *_FIELD.values()) if k not in changed)
    placed = tuple((f, e, e[0], _KEY[f](e), _KEY[f], _RIVALS[f])
                   for f, entries in adds for e in entries)
    return Patch(same, crashed, wrap, placed)


def _wrap_fault(n: int, wrap) -> str | None:
    """What is wrong with the observer ``wrap``, or None."""
    wj, ww, wb = wrap
    if wb not in (0, 1):
        return f"observer flag {wb}"
    if not 0 <= wj <= n:
        return f"observer position {wj}"
    if wj == 0 and (wb != 1 or ww != BOT):
        return "observer at ok must be accepting with no remembered value"
    return None


def _patch_accepts(n: int, rep, source, patch: Patch) -> bool:
    """Whether ``rep``, built by a rule with ``patch`` from the validated
    ``source``, keeps the representative invariants, judged by what the
    rule changed.  False means only that this does not show it.

    A field the rule only drops from is a sub-sequence of the source's
    field by construction (``_move_target``'s slices and sorted merge,
    SR7's owner filter, SRW1's ``_drop``), so its entries stay in bounds,
    distinct and in order, and it is not walked.  What is checked: the
    budget and the trusted immortal; that the fields the rule leaves alone
    are the source's objects; after SR7, that just its agent left the live
    set and no entry field holds an entry of it (entries sort by owner
    first, so one bisection per field); per added entry (``_patch``
    checked its bounds), that its owner is live and that it sits in its
    field with its neighbours' keys strictly below and above its own, so
    the field stays strictly increasing with no key twice; the roles, where
    an entry joined out3, in1 or in2; and a rebuilt observer."""
    live = rep[0]
    if rep[1] < 0 or rep[2] not in live:
        return False
    for k in patch.same:
        if rep[k] is not source[k]:
            return False
    crashed = patch.crashed
    if crashed:
        if crashed in live or len(live) != len(source[0]) - 1:
            return False
        probe = (crashed,)
        for field in rep[3:8]:
            if field:
                j = bisect_left(field, probe)
                if j < len(field) and field[j][0] == crashed:
                    return False
    for f, entry, owner, key, key_of, rivals in patch.placed:
        if owner not in live:
            return False
        field = rep[f]
        k = bisect_left(field, entry)
        if k == len(field) or field[k] is not entry:
            return False
        if k and not key_of(field[k - 1]) < key:
            return False
        if k + 1 < len(field) and not key < key_of(field[k + 1]):
            return False
        for g in rivals:
            other = rep[g]
            if other:
                j = bisect_left(other, (owner,))
                if j < len(other) and other[j][0] == owner:
                    return False
    return not patch.wrap or _wrap_fault(n, rep[8]) is None


def validate_rep(sys: cm.System, rep: Representative, source=None,
                 rule=None) -> None:
    """Raise ``InvariantViolation`` unless ``rep`` keeps the representative
    invariants: the trusted immortal is live, the budget is not negative,
    every entry is owned by a live agent and within the instance's bounds
    (``_in_bounds``), no message is in transit twice (by its ``_KEY``),
    each agent holds at most one role, the observer is well formed, and
    ``live`` and every entry field are strictly increasing.

    ``source`` is an already validated state that ``rep`` was built from,
    or None, and ``rule`` the rule that built it, or None.  Where the rule
    carries a ``Patch``, only what it changed is checked
    (``_patch_accepts``), and the state passes if that accepts it.
    Otherwise, and wherever it does not, every check below runs, in the
    same order, so the first that fails, and its message, depend on
    neither ``source`` nor ``rule``."""
    n = sys.n
    patch = getattr(rule, "patch", None)
    if (patch is not None and source is not None
            and _patch_accepts(n, rep, source, patch)):
        return
    live_t, budget, ti, out1, out2, out3, in1, in2, wrap = rep
    live = set(live_t)

    if ti not in live:
        raise InvariantViolation(f"trusted immortal {ti} not live")
    if budget < 0:
        raise InvariantViolation("negative crash budget")
    if not (1 <= min(live) and max(live) <= n):
        raise InvariantViolation("live set out of range")

    for f, what in ((_OUT1, "round message"), (_OUT2, "sync message")):
        key_of, seen = _KEY[f], set()
        for entry in rep[f]:
            if entry[0] not in live:
                raise InvariantViolation(f"{what} owned by dead agent {entry[0]}")
            key = key_of(entry)
            if not _in_bounds(n, f, entry):
                raise InvariantViolation(
                    f"{what} ({','.join(map(str, key))}) out of bounds")
            if key in seen:
                raise InvariantViolation(
                    f"duplicate {what} ({','.join(map(str, key))})")
            seen.add(key)
    deciders = list(map(_KEY[_OUT3], out3))
    if len(deciders) != len(set(deciders)):
        raise InvariantViolation("duplicate decision message")
    if not live.issuperset(deciders):
        raise InvariantViolation("decision message owned by dead agent")

    for f in (_IN1, _IN2):
        for entry in rep[f]:
            p = entry[0]
            if p not in live:
                raise InvariantViolation(f"dead agent {p} collecting")
            if not _in_bounds(n, f, entry):
                at = f"{p},{entry[1]}" if f == _IN1 else p
                raise InvariantViolation(
                    f"collector ({at},i={entry[-1]}) out of bounds")
    roles = list(map(_owner, in1))
    roles += map(_owner, in2)
    roles += map(_owner, out3)
    if len(roles) != len(set(roles)):
        raise InvariantViolation("an agent holds two roles at once")

    fault = _wrap_fault(n, wrap)
    if fault is not None:
        raise InvariantViolation(fault)

    # Canonical form: a field out of order would be a second key for one
    # congruence class.
    for name, entries in zip(_CANONICAL_FIELDS,
                             (live_t, out1, out2, out3, in1, in2)):
        prev = None
        for entry in entries:
            if prev is not None and not prev < entry:
                raise InvariantViolation(f"{name} not strictly increasing")
            prev = entry


# ---------------------------------------------------------------------------
# Extraction and expansion.

def _assemble(live, budget: int, ti: int, classified) -> Representative:
    """The representative of a fully evaluated configuration from the
    (kind, fields) pairs its components classify to, every field bucketed
    and sorted afresh.  ``sf`` and the normal-form round trip of
    ``verifier.check_normal_forms`` use it; calculus-step targets are
    patched instead (``sf_step``).  Not validated: ``sf`` validates its
    result."""
    buckets: dict = {"out1": [], "out2": [], "out3": [], "in1": [], "in2": []}
    wrap = None
    for kind, fields in classified:
        if kind != "wrap":
            buckets[kind].append(fields)
        elif wrap is not None:
            raise NotReachableShape("two observer components")
        else:
            wrap = fields
    if wrap is None:
        wrap = (0, BOT, 1)  # the observer was consumed after emitting ok
    return Representative(
        live=tuple(sorted(live)),
        budget=budget,
        ti=ti,
        out1=tuple(sorted(buckets["out1"])),
        out2=tuple(sorted(buckets["out2"])),
        out3=tuple(sorted(buckets["out3"])),
        in1=tuple(sorted(buckets["in1"])),
        in2=tuple(sorted(buckets["in2"])),
        wrap=wrap,
    )


def sf(sys: cm.System, cfg: Config) -> Representative:
    """Extract the standard-form representative of a reachable configuration."""
    if cfg.ti is None:
        raise InvariantViolation("trusted immortal not set")
    fixed = evaluate(cfg, sys.defs)
    chans, core = split_restriction(fixed.net)
    if sorted(chans) != list(sys.restriction):
        raise NotReachableShape("restriction group differs from the system's")
    rep = _assemble(cfg.live, cfg.budget, cfg.ti,
                    [_classify(sys, location, proc)
                     for location, proc in flatten_components(core)])
    validate_rep(sys, rep)
    return rep


def _slots(rep: Representative) -> list:
    """The (kind, fields) slots of ``rep``, in the order of its expansion's
    components."""
    slots = [(kind, entry)
             for kind, entries in zip(_FIELD, rep[3:8]) for entry in entries]
    slots.append(("wrap", rep.wrap))
    return slots


def _build_component(sys: cm.System, kind: str, fields) -> tuple:
    if kind == "out1":
        return cm.out1_comp(*fields)
    if kind == "out2":
        return cm.out2_comp(*fields)
    if kind == "out3":
        return cm.out3_comp(*fields)
    if kind == "in1":
        return cm.c1_wait_comp(sys, *fields)
    if kind == "in2":
        return cm.c2_wait_comp(sys, *fields)
    wj, ww, wb = fields
    if wj == 0:
        return cm.ok_comp()
    if wb == 1:
        return cm.wrap_wait_comp(sys, wj, ww)
    return cm.wrap_inert_comp(wj, ww)


def _alone(location, net) -> Config:
    """A configuration of ``net`` in which only ``location`` is live."""
    return Config(live=frozenset({location}), budget=0, ti=None, net=net)


def _slot_component(sys: cm.System, slot: tuple) -> tuple:
    """The located component of one (kind, fields) slot, memoised on the
    System.

    Before a component is stored, the round trip that ``sf`` re-checks on
    every configuration is checked once: the component is an evaluation
    fixed point at its location, taken live, and classifies back to the
    slot it was built from.  Evaluating a component at a live location
    reads nothing else of the configuration, so the check holds in every
    state that has the slot."""
    comp = sys._slot_comps.get(slot)
    if comp is None:
        comp = _build_component(sys, *slot)
        _, location, proc = comp
        alone = _alone(location, NNIL)
        if (_located_step(alone, location, proc, sys.defs) is not None
                or cm.classify_component(sys, location, proc) != slot):
            raise NotReachableShape(
                f"expansion component at {location} does not round-trip")
        sys._slot_comps[slot] = comp
    return comp


def expansion(sys: cm.System, rep: Representative) -> list:
    """The (slot, located component) pairs of the normal form of ``rep``,
    one per slot in ``_slots`` order, each component from the slot memo.

    Not validated: ``rep`` comes from ``sf`` or from an explorer that
    validated it on discovery."""
    return [(slot, _slot_component(sys, slot)) for slot in _slots(rep)]


def sfi(sys: cm.System, rep: Representative) -> Config:
    """Expand a representative back to its normal-form configuration: the
    components of its ``expansion`` in parallel, under the system's
    restriction."""
    net = res_chain(npar_chain([comp for _, comp in expansion(sys, rep)]),
                    sys.restriction)
    return Config(live=frozenset(rep.live), budget=rep.budget, ti=rep.ti, net=net)


def _leaf_slots(sys: cm.System, leaf) -> tuple:
    """The (kind, fields) slots the fixed point of one replacement leaf
    classifies to, memoised on the System.

    The leaf is evaluated alone at its own location, taken live, as
    ``_slot_component`` checks a slot's component: evaluating a located
    leaf reads only whether its own location is live, and a step leaves
    its leaf at a live location, so the result is the same in every state.
    The memo is keyed by the identity of ``leaf``, which the records that
    hold it (``lts._offer`` and ``lts``'s Com-leaf memo) make one object
    per leaf, so a lookup hashes no term; the entry keeps ``leaf``
    alive, so its id is not reused while the entry exists.  A leaf whose
    evaluation raises ``EmptyKnowledge`` (an undefined decision, reachable
    only under fault-injection mutations) is recorded once in a memo of its
    own, ``System._leaf_raises``, with the message, and raises it again on
    every visit."""
    entry = sys._leaf_slots.get(id(leaf))
    if entry is not None:
        return entry[1]
    raised = sys._leaf_raises.get(id(leaf))
    if raised is not None:
        raise EmptyKnowledge(raised[1])
    try:
        fixed = evaluate(_alone(leaf[1], leaf), sys.defs)
    except EmptyKnowledge as exc:
        sys._leaf_raises[id(leaf)] = (leaf, str(exc))
        raise
    slots = tuple(_classify(sys, loc, proc)
                  for loc, proc in flatten_components(fixed.net))
    sys._leaf_slots[id(leaf)] = (leaf, slots)
    return slots


def sf_step(sys: cm.System, rep: Representative, step) -> Representative:
    """``sf`` of the configuration one calculus step reaches from the
    expansion of ``rep``, built by patching ``rep`` with what the step
    changes, as the representative rules build their successors.

    ``step`` is an ``lts.keyed_steps`` record (key, leaf, rule, action,
    consumed): ``consumed`` names the slots of the components the step
    consumes, and ``leaf`` is the located leaf it leaves in place of the
    last of them, or None.  The slot memo checked every component of the
    expansion to round-trip, so a component the step leaves in place keeps
    its slot and its entry.

    * A crash consumes nothing; its target is ``crash_target``.
    * Each consumed slot's entry leaves its field; a consumed observer
      leaves none behind.
    * The leaf is located where its step fired, which is live, so its
      slots come from the leaf memo and are merged into their fields; a
      second observer raises.  An observer consumed with nothing in its
      place is restored to ``(0, BOT, 1)``.

    Untouched fields stay the tuples of ``rep``.  The leaf is evaluated
    before anything is merged, so a step raises as ``_assemble`` of its
    whole slot list would.  The target is not validated: its discoverer
    validates it."""
    key, leaf, _, _, consumed = step
    if key[0] == "x":
        return crash_target(rep, key[1])
    fields = list(rep)  # the observer is the last field
    for kind, entry in consumed:
        k = _FIELD[kind]
        fields[k] = None if kind == "wrap" else _drop(fields[k], entry)
    added = ()
    if leaf is not None:
        assert leaf[1] == STAR or leaf[1] in rep.live, leaf[1]
        added = _leaf_slots(sys, leaf)
    grown = set()
    for kind, entry in added:
        k = _FIELD[kind]
        if kind != "wrap":
            fields[k] += (entry,)
            grown.add(k)
        elif fields[-1] is None:
            fields[-1] = entry
        else:
            raise NotReachableShape("two observer components")
    for k in grown:
        fields[k] = tuple(sorted(fields[k]))
    if fields[-1] is None:
        fields[-1] = (0, BOT, 1)  # the observer was consumed after emitting ok
    return _new(Representative, fields)


def crash_target(rep: Representative, agent: int) -> Representative:
    """``sf`` of the configuration the calculus Stop step of ``agent``
    reaches from the expansion of ``rep``, built by patching ``rep``.

    The crash garbage-collects every component located at ``agent`` (rule
    E3) and shrinks the live set and the budget.  Every component but the
    observer's is located at its entry's owner, an entry's first field, so
    this drops each entry the agent owns, as SR7 does; empty fields stay
    the tuples of ``rep``.  Evaluation of a component at a live location
    does not read the live set, so the others stay fixed points and no
    expansion is read.  Not validated: its discoverer validates it."""
    kept = [tuple([e for e in entries if e[0] != agent]) if entries else entries
            for entries in rep[3:8]]
    return _new(Representative, (tuple([p for p in rep.live if p != agent]),
                                 rep.budget - 1, rep.ti, *kept, rep.wrap))


# ---------------------------------------------------------------------------
# The representative semantics.

def _drop(entries: tuple, entry) -> tuple:
    """``entries`` without ``entry``, which it holds once (a validated field
    holds no entry twice)."""
    i = entries.index(entry)
    return entries[:i] + entries[i + 1:]


# The id that stands for the absent transit entry in a move key.
_NONE = id(None)


class LocalStep(NamedTuple):
    """What one collector step produces, whatever the rest of the state:
    the collector's next entry (at most one of ``in1``, ``in2``) and the
    messages it sends, each a tuple of entries to add."""
    in1: tuple = ()
    in2: tuple = ()
    out1: tuple = ()
    out2: tuple = ()
    out3: tuple = ()


def _phase1_local(sys, entry, delta) -> LocalStep:
    """The local step of a round collector that receives ``delta`` (a relay
    vector, or bot for a suspicion), its entries interned."""
    n = sys.n
    q, r, vv, msgs, i = entry
    msgs2 = cm.msg_add1(msgs, delta, r, i)
    if i < n:
        return LocalStep(in1=(_intern(sys, (q, r, vv, msgs2, i + 1)),))
    vv2 = cm.updatek(r, msgs2, vv)
    if r < n - 1:
        dd2 = cm.updater(r, msgs2, vv)
        return LocalStep(
            in1=(_intern(sys, (q, r + 1, vv2, msgs2, 1)),),
            out1=tuple(_intern(sys, (q, j, r + 1, dd2)) for j in range(1, n + 1)))
    return LocalStep(
        in2=(_intern(sys, (q, vv2, msgs2, 1)),),
        out2=tuple(_intern(sys, (q, j, vv2)) for j in range(1, n + 1)))


def _phase2_local(sys, entry, payload) -> LocalStep:
    """The local step of a sync collector that receives ``payload`` (a
    knowledge vector, or bot for a suspicion), its entries interned.  An
    undefined decision raises ``EmptyKnowledge`` (from ``getfst``)."""
    q, vv, msgs, i = entry
    msgs2 = cm.msg_add2(msgs, payload, i)
    if i < sys.n:
        return LocalStep(in2=(_intern(sys, (q, vv, msgs2, i + 1)),))
    vv2 = vv if "skip-correct" in sys.mutations else cm.correct_fn(msgs2, vv)
    return LocalStep(out3=(_intern(sys, (q, cm.getfst(vv2))),))


class Move(NamedTuple):
    """One collector move, whatever the rest of the state: a collector
    entry receiving the transit entry it consumes, or its suspicion twin,
    which consumes nothing and receives bot.  Memoised per System in
    ``System._moves`` by the identities of ``entry`` and ``consumed``,
    which the record holds alive, so neither id is reused while it
    exists."""
    rule: Rule               # the rule instance, made once
    entry: tuple             # the collector entry that steps
    consumed: tuple | None   # the transit entry received; None: suspicion
    # The (field index, entries) pairs of the fields the move adds to: the
    # collector's local step, with the collector's next entry left out
    # where the sr1-deletes-in1 mutation drops it.
    adds: tuple


# A phase's transit field (out1, out2) lies this many fields before its
# collector field (in1, in2).
_TO_TRANSITS = _IN1 - _FIELD["out1"]

# The rule families of a collector move, by its collector field and by
# whether it receives (or suspects), indexed by the collector's stage:
# awaiting a sender before the last, then the last sender of a round
# before the last, then the last sender of the last round.  The sync phase
# has one round.
_FAMILIES = {
    (_IN1, True): ("SR1", "SR2", "SR3"),
    (_IN1, False): ("SR4", "SR5", "SR6"),
    (_IN2, True): ("SR1'", "SR2'"),
    (_IN2, False): ("SR4'", "SR5'"),
}

# Per collector field, the prefix of the transit entry a collector awaits:
# (awaited sender, collector, round) in the round phase, (awaited sender,
# collector) in the sync phase.
_AWAITED = ((_IN1, itemgetter(4, 0, 1)), (_IN2, itemgetter(3, 0)))


def _move(sys, field: int, entry, consumed) -> Move:
    """The move of collector ``entry`` of field ``field`` (in1 or in2)
    receiving ``consumed``, or suspecting its awaited sender where
    ``consumed`` is None; stored in ``System._moves`` once its local step
    is defined, so an undefined decision raises before anything is
    stored."""
    n = sys.n
    q, i = entry[0], entry[-1]  # collector, awaited sender
    receives = consumed is not None
    payload = consumed[-1] if receives else BOT  # a transit entry's vector
    families = _FAMILIES[field, receives]
    if field == _IN1:
        r = entry[1]
        local = _phase1_local(sys, entry, payload)
        family = families[0 if i < n else (1 if r < n - 1 else 2)]
        text = f"{family} q={q} p={i} r={r}"
    else:
        local = _phase2_local(sys, entry, payload)
        family = families[0 if i < n else 1]
        text = f"{family} q={q} p={i}"
    if family == "SR1" and "sr1-deletes-in1" in sys.mutations:
        local = local._replace(in1=())
    adds = tuple((_FIELD[kind], entries)
                 for kind, entries in zip(LocalStep._fields, local) if entries)
    # The move drops the collector, and the transit entry it receives.
    patch = _patch(n, (field, field - _TO_TRANSITS) if receives else (field,),
                   adds)
    if receives:
        rule = Rule(text, family, ("c", id(entry), id(consumed)), patch=patch)
    else:
        rule = Rule(text, family, ("s", id(entry)), suspected=i, patch=patch)
    move = sys._moves[id(entry), id(consumed)] = Move(rule, entry, consumed,
                                                       adds)
    return move


def _move_target(rep, field: int, k: int, j: int, move: Move) -> Representative:
    """The successor of ``rep`` under ``move`` of the ``k``-th collector of
    field ``field``, where the transit entry it consumes, if any, is the
    ``j``-th of its transit field: only the fields the move changes are
    rebuilt."""
    fields = list(rep)
    collectors = fields[field]
    fields[field] = collectors[:k] + collectors[k + 1:]
    if move.consumed is not None:
        t = field - _TO_TRANSITS
        transits = fields[t]
        fields[t] = transits[:j] + transits[j + 1:]
    for f, entries in move.adds:
        fields[f] = tuple(sorted(fields[f] + entries))
    return _new(Representative, fields)


def _keyed_rule(sys: cm.System, key: tuple, decision=None) -> tuple:
    """The rule of an observer or crash step, by its step key: SRW1 for
    ``("c", wrap, id(decision))``, SRW2 for ``("s", wrap)`` and SR7 for
    ``("x", agent)``.  Returns the pair (rule, ``decision``) it stores in
    ``System._rules`` under ``key``, which holds the decision SRW1
    consumes alive, so its id is not reused while the entry exists."""
    match key:
        case ("c", (wj, _, _), _):
            rule = Rule(f"SRW1 j={wj} v={value_str(decision[1])}", "SRW1", key,
                        patch=_patch(sys.n, (_OUT3,), wrap=True))
        case ("s", (wj, _, _)):
            rule = Rule(f"SRW2 j={wj}", "SRW2", key, perfect=wj,
                        patch=_patch(sys.n, wrap=True))
        case ("x", p):
            rule = Rule(f"SR7 p={p}", "SR7", key,
                        patch=_patch(sys.n, (0, _OUT1, _OUT2, _OUT3, _IN1, _IN2),
                                     crashed=p))
    known = sys._rules[key] = (rule, decision)
    return known


def rep_successors(sys: cm.System, rep: Representative) -> list:
    """All internal steps of the representative semantics, as
    (rule instance, successor) pairs, unordered: ``lts.labelled_targets``
    orders a state's transitions.

    Each collector move of either phase comes from its ``Move`` record,
    looked up by the identities of the collector entry and the transit
    entry, and every other rule from ``System._rules`` by its step key, so
    a state pays for no rule text and no local step; only the fields the
    move changes are rebuilt, and successors are built positionally with
    ``tuple.__new__``, past ``Representative``'s Python-level
    constructor.  Within a validated state the rule instances are
    pairwise distinct (each agent holds one role, and the SRW1/SRW2/SR7
    instances carry distinct parameters), so the list needs no
    deduplication."""
    n = sys.n
    moves, rules = sys._moves, sys._rules
    live, budget, ti, out1, out2, out3, in1, in2, wrap = rep
    # The agent suspicion spares: the ti, or none (0) under no-ti-protection.
    spared = ti if "no-ti-protection" not in sys.mutations else 0
    phase1_susp = "no-phase1-susp" not in sys.mutations
    out: list = []

    # A collector's awaited message is the transit entry that starts with
    # (awaited sender, collector[, round]); the fields are strictly
    # increasing, so bisection finds it.
    for field, awaited_by in _AWAITED:
        transits = rep[field - _TO_TRANSITS]
        suspects = phase1_susp or field == _IN2
        for k, entry in enumerate(rep[field]):
            awaited = awaited_by(entry)
            i, q = awaited[0], awaited[1]
            j = bisect_left(transits, awaited)
            if j < len(transits) and transits[j][:len(awaited)] == awaited:
                transit = transits[j]
                move = (moves.get((id(entry), id(transit)))
                        or _move(sys, field, entry, transit))
                out.append((move.rule, _move_target(rep, field, k, j, move)))
            if i != q and i != spared and suspects:
                move = (moves.get((id(entry), _NONE))
                        or _move(sys, field, entry, None))
                out.append((move.rule, _move_target(rep, field, k, j, move)))

    wj, ww, wb = wrap
    if wb == 1 and 1 <= wj <= n:
        decision = next((e for e in out3 if e[0] == wj), None)
        if decision is not None:
            v = decision[1]
            if (ww == BOT and v != BOT) or ww == v:
                wrap2 = (wj + 1, v, 1) if wj + 1 <= n else (0, BOT, 1)
            else:
                wrap2 = (wj, ww, 0)
            key = ("c", wrap, id(decision))
            rule = (rules.get(key) or _keyed_rule(sys, key, decision))[0]
            out.append((rule, _new(Representative, (
                live, budget, ti, out1, out2, _drop(out3, decision), in1, in2,
                wrap2))))
        if wj not in live:
            wrap2 = (wj + 1, ww, 1) if wj + 1 <= n else (0, BOT, 1)
            key = ("s", wrap)
            rule = (rules.get(key) or _keyed_rule(sys, key))[0]
            out.append((rule, _new(Representative, (
                live, budget, ti, out1, out2, out3, in1, in2, wrap2))))

    if budget > 0:
        owned = (out1, out2, out3, in1, in2)
        for k, p in enumerate(live):
            if p != ti:
                # An entry's first field is its owner; empty fields stay.
                kept = [tuple([e for e in f if e[0] != p]) if f else f
                        for f in owned]
                key = ("x", p)
                rule = (rules.get(key) or _keyed_rule(sys, key))[0]
                out.append((rule, _new(Representative, (
                    live[:k] + live[k + 1:], budget - 1, ti, *kept, wrap))))

    return out


# ---------------------------------------------------------------------------
# Canonical serialisation.

def value_jsonable(v):
    match v:
        case ("bot",):
            return None
        case ("nat", k):
            return k
        case ("pair", a, b):
            return [value_jsonable(a), value_jsonable(b)]
        case ("set", elems):
            return {"set": [value_jsonable(e) for e in elems]}
    raise TypeError(f"not a value: {v!r}")


def rep_jsonable(rep: Representative) -> dict:
    return {
        "live": list(rep.live),
        "budget": rep.budget,
        "ti": rep.ti,
        "out1": [[p, i, r, value_jsonable(d)] for p, i, r, d in rep.out1],
        "out2": [[p, i, value_jsonable(v)] for p, i, v in rep.out2],
        "out3": [[p, value_jsonable(v)] for p, v in rep.out3],
        "in1": [[p, r, value_jsonable(v), value_jsonable(m), i]
                for p, r, v, m, i in rep.in1],
        "in2": [[p, value_jsonable(v), value_jsonable(m), i]
                for p, v, m, i in rep.in2],
        "wrap": [rep.wrap[0], value_jsonable(rep.wrap[1]), rep.wrap[2]],
    }


def rep_key(rep: Representative) -> str:
    """Canonical byte string; the state-deduplication key."""
    return json.dumps(rep_jsonable(rep), sort_keys=True, separators=(",", ":"))


def rep_digest(rep: Representative) -> str:
    # Imported here: only counterexamples and the DOT export render a
    # digest, and ``hashlib`` loads libcrypto, which a run that renders
    # none would otherwise pay for at start-up.
    import hashlib
    return hashlib.sha1(rep_key(rep).encode()).hexdigest()[:10]


def rep_str(rep: Representative) -> str:
    lines = [
        f"live={{{','.join(map(str, rep.live))}}} budget={rep.budget} ti={rep.ti}",
    ]
    for p, i, r, d in rep.out1:
        lines.append(f"  msg1 {p}->{i} r{r} {value_str(d)}")
    for p, i, v in rep.out2:
        lines.append(f"  msg2 {p}->{i} {value_str(v)}")
    for p, v in rep.out3:
        lines.append(f"  decide {p}: {value_str(v)}")
    for p, r, v, m, i in rep.in1:
        lines.append(f"  collect1 {p} r{r} awaiting {i} V={value_str(v)} M={value_str(m)}")
    for p, v, m, i in rep.in2:
        lines.append(f"  collect2 {p} awaiting {i} V={value_str(v)} M={value_str(m)}")
    wj, ww, wb = rep.wrap
    state = "ok!" if wj == 0 else (f"at {wj}" if wb == 1 else f"inert at {wj}")
    lines.append(f"  observer {state} value={value_str(ww)}")
    return "\n".join(lines)
