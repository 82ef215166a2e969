"""Explicit-state exploration and the machine checks.

Each statement the design rests on becomes a check over the explored
state space: local confluence of evaluation, existence and uniqueness of
normal forms (round-trips of extraction and expansion), the state-by-state
correspondence between the calculus semantics and the representative
semantics, the consensus properties (validity, agreement, termination),
and weak bisimilarity with the one-state specification that just emits on
`ok`.  Checks return reports; nothing is probabilistic.

Every rule on a representative edge is a record (``repsem.Rule``): the
correspondence check reads its step key, the trace invariants its
suspicion and crash facts, and the DOT export its family.  No check
parses rule text.

The exploration loop and the checks that read its graph (confluence,
normal forms, properties, bisimulation) run with the cyclic garbage
collector paused (``_gc_paused``).
"""

from __future__ import annotations

import gc
from array import array
from contextlib import contextmanager
from itertools import accumulate, chain, islice, pairwise, repeat
from typing import NamedTuple

from . import consensus_model as cm
from . import lts, repsem
from .calculus_ast import BOT, NNIL, STAR, Config, npar_chain, value_str
from .errors import BoundExceeded, EmptyKnowledge, GraphTruncated
from .evaluation import eval_steps, evaluate, split_restriction
from .graph import Edges, LtsGraph
from .lts import OK, TAU, action_str

# The full n=3 (1,2,3) ``explore``, 1,060,526 states and 4,179,558 edges,
# peaked at 423 MiB RSS on CPython 3.11 (2-core x86-64 Linux, one run,
# ``MALLOC_MMAP_THRESHOLD_=131072``): about 420 bytes per state, edges,
# interpreter and memos included.  At that rate this bound would need
# about 2.1 GB.
DEFAULT_MAX_STATES = 5_000_000


@contextmanager
def _gc_paused():
    """The cyclic garbage collector off for a ``with`` block or a decorated
    function, its state before restored on every exit, raised or
    returned.  What the checks build (states, edges, memo entries,
    confluence closures) holds no reference cycles, so a collection would
    only walk it."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


def _bfs(sys: cm.System, max_states: int, compare, truncate: bool) -> LtsGraph:
    """The breadth-first loop behind ``explore`` and ``check_correspondence``:
    the closure of the instance under the representative semantics,
    starting from one representative per trusted immortal.

    A state's transitions come as sorted (action, target, rule) triples
    (``lts.labelled_targets``), so exploring builds no ``Transition``.
    Where the algorithm itself is undefined (an empty decision, reachable
    only under fault-injection mutations) ``triples`` is None, and the
    state is kept as a node with no successors and recorded as a defect.
    With ``compare`` None every step is followed.  Otherwise
    ``compare(state, triples)`` sees each state before its edges are
    stored, and returns the targets to admit before the edges, or None to
    follow none of the state's steps.  Each state is validated once, when
    it is first discovered, and numbered in discovery order; since the
    `ok` loop's target is its source, a state's new targets are met in
    sorted order.  An edge's target is validated against the state it was
    built from (``repsem.validate_rep`` with that source), which skips the
    checks of the fields the target shares with it; a target that
    ``compare`` returns is validated in full.

    The graph holds one object per state, in the ``nodes`` list that is
    also the BFS queue, and its edges as int columns (``Edges``): a
    first-edge offset per node (``array('I')``, nodes + 1 long), a target
    id per edge (``array('I')``) and a label id per edge (``array('I')``)
    into one tuple of the graph's distinct (action, rule) pairs, whose
    actions and rules are one object each.  A node's edges are appended
    together when it is expanded, in successor order, and nodes are
    expanded in id order.  So an edge costs two 4-byte ints (target and
    label id) and a node one offset, and a ``Transition`` exists only while
    someone iterates ``graph.edges``.  Looking a target up in ``node_ids``
    hashes it through the hashes its ``repsem.Entry`` objects cache; a τ
    edge's label id is looked up by its rule alone.

    Every initial is expanded, and ``max_states`` states in all where
    there are more.  The first target past the bound raises
    ``BoundExceeded``, whose partial graph keeps the edges the overflowing
    source had so far and none for the nodes after it; with ``truncate``
    such targets are numbered instead, never expanded, and the graph is
    marked truncated.

    The loop runs with the cyclic garbage collector off (``_gc_paused``)."""
    initials = tuple(lts.initial_reps(sys))
    node_ids: dict = {}
    nodes: list = []               # node id -> stored node; the BFS queue
    for rep in initials:
        if node_ids.setdefault(rep, len(nodes)) == len(nodes):
            nodes.append(rep)
    limit = max(max_states, len(nodes))
    offsets = array("I", [0])
    targets = array("I")
    label_ids = array("I")
    labels: dict = {}              # (action, rule) -> label id
    defects: list = []

    def graph(truncated: bool) -> LtsGraph:
        offsets.extend([len(targets)] * (len(nodes) + 1 - len(offsets)))
        edges = Edges(nodes, offsets, targets, label_ids, tuple(labels))
        return LtsGraph(initials, node_ids, edges, truncated=truncated,
                        defects=tuple(defects))

    def admit(target, source) -> None:
        # ``target`` has just been given the next id.
        repsem.validate_rep(sys, target, source)
        if len(nodes) >= limit and not truncate:
            del node_ids[target]
            raise BoundExceeded(graph(True), max_states)
        nodes.append(target)

    def label_of(action, rule) -> int:
        label = labels.get((action, rule))
        if label is None:
            label = labels[action, rule] = len(labels)
        return label

    setdefault = node_ids.setdefault
    add_target, add_label = targets.append, label_ids.append
    tau_labels: dict = {}          # rule -> label id of (TAU, rule)
    with _gc_paused():
        for rep in islice(nodes, limit):
            try:
                succs = lts.labelled_targets(sys, rep)
            except EmptyKnowledge as exc:
                defects.append((rep, str(exc)))
                succs = None
            if compare is not None:
                first = compare(rep, succs)
                if first is None:
                    succs = None
                else:
                    for target in first:
                        if setdefault(target, len(nodes)) == len(nodes):
                            admit(target, None)
            for action, target, rule in succs or ():
                count = len(nodes)
                ident = setdefault(target, count)
                if ident == count:
                    admit(target, rep)
                if action is TAU:
                    label = tau_labels.get(rule)
                    if label is None:
                        label = tau_labels[rule] = label_of(action, rule)
                else:
                    label = label_of(action, rule)
                add_target(ident)
                add_label(label)
            offsets.append(len(targets))
    return graph(len(nodes) > limit)


def explore(sys: cm.System, semantics: str = "representative",
            max_states: int = DEFAULT_MAX_STATES) -> LtsGraph:
    """The representative graph of the instance (the only ``semantics``
    accepted), every step followed; ``BoundExceeded`` carries the partial
    graph when a target lies past ``max_states`` (see ``_bfs``)."""
    if semantics != "representative":
        raise ValueError(f"unknown semantics {semantics!r}")
    return _bfs(sys, max_states, compare=None, truncate=False)


# ---------------------------------------------------------------------------
# Reports.

class CheckReport(NamedTuple):
    name: str
    passed: bool
    details: dict
    counterexamples: list

    def to_jsonable(self) -> dict:
        return {
            "check": self.name,
            "status": "pass" if self.passed else "fail",
            "details": self.details,
            "counterexamples": self.counterexamples[:20],
        }


class CorrespondenceReport(NamedTuple):
    """What ``check_correspondence`` found.  The failure lists hold
    (state, target) per internal step and (state, target, action) per
    visible one; the target is None where only one side is undefined.
    ``graph`` is the representative graph, where the report passed,
    truncated with it."""

    checked: int
    sound_failures: list        # extra representative steps
    complete_failures: list     # unmatched calculus steps
    truncated: bool
    defects: list
    graph: LtsGraph | None = None

    @property
    def passed(self) -> bool:
        return not self.sound_failures and not self.complete_failures

    def to_jsonable(self) -> dict:
        def fmt(entries):
            out = []
            for s, t, *action in entries[:20]:
                entry = {"state": repsem.rep_digest(s),
                         "target": repsem.rep_digest(t) if t is not None else None}
                if action:
                    entry["action"] = action_str(action[0])
                out.append(entry)
            return out

        return {
            "check": "correspondence",
            "status": "pass" if self.passed else "fail",
            "details": {
                "states_checked": self.checked,
                "truncated": self.truncated,
                "defects": len(self.defects),
            },
            "sound_failures": fmt(self.sound_failures),
            "complete_failures": fmt(self.complete_failures),
        }


# ---------------------------------------------------------------------------
# Confluence.

def _spine(net) -> tuple:
    """The components along the right spine of a parallel composition."""
    comps = []
    while net[0] == "npar":
        comps.append(net[1])
        net = net[2]
    comps.append(net)
    return tuple(comps)


def _confluence_starts(sys: cm.System, graph: LtsGraph):
    """The starts of the walk over ``graph``, each as its context (live,
    budget, ti) and its components: the freshly chosen-immortal initials,
    then what each calculus step of every node leaves (``lts.step_starts``),
    in id order."""
    initials = lts.select_ti(cm.make_initial(sys.inst))
    comps = _spine(split_restriction(initials[0].net)[1])
    for cfg in initials:
        yield (cfg.live, cfg.budget, cfg.ti), comps
    for rep in graph.nodes:
        yield from lts.step_starts(sys, rep)


@_gc_paused()
def check_confluence(sys: cm.System, graph: LtsGraph,
                     max_configs: int = DEFAULT_MAX_STATES) -> CheckReport:
    """Every single-step evaluation diamond joins on equal fixed points, on
    the starts read off the step records of ``graph``
    (``_confluence_starts``).  Each start, its context (live, budget, ti)
    and the components along the right spine of its parallel composition,
    is closed under single evaluation steps, and the fixed points of every
    branching are compared.

    A configuration is keyed by its context and its components, each
    interned to an int for the whole check, so one term has one key.  A
    start's components are the slot-memo and leaf-memo objects, which
    recur across states, so they are looked up by identity first (each
    held alive, so its id is not reused) and hashed as terms only once per
    object.  The system's restriction, over every configuration, is left
    out: no evaluation step reads or changes it, nor the context, so a
    closure stays in one context and probes only that context's seen set
    of int tuples.  Evaluation steps act on one component, whose steps are
    computed once per (live set, component) in the live set's step table;
    a component with no steps that is not ``nnil`` is passed over, and
    E4/E5 drop an ``nnil`` from the tuple.  The counts and the verdict do
    not depend on the order of visits; the counterexamples come in that
    order.

    A branch's fixed point is that of the same key with every component
    replaced by its own fixed point (the lemma in ``evaluation``), and a
    component's fixed point is computed once per (live set, component) in
    the live set's fixed-point table.  ``evaluate`` then runs on the whole
    composition once per distinct normalised key, the only place one is
    built, and a fixed point is kept as its component tuple.  A branch
    whose evaluation raises raises on every visit, since no memo stores an
    exception: ``EmptyKnowledge`` when some component's does (counted as
    undefined), and ``NonTermination`` when some component diverges, which
    is the only way a branch diverges.

    Raises ``BoundExceeded``, with no graph, past ``max_configs`` distinct
    configurations; any other error of evaluation propagates as it is."""
    if graph.truncated:
        raise GraphTruncated("confluence needs a fully explored graph")
    defs = sys.defs
    terms: list = []            # component id -> term
    ids: dict = {}              # term -> component id
    by_object: dict = {}        # id of a start component -> component id
    held: list = []             # the start components, kept alive
    spines: dict = {}           # component id -> ids along its right spine
    tables: dict = {}           # live -> (step table, fixed-point table)
    contexts: dict = {}         # context -> (seen, fixed, config) + tables
    configurations = diamonds = undefined = 0
    failures: list = []

    def intern(term) -> int:
        cid = ids.get(term)
        if cid is None:
            cid = ids[term] = len(terms)
            terms.append(term)
        return cid

    def spine(cid) -> tuple:
        s = spines.get(cid)
        if s is None:
            s = spines[cid] = tuple(map(intern, _spine(terms[cid])))
        return s

    nnil = intern(NNIL)

    def successors(comps, steps_of, cfg) -> set:
        last = len(comps) - 1
        succs = set()
        for i, cid in enumerate(comps):
            steps = steps_of.get(cid)
            if steps is None:
                steps = steps_of[cid] = tuple(
                    intern(c.net)
                    for _, c in eval_steps(cfg._replace(net=terms[cid]), defs))
            if not steps and cid != nnil:
                continue
            head, tail = comps[:i], comps[i + 1:]
            if i < last:
                for r in steps:
                    succs.add(head + (r,) + tail)
                if cid == nnil:                                       # E4
                    succs.add(head + tail)
            else:
                # The spine's end may step to a parallel composition:
                # re-flatten it, so that one term keeps one key.
                for r in steps:
                    succs.add(head + spine(r))
        if last and comps[last] == nnil:                              # E5
            succs.add(comps[:last - 1] + spine(comps[last - 1]))
        return succs

    def normalised(comps, fixed_of, cfg) -> tuple:
        for cid in comps:
            if cid not in fixed_of:
                fixed_of[cid] = intern(
                    evaluate(cfg._replace(net=terms[cid]), defs).net)
        return tuple(map(fixed_of.__getitem__, comps))

    for context, start in _confluence_starts(sys, graph):
        known = contexts.get(context)
        if known is None:
            tabs = tables.setdefault(context[0], ({}, {}))
            known = contexts[context] = (
                (set(), {}, Config(*context, net=NNIL)) + tabs)
        seen, fixed, cfg, steps_of, fixed_of = known
        key = tuple(map(by_object.get, map(id, start)))
        if None in key:
            for term in start:
                if id(term) not in by_object:
                    by_object[id(term)] = intern(term)
                    held.append(term)
            key = tuple(map(by_object.__getitem__, map(id, start)))
        frontier = [key]
        while frontier:
            c = frontier.pop()
            if c in seen:
                continue
            seen.add(c)
            configurations += 1
            if configurations > max_configs:
                raise BoundExceeded(None, max_configs)
            try:
                succs = successors(c, steps_of, cfg)
                if len(succs) > 1:
                    diamonds += 1
                    fixes = set()
                    for n in {normalised(s, fixed_of, cfg) for s in succs}:
                        f = fixed.get(n)
                        if f is None:
                            whole = npar_chain([terms[k] for k in n])
                            net = evaluate(cfg._replace(net=whole), defs).net
                            f = fixed[n] = tuple(map(intern, _spine(net)))
                        fixes.add(f)
                    if len(fixes) != 1:
                        failures.append(
                            f"a diamond joins on {len(fixes)} distinct fixed points"
                        )
            except EmptyKnowledge:
                # The algorithm is undefined here (mutations only); nothing
                # to join.
                undefined += 1
                continue
            # A successor seen by the time it is popped is skipped there.
            frontier.extend(succs)
    return CheckReport(
        name="confluence",
        passed=not failures,
        details={"configurations": configurations, "diamonds": diamonds,
                 "undefined": undefined},
        counterexamples=failures,
    )


# ---------------------------------------------------------------------------
# Correspondence.

def check_correspondence(sys: cm.System, max_states: int = DEFAULT_MAX_STATES,
                         ) -> CorrespondenceReport:
    """Per reachable representative, the (action, target) successor sets of
    the two semantics must be equal, internal and visible steps alike; rule
    names differ by design and are left out.  So ``sf`` is checked to be a
    strong bisimulation between the two, up to rule names, and with
    ``weak_bisim`` the calculus too is weakly bisimilar to the `ok`
    specification.

    Runs the exploration loop (``_bfs``), comparing each state's
    representative steps (``lts.labelled_targets``, which looks up
    ``repsem.rep_successors`` on the module on every call) with its
    calculus steps, per step key (``_keys_agree``): a state whose keys and
    keyed steps agree builds no calculus target but its crashes'.  Every
    other state, and every state where either side is undefined, is
    compared in full, with every calculus target built
    (``lts.calculus_targets``).  The check explores the union of the two,
    so a divergence on either side still gets visited and reported: where
    the sides differ, the union's new targets are admitted in sorted order
    before the state's edges; where only one side is undefined, neither
    side's steps are followed.  Targets past ``max_states`` are validated
    once and not checked, and the report is marked truncated.  Where the
    sides agree the union is the representative steps, so a report that
    passes carries the graph ``explore`` builds, marked truncated where
    ``explore`` would overflow at the same bound."""
    sound: list = []
    complete: list = []
    defects: list = []
    checked = 0
    verdicts: dict = {}

    def compare(rep, succs):
        nonlocal checked
        checked += 1
        try:
            if succs is not None and _keys_agree(sys, rep, succs, verdicts):
                return ()
        except EmptyKnowledge:
            pass  # the full comparison meets it where it stands
        try:
            calc_targets, calc_visible = lts.calculus_targets(sys, rep)
        except EmptyKnowledge as exc:
            # The algorithm itself is undefined here (empty decision); the
            # two semantics must at least be undefined on the same states.
            if succs is None:
                defects.append((rep, str(exc)))
            else:
                complete.append((rep, None))
            return None
        if succs is None:
            sound.append((rep, None))
            return None
        rep_targets = {t for a, t, _ in succs if a == TAU}
        rep_visible = {(a, t) for a, t, _ in succs if a != TAU}
        if rep_targets == calc_targets and rep_visible == calc_visible:
            return ()
        sound.extend((rep, t) for t in sorted(rep_targets - calc_targets))
        complete.extend((rep, t) for t in sorted(calc_targets - rep_targets))
        sound.extend((rep, t, a) for a, t in sorted(rep_visible - calc_visible))
        complete.extend((rep, t, a) for a, t in sorted(calc_visible - rep_visible))
        return sorted(rep_targets | calc_targets
                      | {t for _, t in rep_visible | calc_visible})

    graph = _bfs(sys, max_states, compare, truncate=True)
    return CorrespondenceReport(checked, sound, complete, graph.truncated,
                                defects, None if sound or complete else graph)


def _keys_agree(sys: cm.System, rep, succs: list, verdicts: dict) -> bool:
    """Whether the calculus steps of ``rep`` reach exactly the (action,
    target) pairs of its representative steps ``succs``, decided per step
    key.  False sends the state to the full comparison.

    The calculus steps come keyed from ``lts.keyed_steps``, the
    representative ones carry their keys on their rules (``repsem.Rule``);
    a rule that carries none, such as a plain string, sends the state to
    the full comparison.  The two key sets must be equal with no key
    repeated on either side; then each calculus step has one
    representative step of its key.

    A keyed step's patch is a function of its key (and, for a silent step,
    of its leaf) on both sides: it removes the entries the key names and
    adds the slots of a memoised leaf, or a ``Move``'s entries, or rebuilds
    the observer from its wrap value.  So the two targets of a key are
    compared once, where the key is first met, with ``repsem.sf_step`` on
    one side and the target in ``succs`` on the other, and the verdict is
    kept in ``verdicts`` (key -> (leaf, agrees)) for the rest of the check.
    A crash drops whatever its agent owns, so its two targets are compared
    in every state, the calculus one patched by ``repsem.crash_target``."""
    steps = lts.keyed_steps(sys, rep)
    # A rule with no key is filed under None, which no calculus step has.
    by_key = {getattr(rule, "key", None): (action, target)
              for action, target, rule in succs}
    if not len(steps) == len(by_key) == len(succs):
        return False
    for step in steps:
        key, leaf, _, action, _ = step
        # Each key is taken once, so the steps pair one to one.
        expected = by_key.pop(key, None)
        if expected is None:
            return False
        if key[0] == "x":
            agrees = expected == (TAU, repsem.crash_target(rep, key[1]))
        else:
            known = verdicts.get(key)
            if known is None or known[0] is not leaf:
                known = verdicts[key] = (leaf, expected == (
                    action, repsem.sf_step(sys, rep, step)))
            agrees = known[1]
        if not agrees:
            return False
    return True


# ---------------------------------------------------------------------------
# Normal-form round trips.

@_gc_paused()
def check_normal_forms(sys: cm.System, graph: LtsGraph) -> CheckReport:
    """Every node's expansion is fully evaluated and extracts back to the
    node.  Extraction succeeded on every reachable state already (or the
    graph would not exist).

    The slot memo (``repsem._slot_component``) checks once per slot that
    its component is an evaluation fixed point at a live location and
    classifies back to the slot, and raises ``NotReachableShape`` where one
    does not.  By the compositionality lemma in ``evaluation``, a node's
    expansion is then a fixed point exactly when no component is ``nnil``
    and each sits at ``*`` or at a live location (a dead-located one is
    garbage-collected, E3), and ``sf`` of it is ``_assemble`` of the node's
    own slots.  So the round trip holds exactly when the expansion is a
    fixed point and that assembly is the node.
    ``tests/test_normal_forms_oracle.py`` keeps the whole-term
    ``sfi`` -> ``sf`` -> ``evaluate`` loop as the oracle."""
    failures = []
    for rep in graph.nodes:
        slots = repsem._slots(rep)
        live = frozenset(rep.live)
        evaluated = True
        for slot in slots:
            comp = repsem._slot_component(sys, slot)
            if comp == NNIL or not (comp[1] == STAR or comp[1] in live):
                evaluated = False
        if not evaluated or repsem._assemble(live, rep.budget, rep.ti, slots) != rep:
            failures.append(f"round trip broke at {repsem.rep_digest(rep)}")
        if not evaluated:
            failures.append(
                f"expansion of {repsem.rep_digest(rep)} is not fully evaluated"
            )
    return CheckReport(
        name="normal-forms",
        passed=not failures,
        details={"states": len(graph.node_ids)},
        counterexamples=failures,
    )


# ---------------------------------------------------------------------------
# Consensus properties.

def _label_invariants(action, rule: repsem.Rule) -> tuple:
    """What the properties read of one (action, rule) label, off the
    rule's record: whether the step is internal, whether the action is an
    observable other than ok, the agent a suspicion suspects (None if
    none), the agent a perfect suspicion passes (0 if none), and whether
    the step crashes an agent."""
    foreign = action != TAU and action != OK
    return (action == TAU, foreign, rule.suspected, rule.perfect,
            rule.key[0] == "x")


def _valid_relay(sys, dv) -> bool:
    entries = cm.relay_entries(dv)
    if [q for q, _ in entries] != list(range(1, sys.n + 1)):
        return False
    return all(v == BOT or v == ("nat", sys.u[q - 1]) for q, v in entries)


def _valid_know(sys, vv) -> bool:
    entries = cm.know_entries(vv)
    if [q for q, _, _ in entries] != list(range(1, sys.n + 1)):
        return False
    return all(
        (v == BOT or v == ("nat", sys.u[q - 1])) and 0 <= r <= sys.n - 1
        for q, v, r in entries
    )


def _valid_msgs(sys, msgs) -> bool:
    for tag, vec, rnd, sender in cm.msg_entries(msgs):
        if not 1 <= sender <= sys.n:
            return False
        if tag == 1:
            if not 1 <= rnd <= sys.n - 1:
                return False
            if vec != BOT and not _valid_relay(sys, vec):
                return False
        else:
            if vec != BOT and not _valid_know(sys, vec):
                return False
    return True


def _invalid_out1(sys, entry) -> str:
    p, i, r, dv = entry
    return "" if _valid_relay(sys, dv) else (
        f"round message {p}->{i} r{r} carries an invalid vector")


def _invalid_out2(sys, entry) -> str:
    p, i, vv = entry
    return "" if _valid_know(sys, vv) else (
        f"sync message {p}->{i} carries an invalid vector")


def _invalid_out3(sys, entry) -> str:
    p, v = entry
    return "" if v in _proposed(sys) else (
        f"agent {p} decided unproposed value {value_str(v)}")


def _invalid_in1(sys, entry) -> str:
    p, r, vv, msgs, _ = entry
    return "" if _valid_know(sys, vv) and _valid_msgs(sys, msgs) else (
        f"collector {p} r{r} holds invalid state")


def _invalid_in2(sys, entry) -> str:
    p, vv, msgs, _ = entry
    return "" if _valid_know(sys, vv) and _valid_msgs(sys, msgs) else (
        f"collector {p} holds invalid state")


# Per entry field of a representative (out1 .. in2): the message validity
# gives one of its entries, or "" where the entry is valid.
_ENTRY_VALIDITY = (_invalid_out1, _invalid_out2, _invalid_out3, _invalid_in1,
                   _invalid_in2)


def _proposed(sys) -> set:
    return {("nat", v) for v in sys.u}


def _tau_cycle(edges: Edges):
    """Return one internal-step cycle as node ids if the graph has any,
    else None.

    A depth-first search over the CSR columns that follows the τ-edges
    only, told apart by a per-label τ flag table as in ``weak_bisim``; each
    node on the grey trail keeps the index of its next edge to try."""
    WHITE, GREY, BLACK = 0, 1, 2
    offsets, targets, label_ids = edges.offsets, edges.targets, edges.label_ids
    tau = bytes(action == TAU for action, _ in edges.labels)
    colour = bytearray(len(edges.nodes))
    for root in range(len(colour)):
        if colour[root] != WHITE:
            continue
        colour[root] = GREY
        trail = [root]
        nexts = [offsets[root]]
        while trail:
            i, hi = nexts[-1], offsets[trail[-1] + 1]
            while i < hi:
                if tau[label_ids[i]]:
                    child = targets[i]
                    if colour[child] == GREY:
                        return trail[trail.index(child):] + [child]
                    if colour[child] == WHITE:
                        break
                i += 1
            if i < hi:
                nexts[-1] = i + 1
                colour[child] = GREY
                trail.append(child)
                nexts.append(offsets[child])
            else:
                colour[trail.pop()] = BLACK
                nexts.pop()
    return None


def _decided_values(graph: LtsGraph) -> dict:
    """Per rendered value, the number of states in which some decision in
    transit or the observer holds it, sorted by value."""
    decided: dict = {}
    for rep in graph.nodes:
        seen_here = {value_str(v) for _, v in rep.out3}
        if rep.wrap[1] != BOT:
            seen_here.add(value_str(rep.wrap[1]))
        for s in seen_here:
            decided[s] = decided.get(s, 0) + 1
    return dict(sorted(decided.items()))


@_gc_paused()
def check_properties(sys: cm.System, graph: LtsGraph) -> CheckReport:
    """Validity, agreement, termination, plus the transition-level trace
    invariants (only `ok` is observable, suspicion spares the trusted
    immortal, perfect suspicion only hits crashed agents, crashes are
    monotone).

    Validity and agreement come from ``check_safety_subset``, which judges
    each entry once.  The trace invariants read, per edge, its label's
    ``_label_invariants`` (read off the rule's record, once per label) and
    int columns built in one pass over the nodes:
    each node's live set as a bitmask, its budget and its ti.  The same
    edge loop notes the nodes with no internal step, the ends of maximal
    runs.  ``tests/test_properties_oracle.py`` keeps the per-state,
    per-edge check over the representatives as the oracle."""
    if graph.truncated:
        raise GraphTruncated("properties need a fully explored graph")
    failures: list = []

    for rep, diagnosis in graph.defects:
        failures.append(
            f"algorithm undefined at {repsem.rep_digest(rep)}: {diagnosis}"
        )
    failures.extend(check_safety_subset(sys, graph.nodes).counterexamples)

    edges = graph.edges
    nodes, targets, label_ids = edges.nodes, edges.targets, edges.label_ids
    masks, budgets, tis = array("q"), array("q"), array("q")
    bits: dict = {}                 # live set -> its bitmask
    for rep in nodes:
        mask = bits.get(rep.live)
        if mask is None:
            mask = bits[rep.live] = sum(1 << p for p in rep.live)
        masks.append(mask)
        budgets.append(rep.budget)
        tis.append(rep.ti)
    checks = [_label_invariants(action, rule) for action, rule in edges.labels]
    ends: list = []                 # ids of the nodes with no internal step
    for s, (lo, hi) in enumerate(pairwise(edges.offsets)):
        mask, budget, ti = masks[s], budgets[s], tis[s]
        internal = False
        for i in range(lo, hi):
            t, label = targets[i], label_ids[i]
            tau, foreign, suspected, perfect, crash = checks[label]
            internal = internal or tau
            if foreign:
                action = edges.labels[label][0]
                failures.append(f"observable other than ok: {action_str(action)}")
            if suspected == ti:
                failures.append(
                    f"trusted immortal suspected via {edges.labels[label][1]}")
            if perfect and mask >> perfect & 1:
                failures.append(f"live agent {perfect} perfectly suspected")
            if masks[t] & ~mask:
                failures.append(f"live set grew across {edges.labels[label][1]}")
            if budgets[t] > budget:
                failures.append(f"crash budget grew across {edges.labels[label][1]}")
            if (budgets[t] < budget) != crash:
                failures.append(
                    f"budget change does not match rule {edges.labels[label][1]}")
        if not internal:
            ends.append(s)

    cycle = _tau_cycle(edges)
    if cycle is not None:
        failures.append(
            "internal-step cycle through "
            + " -> ".join(repsem.rep_digest(nodes[s]) for s in cycle)
        )
    stuck = 0
    for s in ends:
        if not lts.emits_ok(nodes[s]):
            stuck += 1
            failures.append(
                f"maximal run ends undecided at {repsem.rep_digest(nodes[s])}")
    return CheckReport(
        name="properties",
        passed=not failures,
        details={
            "states": len(graph.node_ids),
            "transitions": len(graph.edges),
            "decided_values": _decided_values(graph),
            "undecided_maximal_states": stuck,
        },
        counterexamples=failures,
    )


def check_safety_subset(sys: cm.System, reps) -> CheckReport:
    """Validity and agreement over a set of states, for bounded runs where
    the full graph (and with it termination) is out of reach.

    Validity is judged once per entry object (``_ENTRY_VALIDITY``),
    memoised per field on the System by the entry's identity (each entry
    held alive, so its id is not reused); entries are interned, so that is
    once per distinct entry.  A state then gets the message of each of
    its invalid entries in field order, then the observer's."""
    memos = [sys._validity.setdefault(k, {}) for k in range(len(_ENTRY_VALIDITY))]
    proposed = _proposed(sys)
    failures: list = []
    count = 0
    for rep in reps:
        count += 1
        for memo, judge, entries in zip(memos, _ENTRY_VALIDITY, rep[3:8]):
            for entry in entries:
                known = memo.get(id(entry))
                if known is None:
                    known = memo[id(entry)] = (entry, judge(sys, entry))
                if known[1]:
                    failures.append(known[1])
        ww = rep.wrap[1]
        if ww != BOT and ww not in proposed:
            failures.append(f"observer remembers unproposed value {value_str(ww)}")
        if rep.wrap[2] == 0:
            failures.append(
                f"agreement broken: observer went inert at {repsem.rep_digest(rep)}"
            )
    return CheckReport(
        name="safety-subset",
        passed=not failures,
        details={"states": count},
        counterexamples=failures,
    )


# ---------------------------------------------------------------------------
# Weak bisimulation.

def _edge_sources(offsets: array):
    """The source id of each edge, in edge order, produced lazily."""
    return chain.from_iterable(repeat(s, hi - lo)
                               for s, (lo, hi) in enumerate(pairwise(offsets)))


@_gc_paused()
def weak_bisim(graph: LtsGraph):
    """Decide whether the initial states of ``graph`` are weakly bisimilar
    to the specification: one state with an ``ok`` self-loop.

    Every node of an explored graph is reachable from its initials, so the
    lemma applies: they are bisimilar exactly when every node weakly emits
    ``ok`` (has a τ-path to an ``ok`` edge) and no edge carries another
    visible action.  Then "every node x the spec state" is a weak
    bisimulation (a τ-step is matched by the spec standing still, an
    ``ok`` by its loop, the spec's ``ok`` by the node's weak ``ok``), and
    any bisimulation relates every reachable node to that one state.  So
    one BFS backwards over the τ-edges from the nodes with an ``ok`` edge
    decides it, in O(states + transitions) and with no ``Transition``
    built.  ``tests/test_bisim_oracle.py`` keeps a generic
    partition-refinement checker as the oracle.

    Returns (True, the node ids, each related to the spec's one state), or
    (False, evidence): the nearest bad state (``_bad_state_evidence``)."""
    if graph.truncated:
        raise GraphTruncated("bisimulation needs a fully explored graph")
    edges = graph.edges
    n = len(edges.nodes)
    # Per label: 0 for τ, 1 for ok, 2 for any other visible action.
    kinds = bytes(0 if action == TAU else 1 if action == OK else 2
                  for action, _ in edges.labels)
    starts = array("I", [0]) * (n + 1)
    reached = bytearray(n)              # node id -> weakly emits ok
    queue = array("I")
    for s, t, label in zip(_edge_sources(edges.offsets), edges.targets,
                           edges.label_ids):
        kind = kinds[label]
        if kind == 0:
            starts[t] += 1
        elif kind == 1 and not reached[s]:
            reached[s] = 1
            queue.append(s)
    # Reverse τ-adjacency in CSR form: the sources of the τ-edges into t
    # are sources[starts[t]:starts[t + 1]].  Running in-degree sums, filled
    # from the back, leave each entry at the start of its node's range.
    starts = array("I", accumulate(starts))
    sources = array("I", [0]) * starts[n]
    for s, t, label in zip(_edge_sources(edges.offsets), edges.targets,
                           edges.label_ids):
        if not kinds[label]:
            k = starts[t] - 1
            starts[t] = k
            sources[k] = s
    for t in queue:
        for s in sources[starts[t]:starts[t + 1]]:
            if not reached[s]:
                reached[s] = 1
                queue.append(s)
    # The label table holds the labels of the graph's edges only.
    if 2 not in kinds and 0 not in reached:
        return True, range(n)
    return False, _bad_state_evidence(graph, kinds, reached)


def _bad_state_evidence(graph: LtsGraph, kinds: bytes, reached: bytearray) -> str:
    """The nearest bad state, found by a forward BFS from the initials over
    every edge: a node that cannot weakly emit ok (not ``reached``) or that
    has an edge with a visible action other than ok (label kind 2).  Names
    its digest, what is wrong there and the shortest schedule to it, in
    the ``ti=K "RULE" ...`` form that ``consrep trace`` replays."""
    edges = graph.edges
    offsets, targets, label_ids, labels = (edges.offsets, edges.targets,
                                           edges.label_ids, edges.labels)
    n = len(edges.nodes)
    parent = array("i", [-1]) * n       # node id -> BFS parent, -1 at a root
    via = array("I", [0]) * n           # node id -> the edge from its parent
    seen = bytearray(n)
    queue = array("I")
    for rep in graph.initials:
        s = graph.node_ids[rep]
        if not seen[s]:
            seen[s] = 1
            queue.append(s)
    for s in queue:
        other = [labels[label_ids[i]][0] for i in range(offsets[s], offsets[s + 1])
                 if kinds[label_ids[i]] == 2]
        if other or not reached[s]:
            break
        for i in range(offsets[s], offsets[s + 1]):
            t = targets[i]
            if not seen[t]:
                seen[t] = 1
                parent[t] = s
                via[t] = i
                queue.append(t)
    else:
        raise ValueError("every bad state is unreachable from the initials")
    rules = []
    node = s
    while parent[node] >= 0:
        rules.append(labels[label_ids[via[node]]][1])
        node = parent[node]
    schedule = " ".join([f"ti={edges.nodes[node].ti}"]
                        + [f'"{rule}"' for rule in reversed(rules)])
    problem = (f"emits {action_str(other[0])}, a visible action other than ok"
               if other else "cannot weakly emit ok")
    return (f"state {repsem.rep_digest(edges.nodes[s])} {problem}; "
            f"shortest schedule: {schedule}")


# ---------------------------------------------------------------------------
# Exports.

def graph_stats(graph: LtsGraph) -> dict:
    edges = graph.edges
    terminal = sum(1 for s, (lo, hi) in enumerate(pairwise(edges.offsets))
                   if all(edges.targets[i] == s for i in range(lo, hi)))
    return {
        "mode": "representative",  # the only one explored; kept for stable output
        "states": len(graph.node_ids),
        "transitions": len(graph.edges),
        "initial_states": len(graph.initials),
        "terminal_states": terminal,
        "decided_values": _decided_values(graph),
        "truncated": graph.truncated,
    }


def export_dot(graph: LtsGraph) -> str:
    lines = ["digraph lts {", "  rankdir=LR;"]
    for rep, ident in sorted(graph.node_ids.items(), key=lambda kv: kv[1]):
        wj, ww, wb = rep.wrap
        label = (f"{repsem.rep_digest(rep)}\\n"
                 f"live={len(rep.live)} b={rep.budget} w=({wj},{value_str(ww)},{wb})")
        shape = "doublecircle" if wj == 0 else "ellipse"
        lines.append(f'  n{ident} [label="{label}", shape={shape}];')
    for tr in sorted(graph.edges):
        a = graph.node_ids[tr.source]
        b = graph.node_ids[tr.target]
        lines.append(
            f'  n{a} -> n{b} [label="{tr.rule.family}:{action_str(tr.action)}"];'
        )
    lines.append("}")
    return "\n".join(lines)


def graph_jsonable(graph: LtsGraph) -> dict:
    nodes = sorted(graph.node_ids.items(), key=lambda kv: kv[1])
    return {
        "mode": "representative",
        "truncated": graph.truncated,
        "initials": [graph.node_ids[r] for r in graph.initials],
        "nodes": [dict(id=ident, **repsem.rep_jsonable(rep)) for rep, ident in nodes],
        "edges": [
            {
                "source": graph.node_ids[tr.source],
                "target": graph.node_ids[tr.target],
                "action": action_str(tr.action),
                "rule": tr.rule,
            }
            for tr in sorted(graph.edges)
        ],
    }
