"""The consensus algorithm encoded as process equations.

This is the classic Chandra–Toueg algorithm for a strong failure detector:
n agents run n-1 rounds of knowledge exchange (phase 1), one round of
knowledge synchronisation that erases values any peer failed to confirm
(phase 2), then each decides the first known value (phase 3).  An observer
at the star location collects every decision and emits on the public `ok`
channel once all live agents decided a single common value.

Agents exchange knowledge vectors.  A knowledge vector maps every agent id
to a (value, round) entry - the value learned for that agent (or bot) and
the round it was learned in.  A relay vector carries only values and holds
exactly the freshly learned slots an agent rebroadcasts next round.  Both,
along with message sets, are encoded as data values of the calculus so
they travel through channels and parameter lists unchanged.

Message-set entries are tagged pairs: tag 1 entries carry a relay vector
plus (round, sender), tag 2 entries a knowledge vector plus sender.  The
vector slot of an entry is bot when the entry records a suspicion instead
of a reception; the helper functions skip such entries, mirroring the
pseudocode where suspected agents simply contribute no message.
"""

from __future__ import annotations

from typing import NamedTuple

from .calculus_ast import (
    BOT,
    CHAN_OK,
    NIL,
    STAR,
    Config,
    Defs,
    as_nat,
    call,
    chan_a,
    chan_b,
    chan_c,
    cond,
    const,
    finset,
    inp,
    inpat,
    lit,
    located,
    nat,
    npar_chain,
    out_atom,
    par_chain,
    plus,
    psusp,
    res_chain,
    subst_proc,
    tuple_e,
    var,
    vpair,
)
from .errors import EmptyKnowledge, NotReachableShape, TypeMismatch

MUTATIONS = frozenset({
    "no-ti-protection",   # suspicion may target the trusted immortal
    "sr1-deletes-in1",    # representative receive drops the collector entry
    "skip-correct",       # phase 2 decides without the erasure pass
    "no-phase1-susp",     # representative semantics loses phase-1 suspicion
})


# ---------------------------------------------------------------------------
# Problem instances.

class ProblemInstance(NamedTuple):
    n: int
    values: tuple
    budget: int

    def validate(self):
        if self.n < 1:
            raise ValueError("need at least one agent")
        if len(self.values) != self.n:
            raise ValueError(f"expected {self.n} proposed values, got {len(self.values)}")
        if any(not isinstance(v, int) or v < 1 for v in self.values):
            raise ValueError("proposed values must be positive integers")
        if not 0 <= self.budget <= self.n - 1:
            raise ValueError(
                f"crash budget must be in 0..{self.n - 1} (at least one agent stays correct)"
            )


def make_instance(n: int, values, budget: int | None = None) -> ProblemInstance:
    inst = ProblemInstance(n=n, values=tuple(values),
                           budget=n - 1 if budget is None else budget)
    inst.validate()
    return inst


# ---------------------------------------------------------------------------
# Vector and message-set encodings.

EMPTY_MSGS = finset(())


def know_vec(entries) -> tuple:
    """Encode [(agent, value, round)] as a knowledge-vector data value."""
    return finset(vpair(nat(q), vpair(v, nat(r))) for q, v, r in entries)


def know_entries(vv) -> list:
    """Decode a knowledge vector to [(agent, value, round)], sorted."""
    if vv[0] != "set":
        raise TypeMismatch("knowledge vector must be a set value")
    out = []
    for e in vv[1]:
        out.append((as_nat(e[1]), e[2][1], as_nat(e[2][2])))
    return out


def relay_vec(entries) -> tuple:
    """Encode [(agent, value)] as a relay-vector data value."""
    return finset(vpair(nat(q), v) for q, v in entries)


def relay_entries(dv) -> list:
    if dv[0] != "set":
        raise TypeMismatch("relay vector must be a set value")
    return [(as_nat(e[1]), e[2]) for e in dv[1]]


def initial_know(inst: ProblemInstance, i: int) -> tuple:
    return know_vec(
        (q, nat(inst.values[q - 1]) if q == i else BOT, 0)
        for q in range(1, inst.n + 1)
    )


def initial_relay(inst: ProblemInstance, i: int) -> tuple:
    return relay_vec(
        (q, nat(inst.values[q - 1]) if q == i else BOT)
        for q in range(1, inst.n + 1)
    )


def msg_add1(msgs, delta, rnd: int, sender: int) -> tuple:
    """Add a round message (relay vector or bot, round, sender)."""
    entry = vpair(nat(1), vpair(delta, vpair(nat(rnd), nat(sender))))
    return finset(msgs[1] + (entry,))


def msg_add2(msgs, vv, sender: int) -> tuple:
    """Add a sync message (knowledge vector or bot, sender)."""
    entry = vpair(nat(2), vpair(vv, nat(sender)))
    return finset(msgs[1] + (entry,))


def msg_entries(msgs) -> list:
    """Decode a message set to [(tag, vector-or-bot, round-or-None, sender)]."""
    if msgs[0] != "set":
        raise TypeMismatch("message set must be a set value")
    out = []
    for e in msgs[1]:
        tag = as_nat(e[1])
        payload = e[2]
        if tag == 1:
            out.append((1, payload[1], as_nat(payload[2][1]), as_nat(payload[2][2])))
        elif tag == 2:
            out.append((2, payload[1], None, as_nat(payload[2])))
        else:
            raise TypeMismatch(f"unknown message tag {tag}")
    return out


# ---------------------------------------------------------------------------
# The helper functions of the algorithm.

def _fresh_values(rnd: int, msgs, vv) -> dict:
    """Values newly learnable in round ``rnd``: slot -> value, taking the
    smallest sender first.  Suspicion entries carry no vector and are
    skipped.  Only slots currently unknown in ``vv`` count."""
    unknown = {q for q, v, _ in know_entries(vv) if v == BOT}
    candidates = sorted(
        (sender, delta)
        for tag, delta, r, sender in msg_entries(msgs)
        if tag == 1 and r == rnd and delta != BOT
    )
    fresh: dict = {}
    for _, delta in candidates:
        for q, v in relay_entries(delta):
            if q in unknown and v != BOT and q not in fresh:
                fresh[q] = v
    return fresh


def updatek(rnd: int, msgs, vv) -> tuple:
    """Fold the round's messages into a knowledge vector.  Slots already
    known are never overwritten; new slots are stamped with the round."""
    fresh = _fresh_values(rnd, msgs, vv)
    return know_vec(
        (q, fresh[q], rnd) if q in fresh else (q, v, r)
        for q, v, r in know_entries(vv)
    )


def updater(rnd: int, msgs, vv) -> tuple:
    """The relay vector for the next round: exactly the freshly learned
    slots, bot elsewhere."""
    fresh = _fresh_values(rnd, msgs, vv)
    return relay_vec((q, fresh.get(q, BOT)) for q, v, r in know_entries(vv))


def correct_fn(msgs, vv) -> tuple:
    """Erase every slot some sync message reports as unknown."""
    veto: set = set()
    for tag, vec, _, _ in msg_entries(msgs):
        if tag == 2 and vec != BOT:
            veto.update(q for q, v, _ in know_entries(vec) if v == BOT)
    return know_vec(
        (q, BOT, r) if q in veto else (q, v, r)
        for q, v, r in know_entries(vv)
    )


def getfst(vv) -> tuple:
    """The value at the smallest known slot."""
    for _, v, _ in know_entries(vv):
        if v != BOT:
            return v
    raise EmptyKnowledge("no known entry to decide on")


# ---------------------------------------------------------------------------
# Function table for the expression language.

def _split_value(v, k: int) -> list:
    parts = []
    for _ in range(k - 1):
        if v[0] != "pair":
            raise TypeMismatch(f"expected a {k}-tuple argument")
        parts.append(v[1])
        v = v[2]
    parts.append(v)
    return parts


def _nat_bool(b: bool) -> tuple:
    return nat(1 if b else 0)


def _ft_lt(v):
    a, b = _split_value(v, 2)
    return _nat_bool(as_nat(a) < as_nat(b))


def _ft_le(v):
    a, b = _split_value(v, 2)
    return _nat_bool(as_nat(a) <= as_nat(b))


def _ft_eq(v):
    a, b = _split_value(v, 2)
    return _nat_bool(a == b)


def _ft_ne(v):
    a, b = _split_value(v, 2)
    return _nat_bool(a != b)


def _ft_and(v):
    a, b = _split_value(v, 2)
    return _nat_bool(as_nat(a) > 0 and as_nat(b) > 0)


def _ft_or(v):
    a, b = _split_value(v, 2)
    return _nat_bool(as_nat(a) > 0 or as_nat(b) > 0)


def _ft_add(v):
    a, b = _split_value(v, 2)
    return nat(as_nat(a) + as_nat(b))


def _ft_madd1(v):
    msgs, delta, rnd, sender = _split_value(v, 4)
    return msg_add1(msgs, delta, as_nat(rnd), as_nat(sender))


def _ft_madd2(v):
    msgs, vec, sender = _split_value(v, 3)
    return msg_add2(msgs, vec, as_nat(sender))


def _ft_updatek(v):
    rnd, msgs, vec = _split_value(v, 3)
    return updatek(as_nat(rnd), msgs, vec)


def _ft_updater(v):
    rnd, msgs, vec = _split_value(v, 3)
    return updater(as_nat(rnd), msgs, vec)


def _ft_correct(v):
    msgs, vec = _split_value(v, 2)
    return correct_fn(msgs, vec)


def _ft_getfst(v):
    return getfst(v)


FTABLE = {
    "lt": _ft_lt,
    "le": _ft_le,
    "eq": _ft_eq,
    "ne": _ft_ne,
    "and": _ft_and,
    "or": _ft_or,
    "add": _ft_add,
    "madd1": _ft_madd1,
    "madd2": _ft_madd2,
    "updatek": _ft_updatek,
    "updater": _ft_updater,
    "correct": _ft_correct,
    "getfst": _ft_getfst,
}


def _lt(a, b):
    return call("lt", tuple_e(a, b))


def _le(a, b):
    return call("le", tuple_e(a, b))


def _eq(a, b):
    return call("eq", tuple_e(a, b))


def _ne(a, b):
    return call("ne", tuple_e(a, b))


def _and(a, b):
    return call("and", tuple_e(a, b))


def _or(a, b):
    return call("or", tuple_e(a, b))


def _inc(a):
    return call("add", tuple_e(a, lit(nat(1))))


# ---------------------------------------------------------------------------
# The equation set.

def equations(n: int, mutations: frozenset = frozenset()) -> dict:
    """Process equations for an n-agent system plus the observer.

    Per agent p: a round sender (broadcast the relay vector, or skip to
    phase 2 after the last round), a round collector (receive-or-suspect
    from each peer in turn), a sync sender, a sync collector, and the
    decision.  The observer polls decisions in agent order, skipping
    crashed agents via perfect suspicion, and goes inert on a mismatch.
    """
    eqs: dict = {}
    for p in range(1, n + 1):
        sends = [out_atom(chan_a(p, i, "r"), var("D")) for i in range(1, n + 1)]
        eqs[f"P1_{p}"] = (
            ("r", ("V", ("D", "M"))),
            cond(
                _lt(var("r"), lit(nat(n))),
                par_chain(sends + [
                    const(f"C1_{p}", tuple_e(var("r"), var("V"), var("M"), lit(nat(1)))),
                ]),
                const(f"P2_{p}", tuple_e(var("V"), var("M"))),
            ),
        )

        recv1 = const(f"C1_{p}", tuple_e(
            var("r"), var("V"),
            call("madd1", tuple_e(var("M"), var("m"), var("r"), var("i"))),
            _inc(var("i")),
        ))
        eqs[f"C1_{p}"] = (
            ("r", ("V", ("M", "i"))),
            cond(
                _le(var("i"), lit(nat(n))),
                inpat(chan_a("i", p, "r"), "m", "i", recv1),
                const(f"P1_{p}", tuple_e(
                    _inc(var("r")),
                    call("updatek", tuple_e(var("r"), var("M"), var("V"))),
                    call("updater", tuple_e(var("r"), var("M"), var("V"))),
                    var("M"),
                )),
            ),
        )

        syncs = [out_atom(chan_b(p, i), var("V")) for i in range(1, n + 1)]
        eqs[f"P2_{p}"] = (
            ("V", "M"),
            par_chain(syncs + [
                const(f"C2_{p}", tuple_e(var("V"), var("M"), lit(nat(1)))),
            ]),
        )

        recv2 = const(f"C2_{p}", tuple_e(
            var("V"),
            call("madd2", tuple_e(var("M"), var("m"), var("i"))),
            _inc(var("i")),
        ))
        decided = (var("V") if "skip-correct" in mutations
                   else call("correct", tuple_e(var("M"), var("V"))))
        eqs[f"C2_{p}"] = (
            ("V", ("M", "i")),
            cond(
                _le(var("i"), lit(nat(n))),
                inpat(chan_b("i", p), "m", "i", recv2),
                const(f"P3_{p}", decided),
            ),
        )

        eqs[f"P3_{p}"] = ("V", out_atom(chan_c(p), call("getfst", var("V"))))

    accept = _or(_and(_eq(var("v"), lit(BOT)), _ne(var("w"), lit(BOT))),
                 _eq(var("v"), var("w")))
    wait = plus(
        psusp("i", const("WRAP", tuple_e(_inc(var("i")), var("v"), lit(nat(1))))),
        inp(chan_c("i"), "w", cond(
            accept,
            const("WRAP", tuple_e(_inc(var("i")), var("w"), lit(nat(1)))),
            const("WRAP", tuple_e(var("i"), var("v"), lit(nat(0)))),
        )),
    )
    eqs["WRAP"] = (
        ("i", ("v", "b")),
        cond(
            _eq(var("b"), lit(nat(1))),
            cond(
                _and(_le(lit(nat(1)), var("i")), _le(var("i"), lit(nat(n)))),
                wait,
                cond(_eq(var("i"), lit(nat(n + 1))), out_atom(CHAN_OK, lit(BOT)), NIL),
            ),
            const("WRAP", tuple_e(var("i"), var("v"), lit(nat(0)))),
        ),
    )
    return eqs


def restriction(n: int) -> tuple:
    """The private channels: all round, sync and decision channels."""
    chans = [chan_a(p, i, r)
             for p in range(1, n + 1)
             for i in range(1, n + 1)
             for r in range(1, n)]
    chans += [chan_b(p, i) for p in range(1, n + 1) for i in range(1, n + 1)]
    chans += [chan_c(p) for p in range(1, n + 1)]
    return tuple(sorted(chans))


class System:
    """A problem instance bundled with its equations and channel scope,
    and the memos the semantics fill as they run."""

    __slots__ = ("inst", "defs", "restriction", "mutations", "_wait_cache",
                 "_rules", "_slot_comps", "_leaf_slots", "_leaf_raises",
                 "_received", "_offers", "_entries", "_validity")

    def __init__(self, inst: ProblemInstance, defs: Defs, restriction: tuple,
                 mutations: frozenset = frozenset()):
        self.inst = inst
        self.defs = defs
        self.restriction = restriction
        self.mutations = mutations
        # Waiting-shape builder results; state components recur constantly.
        self._wait_cache: dict = {}
        # The ``repsem.Rule`` of each step of the representative semantics,
        # by its step key: each collector move and observer step (keyed by
        # the identities of the collector or observer entry and of the
        # entry it consumes), `ok` send and crash.  A rule holds every
        # object whose identity its key names.  Steps recur across states.
        self._rules: dict = {}
        # Calculus-side canonicalisation per component (see repsem): the
        # round-trip-checked component of each representative slot, and,
        # by the identity of each replacement leaf, the leaf and the slots
        # it evaluates to, or, where its evaluation raises, the leaf and
        # the message it raises.
        self._slot_comps: dict = {}
        self._leaf_slots: dict = {}
        self._leaf_raises: dict = {}
        # The located leaves a Com step leaves behind, per Com step key
        # ("c", input owner, output owner); the two owners' slots determine
        # the leaves (see lts._com_leaves).
        self._received: dict = {}
        # What each slot's component offers a calculus step, by the
        # identity of the slot's entry (see lts._offer).
        self._offers: dict = {}
        # Each distinct representative entry, observer included, as one
        # ``repsem.Entry``, which caches its hash; filled where the memos
        # above are filled and by ``repsem.sf``.
        self._entries: dict = {}
        # By the identity of each entry of out1 .. in2, the entry and what
        # the validity check says of it (see verifier.check_safety_subset).
        self._validity: dict = {}

    @property
    def n(self) -> int:
        return self.inst.n

    @property
    def u(self) -> tuple:
        return self.inst.values


def build_system(inst: ProblemInstance, mutations=()) -> System:
    inst.validate()
    mset = frozenset(mutations)
    unknown = mset - MUTATIONS
    if unknown:
        raise ValueError(f"unknown mutations: {sorted(unknown)}")
    return System(
        inst=inst,
        defs=Defs(equations=equations(inst.n, mset), ftable=FTABLE, cache={}),
        restriction=restriction(inst.n),
        mutations=mset,
    )


def make_initial(inst: ProblemInstance) -> Config:
    """The initial configuration: every agent about to start round 1, the
    observer polling agent 1, trusted immortal not yet chosen."""
    inst.validate()
    comps = [
        located(i, const(f"P1_{i}", tuple_e(
            lit(nat(1)),
            lit(initial_know(inst, i)),
            lit(initial_relay(inst, i)),
            lit(EMPTY_MSGS),
        )))
        for i in range(1, inst.n + 1)
    ]
    comps.append(located(STAR, const("WRAP", tuple_e(lit(nat(1)), lit(BOT), lit(nat(1))))))
    net = res_chain(npar_chain(comps), restriction(inst.n))
    return Config(live=frozenset(range(1, inst.n + 1)), budget=inst.budget,
                  ti=None, net=net)


# ---------------------------------------------------------------------------
# Waiting-shape builders and the component classifier.
#
# The builders instantiate the guard subterm of the defining equation, so
# they produce exactly the terms evaluation produces; the classifier
# rebuilds and compares, which validates a component completely.

def out1_comp(p: int, i: int, r: int, delta) -> tuple:
    return located(p, out_atom(chan_a(p, i, r), lit(delta)))


def out2_comp(p: int, i: int, vv) -> tuple:
    return located(p, out_atom(chan_b(p, i), lit(vv)))


def out3_comp(p: int, v) -> tuple:
    return located(p, out_atom(chan_c(p), lit(v)))


def ok_comp() -> tuple:
    return located(STAR, out_atom(CHAN_OK, lit(BOT)))


def _wait_guard(sys: System, key: tuple, location, guard, bindings: dict) -> tuple:
    """``guard``, a guard subterm of an equation body, under ``bindings``,
    located at ``location`` and stored in ``sys._wait_cache`` under
    ``key``.  The builders below call it only on a cache miss."""
    comp = sys._wait_cache[key] = located(location, subst_proc(guard, bindings))
    return comp


def c1_wait_comp(sys: System, p: int, r: int, vv, msgs, i: int) -> tuple:
    key = ("c1", p, r, vv, msgs, i)
    return sys._wait_cache.get(key) or _wait_guard(
        sys, key, p, sys.defs.equations[f"C1_{p}"][1][2],
        {"r": nat(r), "V": vv, "M": msgs, "i": nat(i)})


def c2_wait_comp(sys: System, p: int, vv, msgs, i: int) -> tuple:
    key = ("c2", p, vv, msgs, i)
    return sys._wait_cache.get(key) or _wait_guard(
        sys, key, p, sys.defs.equations[f"C2_{p}"][1][2],
        {"V": vv, "M": msgs, "i": nat(i)})


def wrap_wait_comp(sys: System, wj: int, ww) -> tuple:
    key = ("wrap", wj, ww)
    return sys._wait_cache.get(key) or _wait_guard(
        sys, key, STAR, sys.defs.equations["WRAP"][1][2][2],
        {"i": nat(wj), "v": ww})


def wrap_inert_comp(wj: int, ww) -> tuple:
    return located(STAR, const("WRAP", tuple_e(lit(nat(wj)), lit(ww), lit(nat(0)))))


def _split_expr(e, k: int) -> list:
    parts = []
    for _ in range(k - 1):
        if e[0] != "paire":
            raise NotReachableShape("argument tuple too short")
        parts.append(e[1])
        e = e[2]
    parts.append(e)
    return parts


def _lit_value(e):
    if e[0] != "lit":
        raise NotReachableShape("expected an evaluated argument")
    return e[1]


def classify_component(sys: System, location, p):
    """Map a fully evaluated component to its boxed fields.

    Returns one of ("out1", (p, i, r, delta)), ("out2", (p, i, vv)),
    ("out3", (p, v)), ("in1", (p, r, vv, msgs, i)), ("in2", (p, vv, msgs, i)),
    ("wrap", (wj, ww, wb)).  Raises NotReachableShape otherwise.
    """
    n = sys.n
    try:
        match p:
            case ("out", ("a", int(s), int(i), int(r)), ("lit", delta), ("nil",)) \
                    if location == s and 1 <= i <= n and 1 <= r < n:
                return ("out1", (s, i, r, delta))
            case ("out", ("b", int(s), int(i)), ("lit", vv), ("nil",)) \
                    if location == s and 1 <= i <= n:
                return ("out2", (s, i, vv))
            case ("out", ("c", int(s)), ("lit", v), ("nil",)) if location == s:
                return ("out3", (s, v))
            case ("out", ("ok",), ("lit", ("bot",)), ("nil",)) if location == STAR:
                return ("wrap", (0, BOT, 1))
            case ("sum", ("in", ("a", int(s), int(q), int(r)), "m", cont), _) \
                    if location == q:
                args = _split_expr(cont[2], 4)
                vv = _lit_value(args[1])
                msgs = _lit_value(_split_expr(args[2][2], 4)[0])
                if ("loc", location, p) != c1_wait_comp(sys, q, r, vv, msgs, s):
                    raise NotReachableShape("round collector shape mismatch")
                return ("in1", (q, r, vv, msgs, s))
            case ("sum", ("in", ("b", int(s), int(q)), "m", cont), _) \
                    if location == q:
                args = _split_expr(cont[2], 3)
                vv = _lit_value(args[0])
                msgs = _lit_value(_split_expr(args[1][2], 3)[0])
                if ("loc", location, p) != c2_wait_comp(sys, q, vv, msgs, s):
                    raise NotReachableShape("sync collector shape mismatch")
                return ("in2", (q, vv, msgs, s))
            case ("sum", ("psusp", int(i), _), ("in", ("c", int(_)), "w", body)) \
                    if location == STAR:
                ww = _lit_value(_split_expr(body[3][2], 3)[1])
                if ("loc", location, p) != wrap_wait_comp(sys, i, ww):
                    raise NotReachableShape("observer shape mismatch")
                return ("wrap", (i, ww, 1))
            case ("const", "WRAP", argexpr) if location == STAR:
                wj, ww, wb = (_lit_value(a) for a in _split_expr(argexpr, 3))
                if as_nat(wb) != 0:
                    raise NotReachableShape("observer call left unevaluated")
                return ("wrap", (as_nat(wj), ww, 0))
    except (IndexError, TypeError, KeyError, TypeMismatch) as exc:
        raise NotReachableShape(f"malformed component at {location}: {exc}") from exc
    raise NotReachableShape(f"unrecognised component at {location}")
