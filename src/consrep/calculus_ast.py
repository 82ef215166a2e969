"""Four-layer term language: data values, expressions, processes, networks.

All terms are immutable tagged tuples.  That keeps equality, hashing and
total ordering structural and cheap, which the state-space explorer leans
on heavily.  Constructors validate their arguments; everything downstream
trusts the tags.

Locations are agent ids (positive ints) or the observer location ``STAR``.
Channels are structured ids rather than strings: a slot may hold either a
concrete int or a variable name that substitution later resolves, so the
indexed channel families used by process equations need no name mangling.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .errors import (
    PatternMismatch,
    TypeMismatch,
    UnboundFunction,
    UnboundVariable,
)

STAR = "*"

# ---------------------------------------------------------------------------
# Data values:  bot | nat | pair | finite set

BOT = ("bot",)


def nat(k):
    assert isinstance(k, int) and k >= 0, k
    return ("nat", k)


def vpair(a, b):
    return ("pair", a, b)


def finset(vals):
    """Finite-set value; duplicates collapse, order is canonical."""
    return ("set", tuple(sorted(set(vals))))


def is_value(v) -> bool:
    match v:
        case ("bot",):
            return True
        case ("nat", int(k)):
            return k >= 0
        case ("pair", a, b):
            return is_value(a) and is_value(b)
        case ("set", tuple(elems)):
            return all(is_value(e) for e in elems)
    return False


def as_nat(v) -> int:
    if v[0] != "nat":
        raise TypeMismatch(f"expected a natural, got {value_str(v)}")
    return v[1]


def value_str(v) -> str:
    match v:
        case ("bot",):
            return "_"
        case ("nat", k):
            return str(k)
        case ("pair", a, b):
            return f"({value_str(a)},{value_str(b)})"
        case ("set", elems):
            return "{" + ",".join(value_str(e) for e in elems) + "}"
    return repr(v)


# ---------------------------------------------------------------------------
# Channel ids.  Slots hold ints once concrete; equation bodies may leave
# variable names in slots, filled in by substitution.

CHAN_OK = ("ok",)


def chan_a(sender, receiver, rnd):
    return ("a", sender, receiver, rnd)


def chan_b(sender, receiver):
    return ("b", sender, receiver)


def chan_c(agent):
    return ("c", agent)


def chan_str(ch) -> str:
    return "_".join(str(s) for s in ch)


# ---------------------------------------------------------------------------
# Expressions:  lit | var | paire | call

def lit(v):
    assert is_value(v), v
    return ("lit", v)


def var(x):
    assert isinstance(x, str), x
    return ("var", x)


def paire(a, b):
    return ("paire", a, b)


def call(f, arg):
    assert isinstance(f, str), f
    return ("call", f, arg)


def tuple_e(*es):
    """Right-nested pair expression, the argument-tuple convention."""
    assert es
    out = es[-1]
    for e in reversed(es[:-1]):
        out = paire(e, out)
    return out


FunctionTable = dict[str, Callable]


def eval_expr(e, ftable: FunctionTable):
    """Evaluate a closed expression to a data value.  Pure."""
    match e:
        case ("lit", v):
            return v
        case ("var", x):
            raise UnboundVariable(f"free variable {x!r} in expression")
        case ("paire", a, b):
            return ("pair", eval_expr(a, ftable), eval_expr(b, ftable))
        case ("call", f, arg):
            fn = ftable.get(f)
            if fn is None:
                raise UnboundFunction(f"no function {f!r} in table")
            return fn(eval_expr(arg, ftable))
    raise TypeMismatch(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# Processes.
#
#   nil | out | in | susp | psusp | sum | if | const | par
#
# Sum branches must be guards; conditional branches may be arbitrary
# processes (the consensus equations put parallel sends and constant calls
# under conditionals, so the stricter reading of the grammar is untenable).

NIL = ("nil",)

_GUARD_TAGS = {"nil", "out", "in", "susp", "psusp", "sum", "if"}


def out(ch, e, cont):
    return ("out", ch, e, cont)


def inp(ch, pattern, cont):
    return ("in", ch, pattern, cont)


def susp(k, cont):
    return ("susp", k, cont)


def psusp(k, cont):
    return ("psusp", k, cont)


def plus(g1, g2):
    assert g1[0] in _GUARD_TAGS and g2[0] in _GUARD_TAGS, (g1[0], g2[0])
    return ("sum", g1, g2)


def cond(e, p, q):
    return ("if", e, p, q)


def const(name, arg):
    assert isinstance(name, str), name
    return ("const", name, arg)


def par(p, q):
    return ("par", p, q)


def par_chain(ps):
    """Right-nested parallel composition of processes."""
    assert ps
    outp = ps[-1]
    for p in reversed(ps[:-1]):
        outp = par(p, outp)
    return outp


def out_atom(ch, e):
    """Output with no continuation."""
    return out(ch, e, NIL)


def inpat(ch, x, k, cont):
    """Receive on ``ch`` or suspect location ``k``; both continue as ``cont``
    (with bot substituted for the pattern on the suspicion branch)."""
    return plus(inp(ch, x, cont), susp(k, substitute(cont, x, BOT)))


# ---------------------------------------------------------------------------
# Networks:  nnil | loc | npar | res

NNIL = ("nnil",)


def located(location, p):
    assert location == STAR or (isinstance(location, int) and location >= 1)
    return ("loc", location, p)


def npar(m, n):
    return ("npar", m, n)


def npar_chain(ns):
    if not ns:
        return NNIL
    outn = ns[-1]
    for n in reversed(ns[:-1]):
        outn = npar(n, outn)
    return outn


def res(n, ch):
    return ("res", n, ch)


def res_chain(n, chans):
    for ch in reversed(list(chans)):
        n = res(n, ch)
    return n


# ---------------------------------------------------------------------------
# Configurations.

class Config(NamedTuple):
    live: frozenset
    budget: int
    ti: int | None
    net: tuple

    def is_live(self, location) -> bool:
        return location == STAR or location in self.live


class Defs(NamedTuple):
    """Equation set plus the function table its expressions draw from.

    ``cache`` memoises constant unfoldings by argument value; local states
    recur across global states constantly.
    """
    equations: dict
    ftable: FunctionTable
    cache: dict


# ---------------------------------------------------------------------------
# Pattern matching and substitution.

def match_pattern(pattern, v) -> dict:
    """Bind the variables of a pattern to the components of a value, left
    before right."""
    env: dict = {}
    stack = [(pattern, v)]
    while stack:
        pat, val = stack.pop()
        if isinstance(pat, str):
            assert pat not in env, f"duplicate variable {pat!r} in pattern"
            env[pat] = val
        else:
            if val[0] != "pair":
                raise PatternMismatch(
                    f"pattern {pat!r} needs a pair, got {value_str(val)}"
                )
            stack.append((pat[1], val[2]))
            stack.append((pat[0], val[1]))
    return env


def pattern_vars(pattern) -> set:
    if isinstance(pattern, str):
        return {pattern}
    return pattern_vars(pattern[0]) | pattern_vars(pattern[1])


def _subst_slot(slot, env):
    # Channel and suspicion slots: variable names resolve to naturals.
    if isinstance(slot, str) and slot in env:
        v = env[slot]
        if v[0] != "nat":
            raise TypeMismatch(f"slot {slot!r} bound to non-natural {value_str(v)}")
        return v[1]
    return slot


def _subst_chan(ch, env):
    return (ch[0],) + tuple(_subst_slot(s, env) for s in ch[1:])


def subst_expr(e, env: dict):
    match e:
        case ("lit", _):
            return e
        case ("var", x):
            v = env.get(x)
            return e if v is None else ("lit", v)
        case ("paire", a, b):
            return ("paire", subst_expr(a, env), subst_expr(b, env))
        case ("call", f, arg):
            return ("call", f, subst_expr(arg, env))
    raise TypeMismatch(f"not an expression: {e!r}")


def subst_proc(p, env: dict):
    if not env:
        return p
    match p:
        case ("nil",):
            return p
        case ("out", ch, e, cont):
            return ("out", _subst_chan(ch, env), subst_expr(e, env),
                    subst_proc(cont, env))
        case ("in", ch, pattern, cont):
            # The pattern binds; shadowed names are not substituted inside.
            inner = {k: v for k, v in env.items() if k not in pattern_vars(pattern)}
            return ("in", _subst_chan(ch, env), pattern, subst_proc(cont, inner))
        case ("susp", k, cont):
            return ("susp", _subst_slot(k, env), subst_proc(cont, env))
        case ("psusp", k, cont):
            return ("psusp", _subst_slot(k, env), subst_proc(cont, env))
        case ("sum", g1, g2):
            return ("sum", subst_proc(g1, env), subst_proc(g2, env))
        case ("if", e, a, b):
            return ("if", subst_expr(e, env), subst_proc(a, env), subst_proc(b, env))
        case ("const", name, arg):
            return ("const", name, subst_expr(arg, env))
        case ("par", a, b):
            return ("par", subst_proc(a, env), subst_proc(b, env))
    raise TypeMismatch(f"not a process: {p!r}")


def substitute(p, pattern, v):
    """P{v/X}: replace the free variables of the pattern by the matching
    components of the value.  Only data values are substituted."""
    assert is_value(v), v
    return subst_proc(p, match_pattern(pattern, v))
