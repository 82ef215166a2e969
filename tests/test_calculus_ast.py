import pytest
from hypothesis import given, strategies as st

from consrep.calculus_ast import (
    BOT,
    NIL,
    chan_a,
    chan_b,
    eval_expr,
    finset,
    inp,
    is_value,
    lit,
    nat,
    out,
    out_atom,
    paire,
    substitute,
    var,
    vpair,
)
from consrep.consensus_model import FTABLE
from consrep.errors import (
    PatternMismatch,
    TypeMismatch,
    UnboundFunction,
    UnboundVariable,
)

C = chan_b(1, 1)
D = chan_b(1, 2)


def test_finset_dedups_and_orders():
    assert finset([nat(2), nat(1), nat(2)]) == finset([nat(1), nat(2)])
    assert finset([nat(2), nat(1)])[1] == (nat(1), nat(2))


def test_bot_is_not_zero():
    assert BOT != nat(0)
    assert is_value(BOT) and is_value(nat(0))


def test_values_are_totally_ordered():
    vals = [BOT, nat(0), nat(3), vpair(nat(1), BOT), finset([nat(1)])]
    assert sorted(vals) == sorted(reversed(vals))


def test_eval_literal():
    assert eval_expr(lit(nat(5)), FTABLE) == nat(5)


def test_eval_pair_constructor():
    assert eval_expr(paire(lit(nat(1)), lit(BOT)), FTABLE) == vpair(nat(1), BOT)


def test_eval_unbound_function():
    with pytest.raises(UnboundFunction):
        eval_expr(("call", "nope", lit(nat(1))), FTABLE)


def test_eval_free_variable():
    with pytest.raises(UnboundVariable):
        eval_expr(var("x"), FTABLE)


def test_eval_type_mismatch():
    with pytest.raises(TypeMismatch):
        eval_expr(("call", "lt", paire(lit(BOT), lit(nat(1)))), FTABLE)


def test_eval_is_referentially_transparent():
    e = ("call", "add", paire(lit(nat(2)), lit(nat(3))))
    assert eval_expr(e, FTABLE) == eval_expr(e, FTABLE) == nat(5)


def test_substitute_simple():
    p = out(C, var("x"), NIL)
    assert substitute(p, "x", nat(5)) == out(C, lit(nat(5)), NIL)


def test_substitute_pair_pattern_componentwise():
    p = out(C, paire(var("y"), var("x")), NIL)
    got = substitute(p, ("x", "y"), vpair(nat(1), nat(2)))
    assert got == out(C, paire(lit(nat(2)), lit(nat(1))), NIL)


def test_substitute_binder_shadows():
    p = inp(C, "x", out(D, var("x"), NIL))
    assert substitute(p, "x", nat(9)) == p


def test_substitute_pattern_mismatch():
    with pytest.raises(PatternMismatch):
        substitute(NIL, ("x", "y"), nat(1))


def test_substitute_channel_slots():
    p = out_atom(chan_a("i", 2, "r"), lit(BOT))
    got = substitute(p, ("i", "r"), vpair(nat(1), nat(3)))
    assert got == out_atom(chan_a(1, 2, 3), lit(BOT))


small_values = st.recursive(
    st.one_of(st.just(BOT), st.integers(0, 5).map(nat)),
    lambda children: st.tuples(children, children).map(lambda ab: vpair(*ab)),
    max_leaves=4,
)


@given(small_values)
def test_substitute_no_free_occurrence_is_identity(v):
    p = inp(C, "y", out(D, var("y"), NIL))
    assert substitute(p, "z", v) == p


@given(small_values)
def test_substituted_literal_evaluates_to_itself(v):
    p = substitute(out(C, var("x"), NIL), "x", v)
    assert eval_expr(p[2], FTABLE) == v
