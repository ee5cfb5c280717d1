from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import naive_satisfies, product_encode
from test_relations import NULLARY_ONLY, ONE_ELEMENT, small_algebras

import goursat.terms as terms
from goursat.algebras import product
from goursat.corpus import GROUP_SIG, cyclic_group, implication_from_boolean
from goursat.errors import EvalError, ParseError, SignatureMismatchError
from goursat.terms import (
    App,
    Identity,
    Signature,
    Var,
    eval_term,
    parse_identities,
    parse_identity,
    parse_term,
    render,
    satisfies_identity,
    term_variables,
)

Z4 = cyclic_group(4)


def test_parse_flat_application():
    t = parse_term("p(x,y,z)", Signature({"p": 3}))
    assert t == App("p", (Var("x"), Var("y"), Var("z")))


def test_parse_nested_and_whitespace():
    sig = Signature({"m": 2, "i": 1, "e": 0})
    t = parse_term("  m( x , i( y ) ) ", sig)
    assert t == App("m", (Var("x"), App("i", (Var("y"),))))


def test_parse_nullary_bare():
    sig = Signature({"m": 2, "e": 0})
    assert parse_term("e", sig) == App("e", ())


def test_parse_truncated_input_reports_position():
    with pytest.raises(ParseError) as err:
        parse_term("m(x,", Signature({"m": 2}))
    assert err.value.pos == 4


def test_parse_nullary_with_arguments_rejected():
    with pytest.raises(ParseError, match="nullary"):
        parse_term("e(x)", Signature({"e": 0}))


def test_parse_unknown_operation_applied():
    with pytest.raises(ParseError, match="unknown operation"):
        parse_term("g(x)", Signature({"m": 2}))


def test_parse_bare_operation_symbol_is_not_a_variable():
    with pytest.raises(ParseError, match="expects 2 arguments"):
        parse_term("m", Signature({"m": 2}))


def test_parse_arity_mismatch():
    with pytest.raises(ParseError, match="expects 2 arguments, got 3"):
        parse_term("m(x,y,z)", Signature({"m": 2}))


def test_parse_trailing_garbage():
    with pytest.raises(ParseError):
        parse_term("m(x,y))", Signature({"m": 2}))


def test_parse_empty_argument_list_is_syntax_error():
    with pytest.raises(ParseError):
        parse_term("m()", Signature({"m": 2}))


# -- rendering round trip --------------------------------------------------

_SIG = Signature({"f": 2, "g": 1, "c": 0})


def _terms(depth):
    leaf = st.sampled_from([Var("u"), Var("v"), Var("w"), App("c", ())])
    if depth == 0:
        return leaf
    sub = _terms(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(sub, sub).map(lambda ab: App("f", ab)),
        sub.map(lambda a: App("g", (a,))),
    )


@given(_terms(3))
def test_render_parse_roundtrip(t):
    assert parse_term(render(t), _SIG) == t


def test_variables_first_occurrence_order():
    sig = Signature({"f": 2})
    t = parse_term("f(b,f(a,b))", sig)
    assert term_variables(t) == ["b", "a"]
    ident = parse_identity("f(b,a) = f(c,b)", sig)
    assert ident.vars == ("b", "a", "c")


# -- evaluation --------------------------------------------------------------


def test_eval_addition_mod_4():
    t = parse_term("m(x,y)", Z4.sig)
    assert eval_term(Z4, t, {"x": 1, "y": 3}) == 0


def test_eval_variable_identity():
    for a in range(Z4.n):
        assert eval_term(Z4, Var("x"), {"x": a}) == a


def test_eval_inverse_law_instance():
    t = parse_term("m(x,i(x))", Z4.sig)
    assert eval_term(Z4, t, {"x": 3}) == 0


def test_eval_unbound_variable():
    with pytest.raises(EvalError, match="unbound"):
        eval_term(Z4, Var("q"), {"x": 0})


def test_eval_foreign_symbol():
    with pytest.raises(EvalError):
        eval_term(Z4, App("meet", (Var("x"), Var("x"))), {"x": 0})


def test_eval_term_refuses_an_application_with_the_wrong_arity():
    with pytest.raises(EvalError, match=r"^arity mismatch applying 'm'$"):
        eval_term(Z4, App("m", (Var("x"),)), {"x": 0})


# -- identity checking -------------------------------------------------------


def test_satisfies_commutativity():
    ident = parse_identity("m(x,y) = m(y,x)", Z4.sig)
    assert satisfies_identity(Z4, ident).ok


def test_satisfies_exponent_two_fails_with_least_witness():
    ident = parse_identity("m(x,x) = e", Z4.sig)
    verdict = satisfies_identity(Z4, ident)
    assert not verdict.ok
    assert verdict.witness == {"x": 1}


def test_satisfies_implication_contraction():
    alg = implication_from_boolean(1)
    ident = parse_identity("imp(imp(x,y),x) = x", alg.sig)
    # exhaustive check over all four assignments
    assert satisfies_identity(alg, ident).ok


def test_satisfies_signature_mismatch():
    ident = parse_identity("meet(x,y) = meet(y,x)", Signature({"meet": 2}))
    with pytest.raises(SignatureMismatchError):
        satisfies_identity(Z4, ident)


def test_satisfies_identity_refuses_a_variable_missing_from_vars():
    ident = Identity(Var("x"), App("e", ()), ())
    with pytest.raises(EvalError, match="unbound variable 'x'"):
        satisfies_identity(Z4, ident)


def test_verdict_invariant_under_variable_permutation():
    ident = parse_identity("m(x,y) = m(y,m(x,x))", Z4.sig)
    permuted = Identity(ident.lhs, ident.rhs, ("y", "x"))
    assert satisfies_identity(Z4, ident).ok == satisfies_identity(Z4, permuted).ok


def test_eval_on_product_is_componentwise():
    z2 = cyclic_group(2)
    prod = product([Z4, z2])
    t = parse_term("m(m(x,i(y)),e)", Z4.sig)
    for xa in range(4):
        for xb in range(2):
            for ya in range(4):
                for yb in range(2):
                    env = {
                        "x": product_encode([4, 2], (xa, xb)),
                        "y": product_encode([4, 2], (ya, yb)),
                    }
                    got = eval_term(prod, t, env)
                    want = product_encode(
                        [4, 2],
                        (
                            eval_term(Z4, t, {"x": xa, "y": ya}),
                            eval_term(z2, t, {"x": xb, "y": yb}),
                        ),
                    )
                    assert got == want


# -- identity files ----------------------------------------------------------


def test_parse_identity_file_with_comments():
    text = "# exponent two\n\nm(x,x) = e\nm(x,y) = m(y,x)\n"
    idents = parse_identities(text, GROUP_SIG)
    assert [i.render() for i in idents] == ["m(x,x) = e", "m(x,y) = m(y,x)"]


def test_parse_identity_file_reports_line():
    with pytest.raises(ParseError, match="line 3"):
        parse_identities("# ok\n\nm(x = y\n", GROUP_SIG)


def test_parse_identity_requires_single_equals():
    with pytest.raises(ParseError):
        parse_identity("m(x,y)", GROUP_SIG)
    with pytest.raises(ParseError):
        parse_identity("x = y = z", GROUP_SIG)


_ERROR_CASES = [
    # missing '=' is reported at the end of the text, which is not quoted
    ("m(x,y)", 6, "expected '=', found end of input"),
    ("m(x,y) = x = y", 11, "unexpected trailing input '='"),  # the second '=', not the first
    # right-hand errors are offsets into the whole text
    ("m(x,y) = m(x)", 9, "'m' expects 2 arguments, got 1"),
    (" m(x) = x", 1, "'m' expects 2 arguments, got 1"),  # a term starts after leading whitespace
    ("m(x,", 4, "expected identifier, found end of input"),
    ("m(x,) = x", 4, "expected identifier, found ')'"),
]


@pytest.mark.parametrize(
    "text, pos, message", _ERROR_CASES, ids=[f"{text}-{pos}" for text, pos, _ in _ERROR_CASES]
)
def test_parse_identity_error_positions(text, pos, message):
    with pytest.raises(ParseError) as err:
        parse_identity(text, GROUP_SIG)
    assert err.value.pos == pos
    assert str(err.value) == f"{message} (at position {pos})"


# -- array evaluation against the per-assignment oracle -----------------------


def _sig_terms(sig, depth, names):
    """Terms of depth <= depth over the variables names and the signature."""
    leaves = [Var(v) for v in names] + [App(sym, ()) for sym, arity in sig if arity == 0]
    if depth == 0:
        return st.sampled_from(leaves)
    sub = _sig_terms(sig, depth - 1, names)
    apps = [
        st.tuples(*[sub] * arity).map(partial(App, sym))
        for sym, arity in sig
        if arity > 0
    ]
    return st.one_of(st.sampled_from(leaves), *apps)


@st.composite
def algebras_with_identities(draw):
    """A small algebra and an identity of depth <= 3 in up to four variables.

    With nullary symbols the identity may be ground.  Its variable order
    is any permutation of its variables, sometimes with one unused extra.
    """
    alg = draw(small_algebras())
    has_constants = any(arity == 0 for _, arity in alg.sig)
    k = draw(st.integers(0 if has_constants else 1, 4))
    names = ["x", "y", "z", "w"][:k]
    term = _sig_terms(alg.sig, 3, names)
    ident = Identity.of(draw(term), draw(term))
    order = list(ident.vars)
    if len(order) < 4 and draw(st.booleans()):
        order.append("u")
    return alg, Identity(ident.lhs, ident.rhs, tuple(draw(st.permutations(order))))


def _ident(alg, text):
    return parse_identity(text, alg.sig)


@pytest.mark.parametrize("cap", [terms._BLOCK_CELLS, 1], ids=["block-cap", "one-cell-cap"])
@settings(max_examples=100, deadline=None)
@given(algebras_with_identities())
@example((NULLARY_ONLY, _ident(NULLARY_ONLY, "c = d")))
@example((NULLARY_ONLY, _ident(NULLARY_ONLY, "c = c")))
@example((NULLARY_ONLY, _ident(NULLARY_ONLY, "x = c")))
@example((ONE_ELEMENT, _ident(ONE_ELEMENT, "f(x,f(y,z)) = f(w,c)")))
def test_satisfies_identity_matches_the_per_assignment_oracle(cap, case):
    alg, ident = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(terms, "_BLOCK_CELLS", cap)
        verdict = satisfies_identity(alg, ident)
    holds, witness = naive_satisfies(alg, ident)
    assert verdict.ok == holds
    assert verdict.witness == witness


def test_a_four_variable_law_on_cyclic_group_64_stays_within_the_block_cap(monkeypatch):
    """64**4 = 16.7 M assignments, evaluated in 64 blocks of 2**18 cells."""
    z64 = cyclic_group(64)
    sizes = []

    def recording(alg, ident, blocks=terms.eval_identity):
        for start, lhs, rhs in blocks(alg, ident):
            sizes.append(lhs.size)
            yield start, lhs, rhs

    monkeypatch.setattr(terms, "eval_identity", recording)
    medial = _ident(z64, "m(m(x,y),m(z,w)) = m(m(x,z),m(y,w))")
    assert satisfies_identity(z64, medial).ok
    assert sizes == [terms._BLOCK_CELLS] * 64

    # 32x = 0 fails exactly for odd x: the least witness opens the second block
    x32 = "m(x,x)"
    for _ in range(4):
        x32 = f"m({x32},{x32})"
    odd = _ident(z64, f"m({x32},m(y,m(z,w))) = m(y,m(z,w))")
    sizes.clear()
    verdict = satisfies_identity(z64, odd)
    assert verdict.witness == {"x": 1, "y": 0, "z": 0, "w": 0}
    assert sizes == [terms._BLOCK_CELLS] * 2
