import re
from collections import Counter
from functools import partial, reduce

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import goursat.closure
import goursat.permutability
import goursat.relations
import goursat.terms
from goursat.algebras import FiniteAlgebra, all_subuniverses, projections, quotient, subalgebra
from goursat.closure import (
    ClosureResult,
    SubvarietySpec,
    _AxiomTracker,
    birkhoff_congruence,
    check_axioms,
    closure_effective,
    closure_goursat,
    reflect,
    roundtrip_check,
)
from goursat.corpus import (
    GROUP_SIG,
    LATTICE_SIG,
    boolean_ring,
    corpus_specs,
    cyclic_group,
    default_entries,
    heyting_chain,
    implication_from_boolean,
    klein4,
    spec_by_name,
    sym3,
    two_elt_lattice,
    zmod_vnr,
)
from goursat.distributivity import dist_report
from goursat.permutability import (
    NONE,
    THREE,
    TWO,
    SearchOutcome,
    find_hm_terms,
    find_maltsev_term,
    goursat_join_check,
    permutability_level,
)
from goursat.errors import (
    GoursatHypothesisError,
    NotCongruenceError,
    SignatureMismatchError,
)
from goursat.relations import Partition, composite, con_lattice, congruence_generated, is_congruence
from goursat.terms import App, Identity, Signature, Var, parse_identity, satisfies_identity
from goursat.verdict import NOT_APPLICABLE, PASS

from oracles import (
    brute_force_congruences,
    label_pairs,
    meet_blocks,
    naive_satisfies,
    naive_verbal_pairs,
    pull_back_instances,
)
from test_relations import NULLARY_ONLY, ONE_ELEMENT, small_algebras
from test_terms import _sig_terms

Z4 = cyclic_group(4)
Z8 = cyclic_group(8)
EXP2 = spec_by_name("exponent-2", GROUP_SIG)
ABELIAN = spec_by_name("abelian-group", GROUP_SIG)
ALL_GROUP = spec_by_name("all", GROUP_SIG)
TRIVIAL_GROUP = spec_by_name("trivial", GROUP_SIG)


def test_birkhoff_congruence_examples():
    assert birkhoff_congruence(Z4, EXP2).to_literal() == "0 2|1 3"
    assert birkhoff_congruence(Z8, EXP2).to_literal() == "0 2 4 6|1 3 5 7"
    assert birkhoff_congruence(cyclic_group(2), EXP2) == Partition.discrete(2)
    assert birkhoff_congruence(Z4, TRIVIAL_GROUP) == Partition.full(4)
    assert birkhoff_congruence(Z4, ALL_GROUP) == Partition.discrete(4)


def test_verbal_congruence_builds_translations_only_once_a_pair_merges(monkeypatch):
    calls = Counter()
    build = goursat.relations._basic_translations

    def counting(alg):
        calls[alg.name] += 1
        return build(alg)

    monkeypatch.setattr(goursat.relations, "_basic_translations", counting)
    ring = boolean_ring(3)
    # no identity of "all" differs anywhere, so no pair merges
    assert birkhoff_congruence(ring, spec_by_name("all", ring.sig)) == Partition.discrete(8)
    assert calls == {}
    assert birkhoff_congruence(ring, spec_by_name("trivial", ring.sig)) == Partition.full(8)
    assert calls == {ring.name: 1}


def test_birkhoff_congruence_on_sym3_abelianization():
    assert birkhoff_congruence(sym3(), ABELIAN).to_literal() == "0 3 4|1 2 5"


def test_birkhoff_congruence_signature_mismatch():
    with pytest.raises(SignatureMismatchError):
        birkhoff_congruence(two_elt_lattice(), EXP2)


def _least_satisfying_congruence(alg, spec):
    """Brute-force verbal congruence.

    The meet of all congruences whose quotient satisfies every identity of
    the spec; the meet itself qualifies, because a variety is closed under
    subdirect products.
    """
    qualifying = []
    for blocks in brute_force_congruences(alg):
        target = quotient(alg, Partition(alg.n, [list(b) for b in blocks])).target
        if all(naive_satisfies(target, ident)[0] for ident in spec.identities):
            qualifying.append(blocks)
    least = reduce(partial(meet_blocks, alg.n), qualifying)
    assert least in qualifying
    return least


def test_birkhoff_congruence_is_least_against_brute_force():
    cases = [
        (Z4, EXP2),
        (klein4(), EXP2),
        (Z4, ABELIAN),
        (boolean_ring(2), spec_by_name("idempotent-ring", boolean_ring(2).sig)),
        (heyting_chain(3), spec_by_name("boolean-from-heyting", heyting_chain(3).sig)),
    ]
    for alg, spec in cases:
        assert birkhoff_congruence(alg, spec).blocks == _least_satisfying_congruence(alg, spec)


@st.composite
def algebras_with_specs(draw):
    """A small random algebra and up to three random identities of depth <= 2."""
    alg = draw(small_algebras())
    term = _sig_terms(alg.sig, 2, ["x", "y"])
    idents = draw(st.lists(st.builds(Identity.of, term, term), max_size=3))
    return alg, SubvarietySpec(alg.sig, tuple(idents))


def _spec(alg, *texts):
    return SubvarietySpec(alg.sig, tuple(parse_identity(t, alg.sig) for t in texts))


NO_SIGNATURE = FiniteAlgebra(Signature({}), 3, {})


@settings(max_examples=100, deadline=None)
@given(algebras_with_specs())
@example((ONE_ELEMENT, _spec(ONE_ELEMENT, "f(x,y) = c", "x = y")))
@example((NULLARY_ONLY, _spec(NULLARY_ONLY, "c = d")))
@example((NULLARY_ONLY, _spec(NULLARY_ONLY, "x = y")))
@example((NO_SIGNATURE, _spec(NO_SIGNATURE, "x = y")))
@example((NO_SIGNATURE, _spec(NO_SIGNATURE, "x = x")))
def test_birkhoff_congruence_matches_oracle(case):
    alg, spec = case
    assert birkhoff_congruence(alg, spec).blocks == _least_satisfying_congruence(alg, spec)


@pytest.mark.parametrize("cap", [goursat.terms._BLOCK_CELLS, 1], ids=["block-cap", "one-cell-cap"])
@settings(max_examples=60, deadline=None)
@given(algebras_with_specs())
@example((NULLARY_ONLY, _spec(NULLARY_ONLY, "c = d", "x = c")))
@example((NO_SIGNATURE, _spec(NO_SIGNATURE, "x = y")))
def test_birkhoff_congruence_generates_from_the_oracle_pairs_in_order(cap, case):
    alg, spec = case
    fresh = FiniteAlgebra(alg.sig, alg.n, alg.tables)
    seen = []

    def recording(alg, pairs):
        seen.append(list(pairs))
        return congruence_generated(alg, pairs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(goursat.terms, "_BLOCK_CELLS", cap)
        mp.setattr(goursat.closure, "congruence_generated", recording)
        birkhoff_congruence(fresh, spec)
    assert seen == [naive_verbal_pairs(alg, spec)]


def test_reflect():
    qm = reflect(Z4, EXP2)
    assert qm.target.n == 2
    assert all(satisfies_identity(qm.target, i).ok for i in EXP2.identities)
    bij = reflect(cyclic_group(2), EXP2)
    assert bij.kernel == Partition.discrete(2)
    s3 = reflect(sym3(), ABELIAN)
    assert s3.target.n == 2
    assert s3.kernel.to_literal() == "0 3 4|1 2 5"


def test_closure_effective_of_discrete_is_the_verbal_congruence():
    res = closure_effective(Z8, Partition.discrete(8), EXP2)
    assert res.closure == birkhoff_congruence(Z8, EXP2)
    assert not res.dense


def test_closure_effective_of_full_is_dense():
    res = closure_effective(Z8, Partition.full(8), EXP2)
    assert res.closure == Partition.full(8)
    assert res.closed and res.dense


def test_closure_effective_grows_a_congruence():
    s = Partition.from_literal("0 4|1 5|2 6|3 7", 8)
    res = closure_effective(Z8, s, EXP2)
    assert res.closure.to_literal() == "0 2 4 6|1 3 5 7"
    assert not res.closed


def test_closure_effective_rejects_non_congruence():
    with pytest.raises(NotCongruenceError):
        closure_effective(Z4, Partition.from_literal("0 1|2 3", 4), EXP2)


def test_closure_goursat_matches_effective_construction():
    s = Partition.from_literal("0 4|1 5|2 6|3 7", 8)
    eff = closure_effective(Z8, s, EXP2)
    gour = closure_goursat(Z8, s, EXP2)
    assert gour.closure == eff.closure


def test_closure_goursat_rejects_non_congruence_with_the_is_congruence_witness():
    s = Partition.from_literal("0 1|2 3", 4)
    with pytest.raises(NotCongruenceError) as caught:
        closure_goursat(Z4, s, EXP2)
    assert (caught.value.symbol, caught.value.pair) == is_congruence(Z4, s).witness


def test_closure_goursat_builds_the_join_once_and_checks_only_s(monkeypatch):
    # D is the verbal congruence, proved as it is generated, so only S is
    # checked; D join S is built once for the composite test and the result
    counts = Counter()
    real_check, real_join = goursat.relations.is_congruence, Partition.join

    def checking(alg, p):
        counts["is_congruence"] += 1
        return real_check(alg, p)

    def joining(r, s):
        counts["join"] += 1
        return real_join(r, s)

    monkeypatch.setattr(goursat.relations, "is_congruence", checking)
    monkeypatch.setattr(Partition, "join", joining)
    z8 = cyclic_group(8)
    s = Partition.from_literal("0 4|1 5|2 6|3 7", 8)
    assert closure_goursat(z8, s, EXP2).closure.to_literal() == "0 2 4 6|1 3 5 7"
    assert counts == {"join": 1, "is_congruence": 1}


def _composite_with_0_last(*parts):
    """composite, except that every composite of three relations gains the pair (0, n - 1)."""
    mat = composite(*parts)
    if len(parts) == 3:
        mat[0, -1] = True
    return mat


@pytest.mark.parametrize("literal", ["0 1|2 3", "0 2|1 3", "0|1|2|3"])
def test_closure_goursat_refuses_a_composite_that_is_not_the_join(monkeypatch, literal):
    # with D discrete the pair permutes, so only the composite fault can break the formula
    alg = implication_from_boolean(2)
    monkeypatch.setattr(goursat.permutability, "composite", _composite_with_0_last)
    with pytest.raises(
        GoursatHypothesisError, match="^composite D o S o D is not an equivalence relation$"
    ):
        closure_goursat(alg, Partition.from_literal(literal, 4), SubvarietySpec(alg.sig, ()))


def test_congruences_are_proved_once_per_table_family(monkeypatch):
    checked, families = Counter(), {}
    real_check, real_proved = goursat.relations.is_congruence, goursat.relations._proved

    def checking(alg, p):
        verdict = real_check(alg, p)
        families[id(alg._memo)] = alg
        checked[id(alg._memo), p.index_of, verdict.ok] += 1
        return verdict

    def proved(alg):
        families[id(alg._memo)] = alg
        return real_proved(alg)

    monkeypatch.setattr(goursat.relations, "is_congruence", checking)
    monkeypatch.setattr(goursat.relations, "_proved", proved)
    groups = {}
    for entry in default_entries():
        groups.setdefault(entry.algebra.sig.key(), []).append(entry.algebra)
    for algs in groups.values():
        for spec in corpus_specs(algs[0].sig):
            check_axioms(algs, spec)
    # the sweep builds every congruence it closes: Con(A), verbal congruences, pull-backs
    assert not checked
    for entry in default_entries():
        dist_report(entry.algebra)
    assert not checked
    # a partition from outside is checked once when it passes, on every call when it fails
    z8 = cyclic_group(8)
    good, bad = Partition.from_literal("0 4|1 5|2 6|3 7", 8), Partition.from_literal("0 1|2 3|4 5|6 7", 8)
    for _ in range(2):
        closure_goursat(z8, good, EXP2)
        closure_effective(z8, good, EXP2)
        with pytest.raises(NotCongruenceError):
            quotient(z8, bad)
    assert checked == {(id(z8._memo), good.index_of, True): 1, (id(z8._memo), bad.index_of, False): 2}
    # every label vector recorded as proved is a congruence (479 of them when written),
    # on the subalgebras and products that the sweep pulls back to as well
    names = [entry.name for entry in default_entries()]
    products = {f"{a}x{b}" for a in names for b in names}
    recorded = Counter()
    for alg in families.values():
        for labels in real_proved(alg):
            assert real_check(alg, Partition.from_labels(alg.n, labels)).ok, (alg.name, labels)
            recorded["subalgebra" if "|{" in alg.name else alg.name in products] += 1
    assert sum(recorded.values()) > 400
    assert recorded["subalgebra"] and recorded[True]


@pytest.mark.parametrize("bad", ["a", None, 1.5], ids=repr)
def test_a_non_integer_bound_is_refused_by_name(bad):
    spec = corpus_specs(Z4.sig)[0]
    calls = [
        ("cap", lambda: find_maltsev_term(Z4, cap=bad)),
        ("cap", lambda: find_hm_terms(Z4, cap=bad)),
        ("max_size", lambda: con_lattice(Z4, max_size=bad)),
        ("max_size", lambda: check_axioms([Z4], spec, max_size=bad)),
        ("max_size", lambda: dist_report(Z4, max_size=bad)),
    ]
    for name, call in calls:
        with pytest.raises(ValueError, match=f"^non-integer {name} {re.escape(repr(bad))}$"):
            call()


def test_closure_goursat_of_discrete():
    res = closure_goursat(Z8, Partition.discrete(8), EXP2)
    assert res.closure == birkhoff_congruence(Z8, EXP2)


def test_closure_goursat_refutes_three_permutability_on_a_unary_algebra():
    # f = (3 0 3 2) is not 3-permutable: D o S o D and S o D o S differ on
    # S = 0|1|2 3, while the quotient construction and the axioms still hold
    unary = FiniteAlgebra(Signature({"f": 1}), 4, {"f": (3, 0, 3, 2)}, name="f3032")
    spec = _spec(unary, "f(f(x)) = x")
    s = Partition.from_literal("0|1|2 3", 4)
    with pytest.raises(
        GoursatHypothesisError,
        match="^composite closures disagree: D o S o D differs from S o D o S$",
    ):
        closure_goursat(unary, s, spec)
    assert closure_effective(unary, s, spec).closure.to_literal() == "0 1 2 3"
    report = check_axioms([unary], spec)
    assert [st.status for st in report.entries.values()] == ["pass"] * len(report.entries)


# g3: f(x, y) is 1 when x = 1 and 2 otherwise.  Under commutativity the
# pair (D, S) = (0|1 2, 0 2|1) 3-permutes without permuting, so
# closure_goursat reads the composite formula at level three.  g3 has no
# Hagemann-Mitschke terms; the formula holds all the same, since any two
# equivalences on three points 3-permute.
G3 = FiniteAlgebra(Signature({"f": 2}), 3, {"f": (2, 2, 2, 1, 1, 1, 2, 2, 2)}, name="g3")


def test_closure_goursat_at_level_three(monkeypatch):
    spec = _spec(G3, "f(x,y) = f(y,x)")
    diag = birkhoff_congruence(G3, spec)
    assert diag.to_literal() == "0|1 2"
    assert permutability_level(G3, diag, Partition.from_literal("0 2|1", 3)) == THREE
    levels = []

    def recording(alg, r, s):
        verdict = goursat_join_check(alg, r, s)
        levels.append(verdict.note)
        return verdict

    monkeypatch.setattr(goursat.closure, "goursat_join_check", recording)
    cons = con_lattice(G3).congruences
    assert len(cons) == 4
    for s in cons:
        assert closure_goursat(G3, s, spec) == closure_effective(G3, s, spec)
    assert levels == [TWO, TWO, THREE, TWO]
    assert find_hm_terms(G3) == SearchOutcome(NONE, explored=6)


def test_closure_with_empty_spec_is_the_identity_operator():
    for alg in (Z4, heyting_chain(3)):
        spec = SubvarietySpec(alg.sig, (), name="all")
        for s in con_lattice(alg).congruences:
            assert closure_effective(alg, s, spec).closure == s
            assert closure_goursat(alg, s, spec).closure == s


def test_closure_effective_is_the_join_with_the_verbal_congruence():
    # a third construction beside the quotient and the composites: S join D(A)
    unary = FiniteAlgebra(Signature({"f": 1}), 4, {"f": (3, 0, 3, 2)}, name="f3032")
    cases = [(entry.algebra, spec) for entry in default_entries()
             for spec in corpus_specs(entry.algebra.sig)]
    cases.append((unary, _spec(unary, "f(f(x)) = x")))
    for alg, spec in cases:
        diag = birkhoff_congruence(alg, spec)
        for s in con_lattice(alg).congruences:
            assert closure_effective(alg, s, spec).closure == s.join(diag), (alg.name, spec.name)


def test_closure_result_axiomatic_sanity_on_sweep():
    for alg, spec in ((Z8, EXP2), (sym3(), ABELIAN)):
        lat = con_lattice(alg)
        for s in lat.congruences:
            res = closure_effective(alg, s, spec)
            assert s.refines(res.closure)
            assert is_congruence(alg, res.closure).ok
            assert res.closed == (res.closure == s)
            again = closure_effective(alg, res.closure, spec)
            assert again.closure == res.closure


# -- the axiom sweep ------------------------------------------------------------


def test_check_axioms_passes_on_group_corpus():
    report = check_axioms([Z4, Z8, klein4()], EXP2)
    assert report.ok
    assert all(st.status == "pass" for st in report.entries.values())
    assert report.notes == [
        "axiom 7 not checked on klein4: congruence lattice is not distributive"
    ]


def test_check_axioms_trivial_and_empty_specs():
    for spec in (TRIVIAL_GROUP, ALL_GROUP):
        report = check_axioms([Z4, klein4(), sym3()], spec)
        assert report.ok


def test_check_axioms_signature_mismatch():
    with pytest.raises(SignatureMismatchError):
        check_axioms([two_elt_lattice()], EXP2)


def test_check_axioms_carrier_bound_marks_not_applicable():
    report = check_axioms([Z8], EXP2, max_size=4)
    assert all(st.status == NOT_APPLICABLE for st in report.entries.values())
    assert any("skipped" in note for note in report.notes)
    assert report.ok  # a skip is not a failure, and the skip is reported
    assert report.entries["7"].note == "carrier bound exceeded"


def test_check_axioms_names_each_skipped_product():
    report = check_axioms([Z4, Z8], EXP2, max_size=16)
    assert report.ok
    assert report.notes == [
        "skipped the projections of cyclic_group(4)xcyclic_group(8): carrier 32 exceeds bound 16",
        "skipped the projections of cyclic_group(8)xcyclic_group(8): carrier 64 exceeds bound 16",
    ]


def test_check_axioms_on_no_algebras_has_nothing_to_check():
    report = check_axioms([], EXP2)
    assert report.ok and report.notes == []
    for key, verdict in report.entries.items():
        assert verdict.status == NOT_APPLICABLE
        if key == "7":
            assert verdict.note == "no input has a distributive congruence lattice"
        else:
            assert verdict.note == "nothing to check"


def test_check_axioms_axiom7_not_applicable_without_distributive_input():
    report = check_axioms([klein4()], EXP2)
    assert report.entries["7"].status == NOT_APPLICABLE
    assert report.entries["7"].note == "no input has a distributive congruence lattice"
    assert any("klein4" in note for note in report.notes)
    assert report.ok


@pytest.mark.parametrize(
    "alg",
    [Z8, sym3(), boolean_ring(3), heyting_chain(4), zmod_vnr(6)],
    ids=lambda alg: alg.name,
)
def test_check_axioms_axiom7_agrees_with_check_axiom7(alg):
    for spec in corpus_specs(alg.sig):
        status = check_axioms([alg], spec).entries["7"].status
        assert (status == PASS) == dist_report(alg, spec).axiom7.ok, spec.name


def test_check_axioms_reuses_the_closure_map_of_a_factor(monkeypatch):
    # Each source closes each congruence it pulls back once.  Z4 itself
    # closes its 3 congruences, and its pull-backs along every quotient are
    # read off that closure map; each proper subalgebra closes the pull-backs
    # of those 3 along its inclusion, whatever the quotient after it; each
    # projection of Z4 x Z4 closes the pull-backs of the 3 congruences of
    # its factor, whose closure map is the one already built for Z4.  Each
    # quotient Z4/theta builds its own closure map, on its own congruences.
    z4 = cyclic_group(4)
    calls = Counter()
    effective = goursat.closure.closure_effective

    def counting(alg, s, spec):
        calls[alg.name] += 1
        return effective(alg, s, spec)

    monkeypatch.setattr(goursat.closure, "closure_effective", counting)
    assert check_axioms([z4], EXP2).ok
    assert calls == {
        "cyclic_group(4)": 3,
        "cyclic_group(4)|{0}": 3,
        "cyclic_group(4)|{0 2}": 3,
        "cyclic_group(4)xcyclic_group(4)": 6,
        "cyclic_group(4)/0|1|2|3": 3,
        "cyclic_group(4)/0 2|1 3": 2,
        "cyclic_group(4)/0 1 2 3": 1,
    }


def _as_pairs(fields):
    return {name: label_pairs(value.index_of) if isinstance(value, Partition) else value
            for name, value in fields.items()}


def _pair_closure(alg, spec):
    """closure_effective on alg, from a pair set to a pair set."""
    def close(pairs):
        labels = list(range(alg.n))
        for a, b in pairs:
            labels[a] = min(labels[a], b)
        closure = closure_effective(alg, Partition.from_labels(alg.n, labels), spec).closure
        return label_pairs(closure.index_of)
    return close


@pytest.mark.parametrize("entry", default_entries(), ids=lambda entry: entry.algebra.name)
def test_check_axioms_pull_backs_match_the_per_arrow_oracle(monkeypatch, entry):
    # check_axioms reads the pull-backs of axioms 3 and 5 along quotients off
    # Con(A) and closes each pulled congruence once per source; the oracle
    # pulls back and closes every instance along each arrow on its own.
    alg = entry.algebra
    record = _AxiomTracker.record
    seen = []

    def spying(self, key, ok, **fields):
        if key in ("3", "5"):
            seen.append((key, ok, _as_pairs(fields)))
        record(self, key, ok, **fields)

    monkeypatch.setattr(_AxiomTracker, "record", spying)
    # (source, map, target, witness fields, axioms) per arrow, in check_axioms' order
    quotients = [quotient(alg, theta) for theta in con_lattice(alg).congruences]
    arrows = [(alg, qm.mapping, qm.target, {"algebra": alg.name, "quotient": qm.kernel}, "35")
              for qm in quotients]
    for universe in all_subuniverses(alg):
        if len(universe) < alg.n:
            sub, embed = subalgebra(alg, universe)
            elements = " ".join(map(str, sorted(universe)))
            arrows += [(sub, [qm.mapping[e] for e in embed], qm.target,
                        {"algebra": alg.name, "subuniverse": elements, "quotient": qm.kernel}, "3")
                       for qm in quotients]
    if alg.n * alg.n <= 64:
        prod, pmaps = projections([alg, alg])
        arrows += [(prod, pm.mapping, alg, {"algebra": prod.name, "projection": str(side)}, "3")
                   for side, pm in enumerate(pmaps)]

    for spec in corpus_specs(alg.sig):
        seen.clear()
        check_axioms([alg], spec)
        expected = []
        for source, mapping, target, fields, axioms in arrows:
            targets = [label_pairs(t.index_of) for t in con_lattice(target).congruences]
            instances = pull_back_instances(
                mapping, targets, _pair_closure(source, spec), _pair_closure(target, spec))
            for t, (lhs, rhs) in zip(targets, instances):
                for key in axioms:
                    ok = lhs <= rhs if key == "3" else lhs == rhs
                    expected.append((key, ok, dict(_as_pairs(fields), s=t, lhs=lhs, rhs=rhs)))
        assert seen == expected, spec.name


# Negative controls: each case injects one fault into goursat.closure and pins
# every axiom the sweep then reports failing, with its witness in key order.


def _next_congruence(alg, s, spec):
    """A wrong closure: the congruence after s in the lattice order, wrapping."""
    lat = con_lattice(alg)
    return ClosureResult(s, lat.congruences[(lat.index(s) + 1) % len(lat)])


def _discrete_iff_4_divides_n(alg, spec):
    """A wrong verbal congruence: discrete when 4 divides n, full otherwise."""
    return Partition.discrete(alg.n) if alg.n % 4 == 0 else Partition.full(alg.n)


def _full_iff_one_block(f, s):
    """A wrong image: the full target relation from a one-block input, else discrete."""
    n = f.target.n
    return Partition.full(n) if s.num_blocks == 1 else Partition.discrete(n)


NEGATIVE_CONTROLS = {
    "next-closure-on-z2-z4": (
        "closure_effective", _next_congruence, [cyclic_group(2), Z4], EXP2, {
            "1": [("algebra", "cyclic_group(2)"), ("s", "0 1"), ("closure", "0|1")],
            "2": [("algebra", "cyclic_group(2)"), ("s", "0|1"), ("t", "0 1")],
            "3": [("algebra", "cyclic_group(2)xcyclic_group(2)"), ("projection", "1"),
                  ("s", "0 1"), ("lhs", "0 1|2 3"), ("rhs", "0 2|1 3")],
            "4": [("algebra", "cyclic_group(2)"), ("s", "0 1"), ("closure", "0|1"),
                  ("reclosure", "0 1")],
            "5": [("algebra", "cyclic_group(2)"), ("quotient", "0 1"), ("s", "0"),
                  ("lhs", "0|1"), ("rhs", "0 1")],
            "6": [("algebra", "cyclic_group(4)"), ("quotient", "0 2|1 3"), ("s", "0 2|1 3"),
                  ("lhs", "0|1"), ("rhs", "0 1")],
            "7": [("algebra", "cyclic_group(2)"), ("quotient", "0|1"), ("r", "0 1"),
                  ("s", "0|1"), ("lhs", "0 1"), ("rhs", "0|1")],
            "additivity": [("algebra", "cyclic_group(2)"), ("r", "0 1"), ("s", "0|1"),
                           ("lhs", "0|1"), ("rhs", "0 1")],
        },
    ),
    "next-closure-on-klein4": (
        "closure_effective", _next_congruence, [klein4()], EXP2, {
            "1": [("algebra", "klein4"), ("s", "0 1 2 3"), ("closure", "0 1|2 3")],
            "2": [("algebra", "klein4"), ("s", "0 1|2 3"), ("t", "0 1 2 3")],
            "3": [("algebra", "klein4"), ("quotient", "0 2|1 3"), ("s", "0 1"),
                  ("lhs", "0 1|2 3"), ("rhs", "0 2|1 3")],
            "4": [("algebra", "klein4"), ("s", "0 1 2 3"), ("closure", "0 1|2 3"),
                  ("reclosure", "0 2|1 3")],
            "5": [("algebra", "klein4"), ("quotient", "0 1 2 3"), ("s", "0"),
                  ("lhs", "0 1|2 3"), ("rhs", "0 1 2 3")],
            "6": [("algebra", "klein4"), ("quotient", "0 1|2 3"), ("s", "0 2|1 3"),
                  ("lhs", "0 1"), ("rhs", "0|1")],
            "additivity": [("algebra", "klein4"), ("r", "0 1 2 3"), ("s", "0 1|2 3"),
                           ("lhs", "0 1|2 3"), ("rhs", "0 1 2 3")],
        },
    ),
    "next-closure-on-heyting3": (
        "closure_effective", _next_congruence, [heyting_chain(3)],
        spec_by_name("boolean-from-heyting", heyting_chain(3).sig), {
            "1": [("algebra", "heyting_chain(3)"), ("s", "0 1 2"), ("closure", "0|1 2")],
            "2": [("algebra", "heyting_chain(3)"), ("s", "0|1|2"), ("t", "0 1 2")],
            "3": [("algebra", "heyting_chain(3)"), ("subuniverse", "0 2"),
                  ("quotient", "0|1|2"), ("s", "0|1 2"), ("lhs", "0 1"), ("rhs", "0|1")],
            "4": [("algebra", "heyting_chain(3)"), ("s", "0 1 2"), ("closure", "0|1 2"),
                  ("reclosure", "0|1|2")],
            "5": [("algebra", "heyting_chain(3)"), ("quotient", "0 1 2"), ("s", "0"),
                  ("lhs", "0|1 2"), ("rhs", "0 1 2")],
            "6": [("algebra", "heyting_chain(3)"), ("quotient", "0|1 2"), ("s", "0|1 2"),
                  ("lhs", "0|1"), ("rhs", "0 1")],
            "7": [("algebra", "heyting_chain(3)"), ("quotient", "0|1 2"), ("r", "0 1 2"),
                  ("s", "0|1|2"), ("lhs", "0 1"), ("rhs", "0|1")],
            "additivity": [("algebra", "heyting_chain(3)"), ("r", "0 1 2"), ("s", "0|1|2"),
                           ("lhs", "0|1 2"), ("rhs", "0 1 2")],
        },
    ),
    "discrete-verbal-on-z4": (
        "birkhoff_congruence", _discrete_iff_4_divides_n, [Z4], EXP2, {
            "3": [("algebra", "cyclic_group(4)"), ("subuniverse", "0 2"),
                  ("quotient", "0|1|2|3"), ("s", "0|1|2|3"), ("lhs", "0 1"), ("rhs", "0|1")],
            "6": [("algebra", "cyclic_group(4)"), ("quotient", "0 2|1 3"), ("s", "0|1|2|3"),
                  ("lhs", "0|1"), ("rhs", "0 1")],
            "6prime": [("algebra", "cyclic_group(4)"), ("quotient", "0 2|1 3"),
                       ("lhs", "0|1"), ("rhs", "0 1")],
            "7": [("algebra", "cyclic_group(4)"), ("quotient", "0 2|1 3"), ("r", "0 1 2 3"),
                  ("s", "0|1|2|3"), ("lhs", "0|1"), ("rhs", "0 1")],
        },
    ),
    "one-block-image-on-klein4": (
        "direct_image", _full_iff_one_block, [klein4()], EXP2, {
            "image_join": [("algebra", "klein4"), ("quotient", "0 1|2 3"), ("r", "0 1|2 3"),
                           ("s", "0 2|1 3"), ("lhs", "0 1"), ("rhs", "0|1")],
        },
    ),
}


@pytest.mark.parametrize("case", NEGATIVE_CONTROLS.values(), ids=NEGATIVE_CONTROLS.keys())
def test_check_axioms_reports_each_injected_fault(monkeypatch, case):
    name, fault, algs, spec, expected = case
    monkeypatch.setattr(goursat.closure, name, fault)
    report = check_axioms(algs, spec)
    failures = {
        key: list(verdict.witness.items())
        for key, verdict in report.entries.items()
        if verdict.failed
    }
    assert failures == expected
    assert not report.ok

def test_roundtrip_check():
    assert roundtrip_check(Z4, EXP2).ok
    assert roundtrip_check(Z8, EXP2).ok
    assert roundtrip_check(cyclic_group(2), EXP2).ok
    assert roundtrip_check(sym3(), ABELIAN).ok
    assert roundtrip_check(klein4(), TRIVIAL_GROUP).ok


def test_roundtrip_check_reads_only_the_closure_maps_of_the_quotients(monkeypatch):
    # part (b) needs the closure map of each quotient alg/s, not the closure
    # map of alg nor the direct images along the quotient maps
    calls = Counter()
    effective, image = goursat.closure.closure_effective, goursat.relations.direct_image

    def counting_effective(alg, s, spec):
        calls[alg.name] += 1
        return effective(alg, s, spec)

    def counting_image(f, s):
        calls["direct_image"] += 1
        return image(f, s)

    monkeypatch.setattr(goursat.closure, "closure_effective", counting_effective)
    for module in (goursat.closure, goursat.relations):
        monkeypatch.setattr(module, "direct_image", counting_image)
    for entry in default_entries():
        for spec in corpus_specs(entry.algebra.sig):
            roundtrip_check(entry.algebra, spec)
    assert calls["direct_image"] == 0
    # Z4 has 3 congruences, and its quotients 3, 2 and 1; Z4 itself closes none
    calls.clear()
    assert roundtrip_check(Z4, EXP2).ok
    assert calls == {"cyclic_group(4)/0|1|2|3": 3, "cyclic_group(4)/0 2|1 3": 2,
                     "cyclic_group(4)/0 1 2 3": 1}


def _sweep_reprs():
    """Reprs of every check_axioms group sweep and dist_report on fresh corpus algebras."""
    algs = [entry.algebra for entry in default_entries()]
    groups = {}
    for alg in algs:
        groups.setdefault(alg.sig.key(), []).append(alg)
    out = [repr(check_axioms(group, spec))
           for group in groups.values() for spec in corpus_specs(group[0].sig)]
    out += [repr(dist_report(alg, spec)) for alg in algs for spec in corpus_specs(alg.sig)]
    return out


def test_family_memo_changes_no_report(monkeypatch):
    # With the family join a no-op every derived algebra has its own memo,
    # as when nothing was shared; reports, notes and witnesses must match.
    shared = _sweep_reprs()
    monkeypatch.setattr(FiniteAlgebra, "_join", lambda self, family: None)
    z4 = cyclic_group(4)
    assert quotient(z4, Partition.discrete(4)).target._memo is not z4._memo
    assert _sweep_reprs() == shared


def _identity_reflection(alg, spec):
    """A wrong reflection: the quotient by the discrete congruence."""
    return quotient(alg, Partition.discrete(alg.n))


def _full_on_four_elements(alg, spec):
    """A wrong verbal congruence: full on four elements, the real one elsewhere."""
    return Partition.full(4) if alg.n == 4 else birkhoff_congruence(alg, spec)


# Each case injects one fault into goursat.closure and pins the witness of
# the part of roundtrip_check that catches it.
ROUNDTRIP_CONTROLS = {
    "identity-reflection-on-z4": (
        "reflect", _identity_reflection, Z4, EXP2,
        {"part": "a", "detail": "reflection target has a non-closed diagonal"},
    ),
    # the meet of the qualifying congruences qualifies but is below the direct one
    "full-verbal-on-z4": (
        "birkhoff_congruence", _full_on_four_elements, Z4, EXP2,
        {"part": "b", "s": "0|1|2|3", "derived": "0 2|1 3", "direct": "0 1 2 3"},
    ),
    # the meet of the three qualifying coatoms of M3 does not qualify
    "full-verbal-on-klein4": (
        "birkhoff_congruence", _full_on_four_elements, klein4(), EXP2,
        {"part": "b", "s": "0|1|2|3", "derived": "0|1|2|3", "direct": "0 1 2 3"},
    ),
}


@pytest.mark.parametrize("case", ROUNDTRIP_CONTROLS.values(), ids=ROUNDTRIP_CONTROLS.keys())
def test_roundtrip_check_reports_each_injected_fault(monkeypatch, case):
    name, fault, alg, spec, expected = case
    assert roundtrip_check(alg, spec).ok
    monkeypatch.setattr(goursat.closure, name, fault)
    verdict = roundtrip_check(alg, spec)
    assert not verdict.ok and verdict.witness == expected


def test_spec_validation():
    with pytest.raises(SignatureMismatchError):
        SubvarietySpec(LATTICE_SIG, (parse_identity("m(x,x) = e", GROUP_SIG),))


def test_spec_validation_refuses_hand_built_terms_the_parser_never_yields():
    """A variable named like an operation symbol, and an application with too few arguments."""
    x = Var("x")
    clash = Identity.of(App("m", (Var("e"), x)), x)
    with pytest.raises(SignatureMismatchError, match=r"^variable 'e' clashes with an operation symbol$"):
        SubvarietySpec(GROUP_SIG, (clash,))
    short = Identity.of(x, App("m", (x,)))
    with pytest.raises(SignatureMismatchError, match=r"^'m' expects 2 arguments, got 1$"):
        SubvarietySpec(GROUP_SIG, (short,))
