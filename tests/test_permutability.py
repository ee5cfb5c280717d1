import importlib
import pkgutil
import random
from itertools import permutations, zip_longest
from itertools import product as iproduct
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    automorphisms,
    compose_pairs,
    label_pairs,
    naive_clone_rounds,
    naive_subuniverse,
    pointed_iso_classes,
)
from test_relations import NULLARY_ONLY, ONE_ELEMENT, small_algebras

import goursat
import goursat.permutability as permutability
import goursat.subpower as subpower
import goursat.symmetry as symmetry
import goursat.terms as terms
from goursat.algebras import FiniteAlgebra, product
from goursat.corpus import (
    GROUP_SIG,
    LATTICE_SIG,
    cyclic_group,
    default_entries,
    heyting_chain,
    implication_from_boolean,
    klein4,
    sym3,
    two_elt_lattice,
)
from goursat.errors import CarrierBoundError, NotCongruenceError
from goursat.permutability import (
    FOUND,
    INCONCLUSIVE,
    NEITHER,
    NONE,
    THREE,
    TWO,
    SearchOutcome,
    find_hm_terms,
    find_maltsev_term,
    goursat_join_check,
    hm_chain_check,
    permutability_level,
)
from goursat.relations import Partition, _orbit_least, composite, con_lattice
from goursat.terms import Signature, eval_term, render
from goursat.verdict import Verdict

K4 = klein4()
KERP1 = Partition.from_literal("0 1|2 3", 4)
KERP2 = Partition.from_literal("0 2|1 3", 4)


def chain_lattice(n):
    return FiniteAlgebra.from_functions(
        LATTICE_SIG, n, {"meet": min, "join": max}, name=f"chain_lattice({n})"
    )


# the three-element chain with both nontrivial interval congruences
L3 = chain_lattice(3)
T1 = Partition.from_literal("0 1|2", 3)
T2 = Partition.from_literal("0|1 2", 3)


def test_projection_kernels_two_permute():
    assert permutability_level(K4, KERP1, KERP2) == TWO
    assert composite(KERP1, KERP2).all() and composite(KERP2, KERP1).all()


def test_pair_with_itself_two_permutes():
    for alg, p in ((K4, KERP1), (L3, T1)):
        assert permutability_level(alg, p, p) == TWO


def test_chain_lattice_pair_is_three_permutable_only():
    assert permutability_level(L3, T1, T2) == THREE
    assert composite(T1, T2)[0, 2] and not composite(T2, T1)[0, 2]
    assert composite(T1, T2, T1).all()
    assert composite(T2, T1, T2).all()


def test_four_chain_has_a_non_three_permutable_pair():
    l4 = chain_lattice(4)
    a = Partition.from_literal("0 1|2 3", 4)
    b = Partition.from_literal("0|1 2|3", 4)
    assert permutability_level(l4, a, b) == NEITHER
    assert goursat_join_check(l4, a, b) == Verdict(None, note=NEITHER)


def test_permutability_level_rejects_non_congruences():
    with pytest.raises(NotCongruenceError):
        permutability_level(cyclic_group(4), Partition.from_literal("0 1|2 3", 4), KERP1)


def test_goursat_join_check():
    assert goursat_join_check(K4, KERP1, KERP2).ok
    assert goursat_join_check(K4, KERP1, KERP1).ok
    assert goursat_join_check(L3, T1, T2).ok


# the mono-unary A = ({0, 1, 2, 3}, f = (3 0 3 2)), which is not 3-permutable
UNARY4 = FiniteAlgebra(Signature({"f": 1}), 4, {"f": (3, 0, 3, 2)}, name="unary4")


def _oracle_level(r, s):
    """The permutability level of two equivalences, from their explicit pair sets."""
    rp, sp = label_pairs(r.index_of), label_pairs(s.index_of)
    rs, sr = compose_pairs(rp, sp), compose_pairs(sp, rp)
    if rs == sr:
        return TWO
    if compose_pairs(rs, rp) == compose_pairs(sr, sp):
        return THREE
    return NEITHER


def _levels_match_the_oracle(alg):
    """Compare every ordered congruence pair with the oracle; return the levels seen."""
    seen = set()
    cons = con_lattice(alg).congruences
    for r in cons:
        for s in cons:
            level = _oracle_level(r, s)
            assert permutability_level(alg, r, s) == level, (r, s)
            verdict = goursat_join_check(alg, r, s)
            if level == NEITHER:
                assert verdict == Verdict(None, note=NEITHER), (r, s)
            else:
                assert verdict.note == level, (r, s)
            seen.add(level)
    return seen


@settings(max_examples=60, deadline=None)
@given(small_algebras())
@example(chain_lattice(4))
@example(UNARY4)
def test_permutability_level_matches_the_pair_set_oracle(alg):
    _levels_match_the_oracle(alg)


def test_the_level_oracle_comparison_reaches_every_level():
    seen = _levels_match_the_oracle(chain_lattice(4)) | _levels_match_the_oracle(UNARY4)
    assert seen == {TWO, THREE, NEITHER}


def composite_missing_1_2(*parts):
    """composite, except that every composite of three relations loses the pair (1, 2)."""
    mat = composite(*parts)
    if len(parts) == 3:
        mat[1, 2] = False
    return mat


def test_goursat_join_check_witness_is_a_pair_of_plain_ints(monkeypatch):
    monkeypatch.setattr(permutability, "composite", composite_missing_1_2)
    verdict = goursat_join_check(K4, KERP1, KERP2)
    assert verdict == Verdict(False, witness=(1, 2), note=TWO)
    assert all(type(x) is int for x in verdict.witness)


def test_goursat_join_check_reports_a_pair_the_join_lacks(monkeypatch):
    # a composite that adds a pair is caught too: the witness is the least
    # pair on which the composite and the join differ, here (0, n - 1)
    alg = implication_from_boolean(2)
    n = alg.n

    def composite_with_0_last(*parts):
        mat = composite(*parts)
        if len(parts) == 3:
            mat[0, n - 1] = True
        return mat

    monkeypatch.setattr(permutability, "composite", composite_with_0_last)
    cons = con_lattice(alg).congruences
    failed = 0
    for r in cons:
        for s in cons:
            verdict = goursat_join_check(alg, r, s)
            joined = r.join(s)
            if joined.index_of[0] == joined.index_of[n - 1]:
                assert verdict == Verdict(True, note=TWO), (r, s)
            else:
                assert verdict == Verdict(False, witness=(0, n - 1), note=TWO), (r, s)
                failed += 1
    assert failed == 7


# -- clone generation -----------------------------------------------------------


def _clone_rounds(alg, cap):
    """The clone BFS as the searches run it: the projections on the representatives."""
    return subpower._rounds(alg, permutability._projections(alg.n, symmetry._clone_orbits(alg)), cap)


def _cube(n):
    """The three projection rows on all of A^3."""
    return permutability._projections(n, np.arange(n**3))


def _drained(alg, cap=200_000):
    """(index, derivations, fresh) once the clone BFS stops, its last round numbered up to the cap."""
    for index, derivations, fresh, _crossed in _clone_rounds(alg, cap):
        pass
    return index, derivations, fresh


def _full_tables(alg, derivations):
    """Each id's term evaluated on all of A^3."""
    memo = {}
    each = (permutability._reconstruct(derivations, i, memo) for i in range(len(derivations)))
    return [tuple(permutability._full_table(alg, t).tolist()) for t in each]


def test_clone_of_one_element_algebra_is_a_single_function():
    _, derivations, fresh = _drained(product([], sig=GROUP_SIG))
    assert len(derivations) == 1
    assert not fresh


def test_clone_of_empty_signature_is_the_three_projections():
    bare = FiniteAlgebra(Signature({}), 3, {}, name="bare3")
    _, derivations, fresh = _drained(bare)
    assert derivations == [(None, 0), (None, 1), (None, 2)]
    assert not fresh
    n = 3
    proj0 = tuple(x for x in range(n) for _ in range(n * n))
    assert proj0 in _full_tables(bare, derivations)


def test_clone_of_z2_contains_the_group_maltsev_table():
    z2 = cyclic_group(2)
    _, derivations, fresh = _drained(z2)
    assert not fresh
    # sums of subsets of {x, y, z}; the constant one is not a term operation
    tables = _full_tables(z2, derivations)
    assert len(derivations) == len(set(tables)) == 8
    assert tuple((x - y + z) % 2 for x, y, z in iproduct(range(2), repeat=3)) in tables


def test_clone_of_the_two_element_lattice_is_the_free_distributive_lattice_on_three_generators():
    _, derivations, fresh = _drained(two_elt_lattice())
    assert len(derivations) == 18  # |FD(3)|
    assert not fresh


def test_clone_cap_yields_incomplete_result():
    _, derivations, fresh = _drained(cyclic_group(2), cap=5)
    assert len(derivations) == 5
    assert fresh
    with pytest.raises(ValueError, match="cap must allow at least the three projections"):
        find_maltsev_term(cyclic_group(2), cap=2)


def test_clone_generation_is_deterministic():
    a, b = _drained(implication_from_boolean(1)), _drained(implication_from_boolean(1))
    assert list(a[0].items()) == list(b[0].items())
    assert a[1] == b[1]


def test_searches_refuse_a_small_cap_before_any_orbit_work():
    z64 = cyclic_group(64)
    # past a byte, the cap is still reported first
    constant256 = FiniteAlgebra(Signature({"f": 1}), 256, {"f": (0,) * 256}, name="constant256")
    for alg in (z64, constant256):
        for search in (find_maltsev_term, find_hm_terms):
            with pytest.raises(ValueError, match="cap must allow at least the three projections"):
                search(alg, cap=2)
    assert "clone_orbits" not in z64._memo


# -- term searches -----------------------------------------------------------------


def test_z2_maltsev_witness_is_the_group_word_table():
    out = find_maltsev_term(cyclic_group(2))
    assert out.status == FOUND
    # x * y^-1 * z, the standard group Mal'tsev operation
    expect = tuple((x - y + z) % 2 for x, y, z in iproduct(range(2), repeat=3))
    assert out.witness.table == expect
    assert hm_chain_check(cyclic_group(2), (out.witness.term,))


def test_witness_term_evaluates_to_its_table():
    for alg in (cyclic_group(2), cyclic_group(4), klein4()):
        out = find_maltsev_term(alg)
        assert out.status == FOUND
        n = alg.n
        for x, y, z in iproduct(range(n), repeat=3):
            got = eval_term(alg, out.witness.term, {"x": x, "y": y, "z": z})
            assert got == out.witness.table[(x * n + y) * n + z]


def test_two_element_lattice_has_no_maltsev_term_at_fixpoint():
    out = find_maltsev_term(two_elt_lattice())
    assert out.status == NONE
    assert out.explored == 18  # free distributive lattice on three generators


def test_one_element_algebra_has_a_maltsev_term():
    out = find_maltsev_term(product([], sig=GROUP_SIG))
    assert out.status == FOUND
    assert out.witness.table == (0,)


def test_hm_search_on_z2():
    alg = cyclic_group(2)
    out = find_hm_terms(alg)
    assert out.status == FOUND
    p, q = out.witness
    assert hm_chain_check(alg, (p.term, q.term))


def test_hm_search_on_implication_algebra():
    alg = implication_from_boolean(1)
    out = find_hm_terms(alg)
    assert out.status == FOUND
    p, q = out.witness
    assert hm_chain_check(alg, (p.term, q.term))
    n = 2
    for x, y, z in iproduct(range(n), repeat=3):
        assert eval_term(alg, p.term, {"x": x, "y": y, "z": z}) == p.table[(x * n + y) * n + z]
        assert eval_term(alg, q.term, {"x": x, "y": y, "z": z}) == q.table[(x * n + y) * n + z]


def test_the_chain_recheck_refuses_a_broken_link_with_its_first_witness():
    """Link i of x, p1, ..., pk, z asks pi(x,x,y) = pi+1(x,y,y); the witness is (link, x, y)."""
    z2 = cyclic_group(2)
    x, z = terms.Var("x"), terms.Var("z")
    # x, x, z breaks at its link 1 (x = y), and x, z, z at its link 0 (x = y)
    assert hm_chain_check(z2, (x,)) == Verdict(False, witness=(1, 0, 1))
    assert hm_chain_check(z2, (z,)) == Verdict(False, witness=(0, 0, 1))
    imp1 = implication_from_boolean(1)
    p, q = (w.term for w in find_hm_terms(imp1).witness)
    assert hm_chain_check(imp1, (p, q)) == Verdict(True)
    assert hm_chain_check(imp1, (q, p)) == Verdict(False, witness=(0, 0, 1))
    # implication algebras have no Maltsev term, so p alone breaks its last link
    assert hm_chain_check(imp1, (p,)) == Verdict(False, witness=(1, 1, 0))


def test_the_chain_recheck_does_not_read_the_array_evaluator(monkeypatch):
    alg = cyclic_group(4)
    chain = (find_maltsev_term(alg).witness.term,)

    def broken(*args):
        raise AssertionError("the re-check evaluated a term as an array")

    monkeypatch.setattr(terms, "_eval_array", broken)
    assert hm_chain_check(alg, chain)


def test_every_witness_of_the_default_corpus_passes_the_chain_recheck():
    found = 0
    for entry in default_entries():
        alg = entry.algebra
        maltsev, hm = find_maltsev_term(alg), find_hm_terms(alg)
        if maltsev:
            assert hm_chain_check(alg, (maltsev.witness.term,)), entry.name
        if hm:
            assert hm_chain_check(alg, tuple(w.term for w in hm.witness)), entry.name
        found += bool(maltsev) + bool(hm)
    # all 15 but the lattice and the two implication algebras have a Maltsev term,
    # and all but the lattice a Hagemann-Mitschke pair
    assert found == 12 + 14


def test_implication_algebra_has_no_maltsev_term():
    assert find_maltsev_term(implication_from_boolean(1)).status == NONE


def test_hm_search_none_on_two_element_lattice():
    assert find_hm_terms(two_elt_lattice()).status == NONE


def test_cap_produces_inconclusive_not_none():
    out = find_maltsev_term(sym3(), cap=100)
    assert out.status == INCONCLUSIVE
    out2 = find_hm_terms(sym3(), cap=100)
    assert out2.status == INCONCLUSIVE


def test_searches_are_deterministic():
    first = find_hm_terms(implication_from_boolean(2))
    second = find_hm_terms(implication_from_boolean(2))
    assert first.witness[0].table == second.witness[0].table
    assert first.witness[1].table == second.witness[1].table


_CELL_CAPS = pytest.mark.parametrize(
    "cells", [terms._BLOCK_CELLS, 1], ids=["block-cap", "one-cell-cap"]
)

# every blocked loop reads terms._BLOCK_CELLS; a module that imported it by name would
# hold its own binding, which a patch of terms misses
_CELL_MODULES = (terms,)


def _cap_cells(mp, cells):
    """Cut every block of the clone BFS and of its symmetry layer to at most cells cells."""
    for module in _CELL_MODULES:
        mp.setattr(module, "_BLOCK_CELLS", cells)


def test_the_cell_cap_reaches_every_module_that_binds_it():
    names = [name for _, name, _ in pkgutil.iter_modules(goursat.__path__) if not name.startswith("_")]
    binding = {name for name in names
               if hasattr(importlib.import_module(f"goursat.{name}"), "_BLOCK_CELLS")}
    assert binding == {module.__name__.rpartition(".")[2] for module in _CELL_MODULES}


@pytest.mark.parametrize(
    "build, explored, term",
    [
        (sym3, 14_531, "m(z,m(i(y),x))"),
        (lambda: heyting_chain(12), 5_739, "meet(join(x,z),meet(imp(y,x),imp(y,z)))"),
        (lambda: heyting_chain(16), 5_739, "meet(join(x,z),meet(imp(y,x),imp(y,z)))"),
        (lambda: product([cyclic_group(3), sym3()]), 14_531, "m(z,m(i(y),x))"),
    ],
    ids=["sym3", "heyting_chain(12)", "heyting_chain(16)", "cyclic_group(3)xsym3"],
)
def test_the_heavy_maltsev_searches_keep_their_witness_and_explored_count(build, explored, term):
    """The three heaviest term-search inputs of the benchmark, and heyting_chain(16).

    The binary operation of the product has 18**2 = 324 entries, so it
    is read by the uint16 gather; the others by the byte table.  A
    kernel that changes the derivation order moves the witness or the
    count.  The Heyting chains run on 51 cells of their 1 728 and 4 096.
    """
    alg = build()
    out = find_maltsev_term(alg)
    assert (out.status, out.explored, render(out.witness.term)) == (FOUND, explored, term)
    assert hm_chain_check(alg, (out.witness.term,))


@_CELL_CAPS
@pytest.mark.parametrize(
    "build, kept, term",
    [
        (lambda: heyting_chain(12), 1_345, "meet(join(x,z),meet(imp(y,x),imp(y,z)))"),
        (sym3, 12_166, "m(z,m(i(y),x))"),
    ],
    ids=["heyting_chain(12)", "sym3"],
)
def test_the_cap_keeps_a_witness_only_when_it_would_be_numbered_below_the_cap(
    cells, build, kept, term, monkeypatch
):
    """Exactly kept - 1 tables come before the witness in id order.

    Its round crosses both caps and is never numbered: the witness is
    kept when fewer than the round's room new keys are smaller.  With
    one-cell blocks each key is tested in a block of its own, so the
    witness is met after the first block.
    """
    _cap_cells(monkeypatch, cells)
    alg = build()
    uncapped = find_maltsev_term(alg)
    out = find_maltsev_term(alg, cap=kept)
    assert (out.status, out.explored, render(out.witness.term)) == (FOUND, kept, term)
    assert out.witness == uncapped.witness
    out = find_maltsev_term(alg, cap=kept - 1)
    assert (out.status, out.explored, out.witness) == (INCONCLUSIVE, kept - 1, None)


def test_the_cap_keeps_a_hagemann_mitschke_pair_only_when_both_are_numbered_below_it():
    """heyting_chain(2) has 17 tables after its first round, and its pair in the second.

    At cap 17 the second round has no room, so none of its tables is
    kept although it holds the pair; the pair's larger id is 38.

    The two-element lattice's clone has exactly 18 tables, FD(3), so its
    last round fits cap 18 exactly and both searches end at the fixpoint
    there, while at cap 17 that round crosses the cap by one table.
    """
    alg = heyting_chain(2)
    for cap in (17, 38):
        assert find_hm_terms(alg, cap=cap) == SearchOutcome(INCONCLUSIVE, explored=cap)
    out = find_hm_terms(alg, cap=39)
    assert (out.status, out.explored) == (FOUND, 39)
    assert out.witness == find_hm_terms(alg).witness
    lattice = two_elt_lattice()
    for search in (find_maltsev_term, find_hm_terms):
        assert search(lattice, cap=18) == SearchOutcome(NONE, explored=18)
        assert search(lattice, cap=17) == SearchOutcome(INCONCLUSIVE, explored=17)


def test_maltsev_term_forces_all_pairs_two_permutable():
    for alg in (cyclic_group(4), klein4(), sym3()):
        assert find_maltsev_term(alg).status == FOUND
        cons = con_lattice(alg).congruences
        for i in range(len(cons)):
            for j in range(i, len(cons)):
                assert permutability_level(alg, cons[i], cons[j]) == TWO


# -- differential tests against the per-tuple clone BFS --------------------------


def _assert_rounds_equal(got_rounds, want_rounds, restricted=bytes):
    """Every round of got_rounds equals the one of want_rounds, its keys restricted, field by field."""
    for got, want in zip_longest(got_rounds, want_rounds):
        assert got is not None and want is not None, "the two BFS ran different round counts"
        index, derivations, fresh, crossed = got
        w_index, w_derivations, w_fresh, w_crossed = want
        assert list(index.items()) == [(restricted(key), i) for key, i in w_index.items()]
        assert derivations == w_derivations
        assert list(fresh.items()) == [(restricted(key), deriv) for key, deriv in w_fresh.items()]
        assert crossed == w_crossed


def _assert_rounds_match(alg, cap):
    """Every round of the block BFS equals the oracle's, restricted to the representatives, field by field."""
    reps = symmetry._clone_orbits(alg)

    def restricted(key):
        return np.frombuffer(key, dtype=np.uint8)[reps].tobytes()

    _assert_rounds_equal(_clone_rounds(alg, cap), naive_clone_rounds(alg, _cube(alg.n), cap), restricted)


def _searches(alg, cap):
    return [find_maltsev_term(alg, cap=cap), find_hm_terms(alg, cap=cap)]


def _assert_searches_match(alg, cap):
    """Both searches equal their run on the oracle's rounds, and every witness table is an oracle table."""
    got = _searches(alg, cap)
    runs, tables = [], set()

    def oracle_rounds(a, gens, c):
        runs.append(c)
        for index, derivations, fresh, crossed in naive_clone_rounds(a, gens, c):
            tables.update(fresh)
            yield index, derivations, fresh, crossed

    with pytest.MonkeyPatch.context() as mp:
        # the oracle's rounds hold full tables: every cell its own orbit
        mp.setattr(permutability, "_rounds", oracle_rounds)
        mp.setattr(permutability, "_clone_orbits", lambda a: np.arange(a.n**3))
        want = _searches(alg, cap)
    assert runs == [cap, cap], "each search must read the oracle's rounds"
    assert got == want
    assert all(bytes(tw.table) in tables for out in got for tw in _witnesses(out))


def _witnesses(out):
    """The TermWitness objects of a search outcome: none, one, or the (p, q) pair."""
    if not out:
        return ()
    return out.witness if isinstance(out.witness, tuple) else (out.witness,)


@st.composite
def algebras_with_caps(draw):
    """A small algebra and a table cap.

    A round evaluates at most cap**arity argument tuples per operation,
    and the oracle pays a fancy-index call for each, so caps for algebras
    with a ternary operation stay at most 40 (64 000 tuples).
    """
    alg = draw(small_algebras())
    ternary = any(arity == 3 for _, arity in alg.sig)
    return alg, draw(st.integers(3, 40 if ternary else 300))


@settings(max_examples=30, deadline=None)
@given(algebras_with_caps())
def test_clone_rounds_and_searches_match_the_per_tuple_oracle(case):
    alg, cap = case
    _assert_rounds_match(alg, cap)
    _assert_searches_match(alg, cap)


MAJ3 = FiniteAlgebra.from_functions(
    Signature({"maj": 3}), 3, {"maj": lambda x, y, z: y if y == z else x}, name="maj3"
)


def _multi_round_cases():
    return ((cyclic_group(3), 300), (implication_from_boolean(1), 300),
            (two_elt_lattice(), 300), (sym3(), 60), (MAJ3, 40))


def test_one_row_blocks_match_the_per_tuple_oracle(monkeypatch):
    _cap_cells(monkeypatch, 1)
    for alg, cap in _multi_round_cases():
        _assert_rounds_match(alg, cap)
        _assert_searches_match(alg, cap)


def _identity_cells(n):
    """The cells (x,y,y) and (x,x,y) of A^3, ascending: 2n**2 - n of them."""
    cells = np.arange(n**3)
    x, y, z = cells // (n * n), (cells // n) % n, cells % n
    return cells[(y == z) | (x == y)]


def _element_rows(elements):
    """Elements of A as generator rows of length one."""
    return np.array(elements, dtype=np.uint8).reshape(-1, 1)


def _assert_engine_matches_the_oracle(alg, gens, cap):
    """Every round of ``subpower._rounds`` on gens equals the oracle's on the same rows, field by field."""
    _assert_rounds_equal(subpower._rounds(alg, gens, cap), naive_clone_rounds(alg, gens, cap))


@st.composite
def algebras_with_elements_and_caps(draw):
    """A small algebra, a table cap as in algebras_with_caps, and up to three of its elements."""
    alg, cap = draw(algebras_with_caps())
    return alg, draw(st.lists(st.integers(0, alg.n - 1), max_size=3)), cap


@_CELL_CAPS
@settings(max_examples=30, deadline=None)
@given(case=algebras_with_elements_and_caps())
def test_the_engine_matches_the_oracle_on_the_identity_cells_and_on_elements(cells, case):
    """The rows the callers pass: the projections on the 2n**2 - n identity cells, and elements as rows of length one."""
    alg, elements, cap = case
    with pytest.MonkeyPatch.context() as mp:
        _cap_cells(mp, cells)
        gens = permutability._projections(alg.n, _identity_cells(alg.n))
        assert gens.shape == (3, 2 * alg.n**2 - alg.n)
        _assert_engine_matches_the_oracle(alg, gens, cap)
        _assert_engine_matches_the_oracle(alg, _element_rows(elements), cap)


@_CELL_CAPS
@pytest.mark.parametrize("entry", default_entries(), ids=lambda entry: entry.name)
def test_the_engine_matches_the_oracle_on_the_default_corpus(cells, entry, monkeypatch):
    """The identity cells at a cap of 60 tables, and the greedy entries as rows of length one."""
    _cap_cells(monkeypatch, cells)
    alg = entry.algebra
    _assert_engine_matches_the_oracle(alg, permutability._projections(alg.n, _identity_cells(alg.n)), 60)
    _assert_engine_matches_the_oracle(alg, _element_rows(_greedy_entries(alg)), alg.n)


@st.composite
def symmetric_algebras(draw):
    """Random algebras (n <= 6, arities 0-3) whose every table commutes with a drawn permutation s.

    s is the identity now and then.  Each orbit of s on the argument
    tuples takes a value v at its least tuple a, drawn among the elements
    whose s-cycle length divides the orbit's length, and s^i(v) at s^i(a).
    So constants are fixed points of s; with none, a nullary symbol is
    left out.
    """
    n = draw(st.integers(1, 6))
    s = draw(st.one_of(st.just(list(range(n))), st.permutations(range(n))))
    cycle = []
    for x in range(n):
        length, y = 1, s[x]
        while y != x:
            length, y = length + 1, s[y]
        cycle.append(length)
    rnd = draw(st.randoms(use_true_random=False))
    ops, tables = {}, {}
    for i, arity in enumerate(draw(st.lists(st.integers(0, 3), max_size=3))):
        table = {}
        for args in iproduct(range(n), repeat=arity):
            if args in table:
                continue
            orbit = [args]
            while tuple(s[a] for a in orbit[-1]) != args:
                orbit.append(tuple(s[a] for a in orbit[-1]))
            choices = [v for v in range(n) if len(orbit) % cycle[v] == 0]
            if not choices:
                break
            v = rnd.choice(choices)
            for a in orbit:
                table[a], v = v, s[v]
        if len(table) == n**arity:
            ops[f"f{i}"] = arity
            tables[f"f{i}"] = [table[a] for a in iproduct(range(n), repeat=arity)]
    return FiniteAlgebra(Signature(ops), n, tables)


@st.composite
def symmetric_algebras_with_caps(draw):
    """A symmetric algebra and a table cap, bounded as in algebras_with_caps."""
    alg = draw(symmetric_algebras())
    ternary = any(arity == 3 for _, arity in alg.sig)
    return alg, draw(st.integers(3, 40 if ternary else 300))


@_CELL_CAPS
@settings(max_examples=30, deadline=None)
@given(case=symmetric_algebras_with_caps())
def test_orbit_reduced_rounds_and_searches_match_the_oracle_on_planted_symmetry(cells, case):
    alg, cap = case
    with pytest.MonkeyPatch.context() as mp:
        _cap_cells(mp, cells)
        _assert_rounds_match(alg, cap)
        _assert_searches_match(alg, cap)


def _aut_orbit_cases():
    """(algebra, cap, number of orbits of Aut(A) on A^3).

    S_4 on the bare 4-set: one orbit per partition of the three positions.
    The one-element algebra: one cell.  NULLARY_ONLY is rigid: its two
    constants are fixed, so is the third element.  sym3 under its inner
    automorphisms, by Burnside's lemma: (216 + 3*2**3 + 2*3**3) / 6.
    klein4^2 under GL(4, 2), |Aut| = 20 160: one orbit per linear
    dependency type of (x, y, z), a subspace of F_2^3.
    """
    bare = FiniteAlgebra(Signature({}), 4, {}, name="bare4")
    return ((bare, 300, 5), (ONE_ELEMENT, 300, 1), (NULLARY_ONLY, 300, 27),
            (sym3(), 60, 49), (product([K4, K4]), 300, 16))


@_CELL_CAPS
def test_orbit_reduced_rounds_match_the_oracle_on_large_automorphism_groups(cells, monkeypatch):
    _cap_cells(monkeypatch, cells)
    for alg, cap, orbits in _aut_orbit_cases():
        reps = symmetry._clone_orbits(alg)
        assert len(reps) == orbits
        _assert_rounds_match(alg, cap)
        _assert_searches_match(alg, cap)


def _boundary_cases():
    """(algebra, cap, rigid) with one operation of n**arity entries on either side of 256.

    16**2 = 256 and 6**3 = 216 entries take the byte table, 17**2 = 289
    and 7**3 = 343 the uint16 gather.  A seeded random table is rigid, so
    every cell is an orbit representative and the last index,
    n**arity - 1, is read; x - y and x - y + z have Maltsev terms, so the searches find
    witnesses.  The caps end each BFS after at most two rounds, as the
    oracle pays a fancy-index call per argument tuple.
    """
    cases = []
    for n, arity, cap in ((16, 2, 40), (17, 2, 40), (6, 3, 20), (7, 3, 20)):
        rnd = random.Random(n)
        table = tuple(rnd.randrange(n) for _ in range(n**arity))
        cases.append((FiniteAlgebra(Signature({"f": arity}), n, {"f": table}), cap, True))
        affine = (lambda x, y: (x - y) % n) if arity == 2 else (lambda x, y, z: (x - y + z) % n)
        affine_alg = FiniteAlgebra.from_functions(Signature({"d": arity}), n, {"d": affine})
        cases.append((affine_alg, cap, False))
    return cases


@_CELL_CAPS
def test_rounds_and_searches_match_the_oracle_on_either_side_of_the_byte_table(cells, monkeypatch):
    _cap_cells(monkeypatch, cells)
    for alg, cap, rigid in _boundary_cases():
        if rigid:
            assert len(symmetry._clone_orbits(alg)) == alg.n**3
        _assert_rounds_match(alg, cap)
        _assert_searches_match(alg, cap)


def test_maltsev_masks_pair_up_the_same_argument_pairs():
    merging = [(heyting_chain(5),), (product([cyclic_group(3), sym3()]),)]
    for alg, *_ in list(_aut_orbit_cases()) + merging:
        n = alg.n
        reps = symmetry._clone_orbits(alg)
        i_xyy, i_xxy, want_x, want_y = permutability._maltsev_masks(*permutability._projections(n, reps))
        xyy = [(int(c) // (n * n), int(c) % n) for c in reps[i_xyy]]
        xxy = [(int(c) // (n * n), int(c) % n) for c in reps[i_xxy]]
        assert xyy == xxy == sorted(xyy)
        assert [x for x, _ in xyy] == want_x.tolist()
        assert [y for _, y in xxy] == want_y.tolist()


def _graph_groupoid(n, edges):
    """f(x, y) = x if xy is an edge, else y: a groupoid with the graph's automorphisms."""
    adjacent = set(edges) | {(b, a) for a, b in edges}
    return FiniteAlgebra.from_functions(
        Signature({"f": 2}), n, {"f": lambda x, y: x if (x, y) in adjacent else y}, name=f"graph{n}"
    )


def _graph_patterns(n, edges):
    """The equality patterns of the cells of a graph groupoid, with the edges among their entries.

    The groupoid is conservative: every subset is a subuniverse, and a
    bijection between two is an isomorphism exactly when it preserves
    adjacency.  So a cell's class under the pointed isomorphisms of its
    generated subalgebras is its equality pattern together with the
    adjacency among its distinct entries.
    """
    adjacent = set(edges) | {(b, a) for a, b in edges}
    patterns = set()
    for cell in iproduct(range(n), repeat=3):
        labels = tuple(cell.index(x) for x in cell)
        distinct = [x for i, x in enumerate(cell) if labels[i] == i]
        patterns.add((labels, frozenset((i, j) for i, a in enumerate(distinct)
                                        for j, b in enumerate(distinct) if (a, b) in adjacent)))
    return patterns


def test_an_automorphism_search_cut_at_its_bound_still_matches_the_oracle():
    """A cubic graph on 8 vertices with |Aut| = 4.

    The groupoid is conservative, so a cell generates only its own
    entries, at most 3 of the 8 elements, and no cell generates A.  So
    no automorphism is used, and the isomorphisms between the
    subalgebras the cells generate compress the tables alone: each
    class of ``_graph_patterns`` is one representative.  The graph
    realises all 8 adjacency patterns on three labelled vertices (it
    holds the triangle 0-2-6), so that is 1 + 3 * 2 + 8.
    """
    edges = [(0, 2), (0, 4), (0, 6), (1, 2), (1, 3), (1, 7),
             (2, 6), (3, 5), (3, 7), (4, 5), (4, 7), (5, 6)]
    alg = _graph_groupoid(8, edges)
    table = alg.table_array("f")
    auts = [p for p in permutations(range(8)) if (np.array(p)[table] == table[np.ix_(p, p)]).all()]
    assert len(auts) == 4
    assert symmetry._derivation(alg) is None
    assert len(symmetry._clone_orbits(alg)) == len(_graph_patterns(8, edges))
    _assert_rounds_match(alg, 40)
    _assert_searches_match(alg, 40)


# the path 0-1-2-3-4-5, whose one nontrivial automorphism reverses it
PATH6 = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]


# the greedy entries 0, 1, 2 generate only themselves, so no automorphism is used;
# (1, 2, 3) generates A, and its class holds (2, 1, 3), the image under swapping 1 and 2
UNARY_0120 = FiniteAlgebra(Signature({"f": 1}), 4, {"f": (0, 1, 2, 0)}, name="unary_0120")


def _pointed_iso_cases():
    bare = FiniteAlgebra(Signature({}), 4, {}, name="bare4")
    return (heyting_chain(4), implication_from_boolean(2), two_elt_lattice(), sym3(), klein4(),
            cyclic_group(4), NULLARY_ONLY, bare, MAJ3, _graph_groupoid(6, PATH6), UNARY_0120)


@pytest.mark.parametrize("alg", _pointed_iso_cases(), ids=lambda alg: alg.name or "nullary_only")
def test_representatives_are_the_least_cells_of_the_pointed_isomorphism_classes(alg):
    """Each input has n <= 6.

    A cell generating A is related to others only by automorphisms.
    When the greedy cell generates A, all of Aut(A) is read off it, and
    the cells left out of the subalgebra pass are unions of its orbits;
    when it falls short, the pass codes every cell to its closure.
    Either way no class is left split.
    """
    want = [cells[0] for cells in pointed_iso_classes(alg)]
    assert symmetry._clone_orbits(alg).tolist() == want


@_CELL_CAPS
@settings(max_examples=40, deadline=None)
@given(f=st.integers(1, 6).flatmap(lambda n: st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
@example(f=[0, 1, 2, 0])
def test_representatives_match_the_oracle_on_mono_unary_algebras(cells, f):
    """f is the table of the one unary operation, n <= 6.

    804 of the 3 125 tables with n = 5, and f = 0 1 2 0, have a cell
    that generates A while the greedy cell falls short: no automorphism
    is used then, and the cells that generate A merge by their full
    codes alone.
    """
    alg = FiniteAlgebra(Signature({"f": 1}), len(f), {"f": tuple(f)})
    with pytest.MonkeyPatch.context() as mp:
        _cap_cells(mp, cells)
        reps = symmetry._clone_orbits(alg)
    assert reps.tolist() == [members[0] for members in pointed_iso_classes(alg)]


def test_a_product_whose_greedy_cell_falls_short_keeps_its_classes_and_witnesses():
    """klein4 x Z2 x Z3 (n = 24) is generated by the cell (3, 6, 13), but not by its greedy entries 1, 3, 6.

    So no automorphism is used, and the cells that generate A merge by
    their full codes into the classes Aut(A) would give: 224.  Both
    searches end after 56 tables.
    """
    alg = product([klein4(), cyclic_group(2), cyclic_group(3)])
    assert len(naive_subuniverse(alg, (3, 6, 13))) == alg.n
    assert not _greedy_cell_generates(alg) and symmetry._derivation(alg) is None
    assert len(symmetry._clone_orbits(alg)) == 224
    maltsev, hm = find_maltsev_term(alg), find_hm_terms(alg)
    assert (maltsev.status, maltsev.explored, render(maltsev.witness.term)) == (FOUND, 56, "m(i(y),m(x,z))")
    assert hm_chain_check(alg, (maltsev.witness.term,))
    assert (hm.status, hm.explored) == (FOUND, 56)
    assert hm_chain_check(alg, (hm.witness[0].term, hm.witness[1].term))
    _assert_rounds_match(alg, 40)


def _orbit_least_cells(n, perms):
    """For each cell of A^3, the least cell of its orbit under perms, a group."""
    least = list(range(n**3))
    for x, y, z in iproduct(range(n), repeat=3):
        for p in perms:
            image = (p[x] * n + p[y]) * n + p[z]
            least[image] = min(least[image], (x * n + y) * n + z)
    return least


def _greedy_entries(alg):
    """At most three entries, each the least element outside the subuniverse the ones before generate."""
    seed = []
    while len(seed) < 3 and len(naive_subuniverse(alg, seed)) < alg.n:
        seed.append(min(set(range(alg.n)) - naive_subuniverse(alg, seed)))
    return seed


def _greedy_cell_generates(alg):
    """Whether the greedy entries generate A."""
    return len(naive_subuniverse(alg, _greedy_entries(alg))) == alg.n


def _assert_aut_orbits_match_the_oracle(alg):
    """Where the greedy cell generates A, the orbits of the generators read off it are those of Aut(A).

    Otherwise the orbit step uses no automorphism.
    """
    n = alg.n
    steps = symmetry._derivation(alg)
    assert (steps is not None) == _greedy_cell_generates(alg)
    if steps:
        # every element once, the greedy entries as the free generators, in order
        assert sorted(e for e, _, _ in steps) == list(range(n))
        assert [e for e, sym, _ in steps if sym is None] == _greedy_entries(alg)
    if steps is None:
        def unread(*args):
            raise AssertionError("an automorphism was read off a greedy cell that falls short")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(symmetry, "_automorphism_generators", unread)
            # a fresh copy, so the representatives are not read from the memo
            symmetry._clone_orbits(FiniteAlgebra(alg.sig, n, alg.tables))
        return
    cells = np.arange(n**3)
    x, y, z = cells // (n * n), (cells // n) % n, cells % n
    gens = symmetry._automorphism_generators(alg, steps)
    least = _orbit_least(cells, gens, lambda g: (g[x] * n + g[y]) * n + g[z])
    assert least.tolist() == _orbit_least_cells(n, automorphisms(alg))


@settings(max_examples=60, deadline=None)
@given(alg=symmetric_algebras())
def test_automorphisms_read_off_a_generating_cell_match_the_oracle_on_planted_symmetry(alg):
    _assert_aut_orbits_match_the_oracle(alg)


@pytest.mark.parametrize("alg", _pointed_iso_cases(), ids=lambda alg: alg.name or "nullary_only")
def test_automorphisms_read_off_a_generating_cell_match_the_oracle(alg):
    _assert_aut_orbits_match_the_oracle(alg)


def test_the_derivation_is_empty_when_the_constants_generate_the_algebra():
    """Every automorphism fixes the constants, so there is nothing to replay and no generator."""
    for alg in (ONE_ELEMENT, heyting_chain(2)):
        assert symmetry._derivation(alg) == []
        assert symmetry._automorphism_generators(alg, []) == []
        assert len(symmetry._clone_orbits(alg)) == len(pointed_iso_classes(alg))


def test_an_operation_named_var_is_replayed_as_an_operation():
    """var(x, x) = x + 1 on Z3, else min: the entry 0 generates A through var, and Aut(A) is trivial."""
    alg = FiniteAlgebra.from_functions(
        Signature({"var": 2}), 3, {"var": lambda x, y: (x + 1) % 3 if x == y else min(x, y)}
    )
    assert symmetry._derivation(alg) == [(0, None, 0), (1, "var", (0, 0)), (2, "var", (1, 1))]
    _assert_aut_orbits_match_the_oracle(alg)


def test_four_disjoint_four_cycles_merge_by_their_subalgebras_alone():
    """f(x) = 4 * (x // 4) + (x + 1) % 4: |Aut| = 4**4 * 4! = 6 144, and no cell generates A.

    Three entries meet at most three of the four cycles, so no
    automorphism is used and the subalgebra pass drops no cell, not
    even those that meet three cycles, whose 12 elements exceed the
    first-round bound.  A class is the pattern of the entries' cycles
    with the offsets of the entries within a shared cycle: 4 * 4 when
    one cycle holds all three, 4 for each of the 3 ways two share one,
    and 1 when all three differ, 29 in all.
    """
    alg = FiniteAlgebra.from_functions(
        Signature({"f": 1}), 16, {"f": lambda x: 4 * (x // 4) + (x + 1) % 4}, name="cycles4x4"
    )
    assert symmetry._derivation(alg) is None
    assert len(symmetry._clone_orbits(alg)) == 4 * 4 + 3 * 4 + 1
    _assert_rounds_match(alg, 40)
    _assert_searches_match(alg, 40)


@pytest.mark.parametrize(
    "k, reps", [(4, 3 + 6 * 4 + 6 * 3)] + [(k, 3 + 6 * 4 + 6 * 4) for k in (5, 6, 12, 40)]
)
def test_heyting_chains_reduce_to_51_cells(k, reps):
    """A cell of heyting_chain(k) generates a chain: {bottom, top} and its entries.

    The pointed isomorphism type is the weak order of (x, y, z) with each
    distinct value marked bottom, top or interior, in a way the order
    allows: 3 for the one weak order with a single value, 4 for each of
    the 6 with two values and 4 for each of the 6 with three, 51 in all.
    For k >= 5 every type is realised; heyting_chain(4) has only 2
    interior values, so the 6 types with three interior values are
    missing, 45 in all.
    """
    assert len(symmetry._clone_orbits(heyting_chain(k))) == reps


@_CELL_CAPS
def test_rounds_and_searches_match_the_oracle_where_subalgebras_merge_cells(cells, monkeypatch):
    """heyting_chain(5) is rigid and merges 125 cells into 51; the path merges by its
    subsets; cyclic_group(3) x sym3 merges by automorphisms and by subgroups at once."""
    _cap_cells(monkeypatch, cells)
    z3_sym3 = product([cyclic_group(3), sym3()])
    for alg, cap in ((heyting_chain(5), 40), (_graph_groupoid(6, PATH6), 40), (z3_sym3, 40)):
        _assert_rounds_match(alg, cap)
        _assert_searches_match(alg, cap)


@pytest.mark.parametrize(
    "build, cap, maltsev",
    [(lambda: heyting_chain(5), 40, True), (lambda: product([cyclic_group(3), sym3()]), 40, True),
     (lambda: product([klein4(), cyclic_group(2), cyclic_group(3)]), 40, True),
     (lambda: UNARY_0120, 300, False)],
    ids=["heyting_chain(5)", "z3_sym3", "klein4_z2_z3", "unary_0120"],
)
def test_full_tables_match_the_oracle_where_cells_merge(build, cap, maltsev):
    """Full tables are read off terms, not off the representatives.

    The representatives leave some cell out, yet every id's term,
    evaluated on all of A^3, gives the oracle's full table, and each
    search's witness tables are their terms, cell by cell.  The first
    three algebras have Maltsev terms, so both searches find witnesses;
    a unary algebra has none.
    """
    alg = build()
    n = alg.n
    outside = np.setdiff1d(np.arange(n**3), symmetry._clone_orbits(alg))
    assert len(outside), "the representatives must leave some cell out"
    for w_index, *_ in naive_clone_rounds(alg, _cube(n), cap):
        pass
    _, derivations, _ = _drained(alg, cap)
    assert _full_tables(alg, derivations) == [tuple(key) for key in w_index]
    for search in (find_maltsev_term, find_hm_terms):
        out = search(alg)
        assert out.status == (FOUND if maltsev else NONE)
        for tw in _witnesses(out):
            for c, (x, y, z) in enumerate(iproduct(range(n), repeat=3)):
                assert tw.table[c] == eval_term(alg, tw.term, {"x": x, "y": y, "z": z})


def test_clone_searches_refuse_carriers_beyond_a_byte():
    alg = FiniteAlgebra(Signature({"f": 1}), 256, {"f": (0,) * 256}, name="constant256")
    for search in (find_maltsev_term, find_hm_terms):
        with pytest.raises(CarrierBoundError, match="exceeds enumeration bound 255$"):
            search(alg)


def _mirrored(table, arity):
    """For a commutative binary operation 1 if it is also idempotent, else 0; None if not commutative binary."""
    if arity != 2 or not np.array_equal(table, table.T):
        return None
    return int(np.array_equal(np.diagonal(table), np.arange(len(table))))


def _tuples_per_round(table, arity, start, total):
    """The argument tuples a round evaluates for one operation.

    total is the table count before the round and start the count before
    the round before.  A k-ary operation takes the tuples over the known
    tables with at least one table of the last round: total**k - start**k.
    A commutative binary one takes only the pairs i <= j, since (j, i)
    gives the table of (i, j): C(total+1, 2) - C(start+1, 2); and only
    i < j if it is also idempotent, since f(t, t) = t:
    C(total, 2) - C(start, 2).
    """
    skip = _mirrored(table, arity)
    if skip is None:
        return total**arity - start**arity
    return comb(total + 1 - skip, 2) - comb(start + 1 - skip, 2)


def test_a_round_evaluates_each_new_argument_tuple_once(monkeypatch):
    """Each round evaluates exactly the tuples of _tuples_per_round.

    Outputs alone cannot show a round that re-evaluates old tuples, since
    their tables are all known already.  Every block goes through
    ``_evaluate``, and all three of its index paths are taken and
    matched against the oracle: the byte table, the uint16 gather (the
    binary operations of Z17, 289 entries, and of cyclic_group(3) x
    sym3, 324) and the intp gather (x - y + z on Z41, whose 41**3 =
    68 921 entries are past a uint16 index, at a small cap).
    """
    tally, paths = [0], set()
    evaluate = subpower._evaluate

    def counting(kernel, offset, args):
        tally[0] += len(args)
        paths.add((type(kernel), offset.dtype.type))
        return evaluate(kernel, offset, args)

    monkeypatch.setattr(subpower, "_evaluate", counting)
    kinds = set()
    cases = [(alg, cap, False) for alg, cap in _multi_round_cases()]
    z3_sym3 = product([cyclic_group(3), sym3()])
    affine41 = FiniteAlgebra.from_functions(
        Signature({"d": 3}), 41, {"d": lambda x, y, z: (x - y + z) % 41}
    )
    cases += [(cyclic_group(17), 40, True), (z3_sym3, 40, True), (affine41, 5, True)]
    for alg, cap, gather in cases:
        ops = [(alg.table_array(sym), arity) for sym, arity in alg.sig if arity > 0]
        # a round is yielded before it is numbered, so it ran over the tables yielded
        # with it, and its new tuples are those with an id past the round before's
        start = None
        for _, derivations, *_ in _clone_rounds(alg, cap):
            if start is not None:
                assert tally[0] == sum(
                    _tuples_per_round(table, arity, start, len(derivations)) for table, arity in ops
                )
            tally[0] = 0
            start = len(derivations)
        kinds.update(_mirrored(table, arity) for table, arity in ops)
        if gather:
            _assert_rounds_match(alg, cap)
            _assert_searches_match(alg, cap)
    assert kinds == {None, 0, 1}  # all three formulas are exercised
    # and the three index paths
    assert paths == {(bytes, np.uint8), (np.ndarray, np.uint16), (np.ndarray, np.intp)}
