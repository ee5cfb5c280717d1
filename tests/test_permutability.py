from itertools import product as iproduct
from itertools import zip_longest

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import naive_clone_rounds
from test_relations import small_algebras

import goursat.permutability as permutability
from goursat.algebras import FiniteAlgebra, product
from goursat.corpus import (
    GROUP_SIG,
    LATTICE_SIG,
    cyclic_group,
    implication_from_boolean,
    klein4,
    sym3,
    two_elt_lattice,
)
from goursat.errors import NotCongruenceError, NotPermutableError
from goursat.permutability import (
    FOUND,
    INCONCLUSIVE,
    NEITHER,
    NONE,
    THREE,
    TWO,
    find_hm_terms,
    find_maltsev_term,
    generate_clone3,
    goursat_join_check,
    hm_identities_hold,
    maltsev_identities_hold,
    permutability_level,
)
from goursat.relations import Partition, compose, con_lattice
from goursat.terms import Signature, eval_term

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
    rb, sb = KERP1.as_binrel(), KERP2.as_binrel()
    assert compose(rb, sb) == compose(sb, rb) == Partition.full(4).as_binrel()


def test_pair_with_itself_two_permutes():
    for alg, p in ((K4, KERP1), (L3, T1)):
        assert permutability_level(alg, p, p) == TWO


def test_chain_lattice_pair_is_three_permutable_only():
    assert permutability_level(L3, T1, T2) == THREE
    t1t2 = compose(T1.as_binrel(), T2.as_binrel())
    t2t1 = compose(T2.as_binrel(), T1.as_binrel())
    assert t1t2.has(0, 2) and not t2t1.has(0, 2)
    full = Partition.full(3).as_binrel()
    assert compose(t1t2, T1.as_binrel()) == full
    assert compose(t2t1, T2.as_binrel()) == full


def test_four_chain_has_a_non_three_permutable_pair():
    l4 = chain_lattice(4)
    a = Partition.from_literal("0 1|2 3", 4)
    b = Partition.from_literal("0|1 2|3", 4)
    assert permutability_level(l4, a, b) == NEITHER
    with pytest.raises(NotPermutableError):
        goursat_join_check(l4, a, b)


def test_permutability_level_rejects_non_congruences():
    with pytest.raises(NotCongruenceError):
        permutability_level(cyclic_group(4), Partition.from_literal("0 1|2 3", 4), KERP1)


def test_goursat_join_check():
    assert goursat_join_check(K4, KERP1, KERP2).ok
    assert goursat_join_check(K4, KERP1, KERP1).ok
    assert goursat_join_check(L3, T1, T2).ok


# -- clone generation -----------------------------------------------------------


def test_clone_of_one_element_algebra_is_a_single_function():
    one = product([], sig=GROUP_SIG)
    clone = generate_clone3(one)
    assert len(clone) == 1
    assert clone.complete


def test_clone_of_empty_signature_is_the_three_projections():
    bare = FiniteAlgebra(Signature({}), 3, {}, name="bare3")
    clone = generate_clone3(bare)
    assert len(clone) == 3
    assert clone.complete
    n = 3
    tables = {clone.table(i) for i in range(3)}
    proj0 = tuple(x for x in range(n) for _ in range(n * n))
    assert proj0 in tables


def test_clone_of_z2_contains_the_group_maltsev_table():
    clone = generate_clone3(cyclic_group(2))
    expect = tuple((x - y + z) % 2 for x, y, z in iproduct(range(2), repeat=3))
    assert clone.contains(expect)
    assert clone.complete
    # sums of subsets of {x, y, z}; the constant one is not a term operation
    assert len(clone) == 8


def test_clone_cap_yields_incomplete_result():
    clone = generate_clone3(cyclic_group(2), cap=5)
    assert not clone.complete
    assert len(clone) == 5
    with pytest.raises(ValueError):
        generate_clone3(cyclic_group(2), cap=2)


def test_clone_generation_is_deterministic():
    a = generate_clone3(implication_from_boolean(1))
    b = generate_clone3(implication_from_boolean(1))
    assert [a.table(i) for i in range(len(a))] == [b.table(i) for i in range(len(b))]


# -- term searches -----------------------------------------------------------------


def test_z2_maltsev_witness_is_the_group_word_table():
    out = find_maltsev_term(cyclic_group(2))
    assert out.status == FOUND
    # x * y^-1 * z, the standard group Mal'tsev operation
    expect = tuple((x - y + z) % 2 for x, y, z in iproduct(range(2), repeat=3))
    assert out.witness.table == expect
    assert maltsev_identities_hold(2, out.witness.table)


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
    out = find_hm_terms(cyclic_group(2))
    assert out.status == FOUND
    p, q = out.witness
    assert hm_identities_hold(2, p.table, q.table)


def test_hm_search_on_implication_algebra():
    out = find_hm_terms(implication_from_boolean(1))
    assert out.status == FOUND
    p, q = out.witness
    assert hm_identities_hold(2, p.table, q.table)
    n = 2
    for x, y, z in iproduct(range(n), repeat=3):
        alg = implication_from_boolean(1)
        assert eval_term(alg, p.term, {"x": x, "y": y, "z": z}) == p.table[(x * n + y) * n + z]
        assert eval_term(alg, q.term, {"x": x, "y": y, "z": z}) == q.table[(x * n + y) * n + z]


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


def test_maltsev_term_forces_all_pairs_two_permutable():
    for alg in (cyclic_group(4), klein4(), sym3()):
        assert find_maltsev_term(alg).status == FOUND
        cons = con_lattice(alg).congruences
        for i in range(len(cons)):
            for j in range(i, len(cons)):
                assert permutability_level(alg, cons[i], cons[j]) == TWO


# -- differential tests against the per-tuple clone BFS --------------------------


def _assert_rounds_match(alg, cap):
    """Every round of the block BFS equals the oracle's round, field by field."""
    rounds = zip_longest(permutability._clone_rounds(alg, cap), naive_clone_rounds(alg, cap))
    for got, want in rounds:
        assert got is not None and want is not None, "the two BFS ran different round counts"
        arrays, index, derivations, new_ids, done, complete = got
        w_arrays, w_index, w_derivations, w_new_ids, w_done, w_complete = want
        assert [a.tobytes() for a in arrays] == [a.tobytes() for a in w_arrays]
        assert index == w_index
        assert derivations == w_derivations
        assert (new_ids, done, complete) == (w_new_ids, w_done, w_complete)


def _searches(alg, cap):
    return [find_maltsev_term(alg, cap=cap), find_hm_terms(alg, cap=cap)]


def _assert_searches_match(alg, cap):
    got = _searches(alg, cap)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(permutability, "_clone_rounds", naive_clone_rounds)
        want = _searches(alg, cap)
    assert got == want


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


def _multi_round_cases():
    majority = FiniteAlgebra.from_functions(
        Signature({"maj": 3}), 3, {"maj": lambda x, y, z: y if y == z else x}, name="maj3"
    )
    return ((cyclic_group(3), 300), (implication_from_boolean(1), 300),
            (two_elt_lattice(), 300), (sym3(), 60), (majority, 40))


def test_one_row_blocks_match_the_per_tuple_oracle(monkeypatch):
    monkeypatch.setattr(permutability, "_BLOCK_CELLS", 1)
    for alg, cap in _multi_round_cases():
        _assert_rounds_match(alg, cap)
        _assert_searches_match(alg, cap)


class _CountingTable(np.ndarray):
    """An operation table that counts the rows of every 2-D gather through it."""

    def __array_finalize__(self, obj):
        self.tally = getattr(obj, "tally", None)

    def __getitem__(self, idx):
        if isinstance(idx, np.ndarray) and idx.ndim == 2:
            self.tally[0] += len(idx)
        return super().__getitem__(idx)


def test_a_round_evaluates_each_new_argument_tuple_once(monkeypatch):
    """Round d evaluates total**k - start**k tuples per k-ary operation.

    total is the table count before the round and start the count before
    the round before: the tuples over the known tables that use at least
    one table of the last round.  Outputs alone cannot show a round that
    re-evaluates old tuples, since their tables are all known already.
    """
    for alg, cap in _multi_round_cases():
        tally = [0]

        def counting(sym, table_array=alg.table_array):
            table = table_array(sym).view(_CountingTable)
            table.tally = tally
            return table

        monkeypatch.setattr(alg, "table_array", counting)
        arities = [arity for _, arity in alg.sig if arity > 0]
        sizes = [0]
        for arrays, *_ in permutability._clone_rounds(alg, cap):
            if len(sizes) > 1:
                start, total = sizes[-2], sizes[-1]
                assert tally[0] == sum(total**k - start**k for k in arities)
            tally[0] = 0
            sizes.append(len(arrays))
