import random
import re
from functools import reduce
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from goursat.algebras import FiniteAlgebra, QuotientMap, generate_subuniverse, quotient, subalgebra
from goursat.algebras import product as algebra_product
from goursat.corpus import (
    boolean_ring,
    cyclic_group,
    default_entries,
    heyting_chain,
    klein4,
    two_elt_lattice,
)
from goursat.errors import CarrierBoundError, NotCongruenceError, SizeMismatchError
from goursat.permutability import TWO, goursat_join_check, permutability_level
from goursat.relations import (
    Partition,
    _pair_orbit_reps,
    _principal_congruences,
    _translations,
    composite,
    con_lattice,
    congruence_generated,
    direct_image,
    inverse_image,
    inverse_image_by_map,
    is_congruence,
    require_congruence,
)
from goursat.terms import Signature, eval_term, parse_term

from oracles import (
    all_partitions,
    block_of,
    brute_force_congruences,
    compatible,
    congruence_witness,
    compose_pairs,
    covering_pairs,
    image_pairs,
    join_pairs,
    label_pairs,
    lattice_tables,
    matrix_pairs,
    meet_blocks,
    pair_orbit_reps,
    pullback_pairs,
    raw_image_pairs,
)

Z4 = cyclic_group(4)
K4 = klein4()


def eq(n, *blocks):
    return Partition(n, [list(b) for b in blocks])


# -- composition -------------------------------------------------------------


def test_compose_identity_and_full():
    r = eq(3, (0, 1), (2,))
    assert matrix_pairs(composite(r)) == label_pairs(r.index_of)
    assert np.array_equal(composite(Partition.discrete(3), r), composite(r))
    assert np.array_equal(composite(r, Partition.discrete(3)), composite(r))
    assert np.array_equal(composite(Partition.discrete(3)), np.eye(3, dtype=bool))
    full = composite(Partition.full(3), Partition.full(3))
    assert full.dtype == bool and full.shape == (3, 3) and full.all()
    assert composite(Partition.full(0), Partition.full(0)).shape == (0, 0)


def test_compose_two_equivalences_explicitly():
    r = eq(3, (0, 1), (2,))
    s = eq(3, (0,), (1, 2))
    expect = {(x, z) for x in (0, 1) for z in (0, 1, 2)} | {(2, 1), (2, 2)}
    assert matrix_pairs(composite(r, s)) == expect
    assert matrix_pairs(composite(s, r)) == {(z, x) for x, z in expect}


@st.composite
def label_chains(draw):
    """One to four label vectors on one carrier of n <= 9."""
    n = draw(st.integers(0, 9))
    return n, draw(st.lists(label_vectors(n), min_size=1, max_size=4))


@settings(max_examples=300, deadline=None)
@given(label_chains())
@example((0, [[], []]))
@example((1, [[0], [0], [0]]))
@example((9, [[0, 1, 0, 1, 2, 2, 3, 3, 4], [0, 0, 1, 1, 2, 3, 3, 4, 4]] * 2))
def test_compose_matches_triple_loop_oracle(case):
    n, chain = case
    parts = [Partition.from_labels(n, labels) for labels in chain]
    got = composite(*parts)
    assert got.dtype == bool and got.shape == (n, n)
    assert matrix_pairs(got) == reduce(compose_pairs, map(label_pairs, chain))


def test_compose_matches_oracle_on_corpus_congruence_pairs():
    for entry in default_entries():
        cons = con_lattice(entry.algebra).congruences
        for r in cons:
            for s in cons:
                want = compose_pairs(label_pairs(r.index_of), label_pairs(s.index_of))
                assert matrix_pairs(composite(r, s)) == want, (entry.name, r, s)


def test_compose_associative_and_bounded():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(2, 6)
        a, b, c = (Partition.from_labels(n, [rng.randrange(n) for _ in range(n)])
                   for _ in range(3))
        abc = composite(a, b, c)
        assert np.array_equal(abc, composite(a, b) @ composite(c))
        assert np.array_equal(abc, composite(a) @ composite(b, c))
        full = Partition.full(n)
        assert composite(full, a, full).all()


def test_compose_size_mismatch():
    with pytest.raises(SizeMismatchError):
        composite(Partition.full(2), Partition.full(3))
    with pytest.raises(SizeMismatchError):
        composite(Partition.full(3), Partition.full(3), Partition.full(2))


# -- partitions ------------------------------------------------------------------


def test_partition_canonical_form_and_literals():
    p = Partition(4, [[3, 1], [2, 0]])
    assert p.to_literal() == "0 2|1 3"
    assert Partition.from_literal("1 3|2 0", 4) == p
    assert Partition.from_literal("0 2|1 3", 4).blocks == ((0, 2), (1, 3))


def test_partition_validation():
    repeated = "bad partition: element 1 repeated"
    uncovered = "partition does not cover the carrier"
    cases = [
        ((3, [[0, 1], [1, 2]]), "0 1|1 2", repeated),
        ((3, [[0, 1, 1], [2]]), "0 1 1|2", repeated),
        ((3, [[0, 1], [2, 3]]), "0 1|2 3", "bad partition: element 3 out of range 0..2"),
        ((2, [[-1, 0], [1]]), "-1 0|1", "bad partition: element -1 out of range 0..1"),
        ((3, [[0, 1]]), "0 1", uncovered),
        ((3, [[0], [2]]), "0|2", uncovered),
        ((1, []), None, uncovered),
    ]
    for (n, blocks), literal, message in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Partition(n, blocks)
        if literal is not None:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                Partition.from_literal(literal, n)
    with pytest.raises(ValueError, match="^empty block in partition literal$"):
        Partition.from_literal("0 1|", 2)
    # empty blocks in a block list are dropped, not refused
    assert Partition(2, [[1], [], [0]]) == Partition.discrete(2)


@pytest.mark.parametrize("bad", ["a", None, 1.5, "1_0"], ids=repr)
def test_partition_refuses_a_non_integer_element(bad):
    message = f"^bad partition: non-integer element {re.escape(repr(bad))}$"
    for blocks in ([[0, bad]], [[0], [bad]]):
        with pytest.raises(ValueError, match=message):
            Partition(2, blocks)
    if isinstance(bad, str):
        # a literal's token that is not ASCII -?[0-9]+ reaches the same rule
        for literal in (f"0 {bad}", f"0|{bad}"):
            with pytest.raises(ValueError, match=message):
                Partition.from_literal(literal, 2)
    # numpy integers are integers
    assert Partition(2, [[np.int64(1)], [np.uint8(0)]]) == Partition.discrete(2)


_Z4 = cyclic_group(4)


@pytest.mark.parametrize("call, message", [
    (lambda: FiniteAlgebra(Signature({"f": 1}), 2, {"f": 5}),
     "table for 'f': expected a collection, got 5"),
    (lambda: Partition(2, [0, 1]), "bad partition: expected a collection, got 0"),
    (lambda: generate_subuniverse(_Z4, [[0]]), "non-integer seed element [0]"),
    (lambda: subalgebra(cyclic_group(6), [0, 3, -3]), "universe element -3 out of range 0..5"),
    (lambda: subalgebra(_Z4, [5]), "universe element 5 out of range 0..3"),
    (lambda: congruence_generated(_Z4, [(-1, 1)]), "element -1 out of range 0..3"),
    (lambda: congruence_generated(cyclic_group(6), [(0, 6)]), "element 6 out of range 0..5"),
    (lambda: congruence_generated(_Z4, [(0, 1.0)]), "non-integer element 1.0"),
    (lambda: congruence_generated(_Z4, [(0,)]), "expected 2 elements, got (0,)"),
    (lambda: _Z4.apply("m", (-1, 0)), "argument -1 out of range 0..3"),
    (lambda: _Z4.apply("m", (0,)), "expected 2 arguments, got (0,)"),
    (lambda: eval_term(_Z4, parse_term("m(x,y)", _Z4.sig), {"x": -1, "y": 0}),
     "argument -1 out of range 0..3"),
])
def test_every_public_entry_reads_elements_by_one_rule(call, message):
    # a negative value used to alias an element from the end of the carrier
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("bad", [5, None], ids=repr)
def test_a_non_collection_outer_argument_is_refused_by_name(bad):
    with pytest.raises(ValueError, match=f"^bad partition: expected a collection, got {bad!r}$"):
        Partition(2, bad)
    with pytest.raises(ValueError, match=f"^expected a collection, got {bad!r}$"):
        congruence_generated(_Z4, bad)


def test_numpy_integers_are_elements_at_every_entry():
    i, j = np.int64(0), np.uint8(2)
    assert congruence_generated(_Z4, [(i, j)]) == Partition.from_literal("0 2|1 3", 4)
    assert _Z4.apply("m", (j, np.int32(3))) == 1
    assert subalgebra(_Z4, [i, j])[1] == (0, 2)
    assert generate_subuniverse(_Z4, [j]) == frozenset({0, 2})


def test_partition_join_is_the_equivalence_join():
    a = eq(5, (0, 1), (2,), (3, 4))
    b = eq(5, (0,), (1, 2), (3,), (4,))
    assert a.join(b) == eq(5, (0, 1, 2), (3, 4))
    assert a.join(Partition.discrete(5)) == a
    assert a.join(Partition.full(5)) == Partition.full(5)
    with pytest.raises(SizeMismatchError):
        a.join(Partition.discrete(4))


def test_partition_meet_refines_pairs():
    a = eq(4, (0, 1), (2, 3))
    b = eq(4, (0, 2), (1, 3))
    assert a.meet(b) == Partition.discrete(4)
    assert a.refines(Partition.full(4))
    assert not Partition.full(4).refines(a)


@st.composite
def label_vectors(draw, n):
    """A label vector of length n with labels drawn from a small range."""
    return draw(st.lists(st.integers(0, max(n - 1, 0)), min_size=n, max_size=n))


@st.composite
def label_cases(draw):
    """Two label vectors on one carrier of n <= 8 and a map onto a second carrier."""
    n = draw(st.integers(0, 8))
    a, b = draw(label_vectors(n)), draw(label_vectors(n))
    # an onto map: relabel a fibre vector's distinct values by a permutation
    fibres = draw(label_vectors(n))
    distinct = list(dict.fromkeys(fibres))
    perm = draw(st.permutations(range(len(distinct))))
    onto = [perm[distinct.index(v)] for v in fibres]
    m = draw(st.integers(1, 4))
    into = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    t = draw(label_vectors(m))
    return n, a, b, onto, into, t


def _oracle_blocks(labels):
    groups = {}
    for x, lab in enumerate(labels):
        groups.setdefault(lab, []).append(x)
    return tuple(sorted((tuple(g) for g in groups.values()), key=min))


def _assert_canonical(p):
    """index_of numbers blocks by first occurrence and num_blocks counts them."""
    seen = []
    for lab in p.index_of:
        if lab not in seen:
            seen.append(lab)
    assert p.index_of == tuple(seen.index(lab) for lab in p.index_of)
    assert seen == list(range(p.num_blocks))


NO_OPERATIONS = Signature({})


@settings(max_examples=300, deadline=None)
@given(label_cases())
@example((0, [], [], [], [], [0]))
@example((1, [0], [0], [0], [0], [0, 0]))
def test_label_operations_match_pair_set_oracles(case):
    n, a, b, onto, into, t = case
    p, q = Partition.from_labels(n, a), Partition.from_labels(n, b)
    pp, qp = label_pairs(a), label_pairs(b)

    blocks = _oracle_blocks(a)
    assert p.blocks == blocks
    assert p.num_blocks == len(blocks)
    assert p.index_of == tuple(next(i for i, blk in enumerate(blocks) if x in blk)
                               for x in range(n))
    assert p.to_literal() == "|".join(" ".join(map(str, blk)) for blk in blocks)
    assert label_pairs(p.index_of) == pp
    assert Partition(n, blocks) == p
    if n:
        assert Partition.from_literal(p.to_literal(), n) == p

    assert label_pairs(p.join(q).index_of) == join_pairs(n, pp, qp)
    assert label_pairs(p.meet(q).index_of) == pp & qp
    assert p.refines(q) == (pp <= qp)
    assert p.join(q) == q.join(p) and p.meet(q) == q.meet(p)

    # equal partitions have equal hashes, whatever labels they were built from
    shifted = Partition.from_labels(n, [7 - 2 * lab for lab in a])
    assert shifted == p and hash(shifted) == hash(p)
    for x, y in ((p, q), (p.join(q), q.join(p)), (p.meet(q), Partition(n, p.meet(q).blocks))):
        assert (x == y) == (label_pairs(x.index_of) == label_pairs(y.index_of))
        if x == y:
            assert hash(x) == hash(y)

    tp = label_pairs(t)
    pulled = inverse_image_by_map(n, into, Partition.from_labels(len(t), t))
    assert label_pairs(pulled.index_of) == pullback_pairs(into, tp)
    results = [p, p.join(q), p.meet(q), pulled]

    if n:
        source = FiniteAlgebra(NO_OPERATIONS, n, {})
        target = FiniteAlgebra(NO_OPERATIONS, max(onto) + 1, {})
        f = QuotientMap(source, Partition.from_labels(n, onto), target, onto)
        image = direct_image(f, p)
        assert label_pairs(image.index_of) == image_pairs(target.n, onto, pp)
        results.append(image)
    for r in results:
        _assert_canonical(r)


# -- congruence checks ---------------------------------------------------------


def test_is_congruence_z4():
    assert is_congruence(Z4, eq(4, (0, 2), (1, 3))).ok
    assert is_congruence(Z4, Partition.discrete(4)).ok


def test_is_congruence_witness_is_lex_least_full_tuple_pair():
    verdict = is_congruence(Z4, eq(4, (0, 1), (2, 3)))
    assert not verdict.ok
    assert verdict.witness == ("m", ((0, 0), (1, 1)))


def test_is_congruence_size_mismatch():
    with pytest.raises(SizeMismatchError):
        is_congruence(Z4, Partition.discrete(3))


def test_congruence_generated_examples():
    assert congruence_generated(Z4, [(0, 2)]) == eq(4, (0, 2), (1, 3))
    assert congruence_generated(Z4, []) == Partition.discrete(4)
    assert congruence_generated(Z4, [(0, 1)]) == Partition.full(4)


def test_congruence_generated_matches_brute_force_minimum():
    for alg in (Z4, K4, two_elt_lattice(), boolean_ring(2), heyting_chain(3)):
        congruences = brute_force_congruences(alg)
        for a in range(alg.n):
            for b in range(a + 1, alg.n):
                got = congruence_generated(alg, [(a, b)])
                assert is_congruence(alg, got).ok
                assert b in block_of(got, a)
                containing = [
                    blocks
                    for blocks in congruences
                    if any(a in blk and b in blk for blk in blocks)
                ]
                least = containing[0]
                for other in containing[1:]:
                    least = meet_blocks(alg.n, least, other)
                assert got.blocks == least


# -- the congruence lattice -----------------------------------------------------


def test_con_lattice_z4_is_a_chain():
    lat = con_lattice(Z4)
    assert [p.to_literal() for p in lat.congruences] == ["0 1 2 3", "0 2|1 3", "0|1|2|3"]
    assert lat.leq[2][1] and lat.leq[1][0]


def test_con_lattice_klein4_is_the_five_element_diamond():
    lat = con_lattice(K4)
    assert [p.to_literal() for p in lat.congruences] == [
        "0 1 2 3",
        "0 1|2 3",
        "0 2|1 3",
        "0 3|1 2",
        "0|1|2|3",
    ]


def test_con_lattice_one_element_algebra():
    one = quotient(Z4, Partition.full(4)).target
    lat = con_lattice(one)
    assert len(lat) == 1
    assert lat.congruences[0] == Partition.discrete(1) == Partition.full(1)


def test_con_lattice_matches_brute_force():
    for alg in (Z4, K4, two_elt_lattice(), boolean_ring(2), cyclic_group(5)):
        got = sorted(p.blocks for p in con_lattice(alg).congruences)
        want = sorted(brute_force_congruences(alg))
        assert got == want


def test_con_lattice_carrier_guard():
    big = Signature({})
    from goursat.algebras import FiniteAlgebra

    alg = FiniteAlgebra(big, 70, {})
    with pytest.raises(CarrierBoundError):
        con_lattice(alg)
    # override by raising the bound; empty signature means all partitions,
    # so use a small carrier to keep it cheap
    small = FiniteAlgebra(big, 4, {})
    assert len(con_lattice(small, max_size=4)) == 15


def test_con_lattice_carrier_guard_survives_the_memo():
    z8 = cyclic_group(8)
    assert len(con_lattice(z8)) == 4
    with pytest.raises(CarrierBoundError):
        con_lattice(z8, max_size=4)
    assert con_lattice(z8) is con_lattice(z8)


@pytest.mark.parametrize("alg, literal", [
    (_Z4, "0 1|2 3"), (_Z4, "0 3|1 2"), (klein4(), "0 1 2|3"), (two_elt_lattice(), "0 1 2"),
], ids=repr)
def test_con_lattice_index_refuses_a_non_member(alg, literal):
    p = Partition.from_literal(literal, len(literal.replace("|", " ").split()))
    lat = con_lattice(alg)
    assert p not in lat
    with pytest.raises(ValueError, match=f"^{re.escape(repr(p))} is not a congruence in this lattice$"):
        lat.index(p)


def test_con_lattice_of_equal_algebras_built_apart():
    first, second = boolean_ring(3), boolean_ring(3)
    assert first == second and first is not second
    assert con_lattice(first).congruences == con_lattice(second).congruences


def test_con_lattice_closed_under_meet_and_join():
    for alg in (Z4, K4, heyting_chain(3)):
        lat = con_lattice(alg)
        k = len(lat.congruences)
        for i in range(k):
            for j in range(k):
                assert lat.meet_table[i][j] in range(k)
                assert lat.join_table[i][j] in range(k)


def test_modular_law_on_corpus_lattices():
    for entry in default_entries():
        lat = con_lattice(entry.algebra)
        k = len(lat.congruences)
        for a in range(k):
            for b in range(k):
                for c in range(k):
                    if lat.leq[a][c]:
                        left = lat.join_table[a][lat.meet_table[b][c]]
                        right = lat.meet_table[lat.join_table[a][b]][c]
                        assert left == right


def test_join_refuses_non_congruence_with_the_is_congruence_witness():
    bad = eq(4, (0, 1), (2, 3))
    sym, pair = is_congruence(Z4, bad).witness
    con_lattice(Z4)  # a memoised lattice must not vouch for a non-member
    with pytest.raises(NotCongruenceError) as info:
        require_congruence(Z4, bad)
    assert (info.value.symbol, info.value.pair) == (sym, pair)
    for r, s in ((bad, Partition.discrete(4)), (Partition.full(4), bad)):
        with pytest.raises(NotCongruenceError) as info:
            goursat_join_check(Z4, r, s)
        assert (info.value.symbol, info.value.pair) == (sym, pair)


# -- differential tests against the brute-force oracles --------------------------


@st.composite
def small_algebras(draw):
    """Random algebras with n <= 5 and arities 0-3.

    Each operation either has a random table or respects a hidden
    partition drawn per algebra, so that Con(A) is often more than
    {0, 1} and the generator has non-trivial work to do.
    """
    n = draw(st.integers(1, 5))
    arities = draw(st.lists(st.integers(0, 3), max_size=3))
    hidden = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    rnd = draw(st.randoms(use_true_random=False))
    members = {}
    for x, lab in enumerate(hidden):
        members.setdefault(lab, []).append(x)
    tables = {}
    for i, arity in enumerate(arities):
        if draw(st.booleans()):
            on_blocks = {}
            table = []
            for args in product(range(n), repeat=arity):
                key = tuple(hidden[a] for a in args)
                if key not in on_blocks:
                    on_blocks[key] = rnd.choice(sorted(members))
                table.append(rnd.choice(members[on_blocks[key]]))
        else:
            table = [rnd.randrange(n) for _ in range(n**arity)]
        tables[f"f{i}"] = table
    sig = Signature({f"f{i}": arity for i, arity in enumerate(arities)})
    return FiniteAlgebra(sig, n, tables)


ONE_ELEMENT = FiniteAlgebra(Signature({"f": 2, "c": 0}), 1, {"f": (0,), "c": (0,)})
NULLARY_ONLY = FiniteAlgebra(Signature({"c": 0, "d": 0}), 3, {"c": (1,), "d": (2,)})


def _least_oracle_congruence(alg, congruences, pairs):
    containing = []
    for blocks in congruences:
        label = {x: i for i, blk in enumerate(blocks) for x in blk}
        if all(label[a] == label[b] for a, b in pairs):
            containing.append(blocks)
    return reduce(lambda x, y: meet_blocks(alg.n, x, y), containing)


def test_translation_matrix_of_degenerate_algebras_is_empty():
    assert _translations(ONE_ELEMENT).shape == (0, 1)
    assert _translations(NULLARY_ONLY).shape == (0, 3)
    # Z4: the three non-identity translations x+c and the inverse x -> -x
    assert _translations(Z4).shape == (4, 4)


@settings(max_examples=80, deadline=None)
@given(small_algebras())
@example(ONE_ELEMENT)
@example(NULLARY_ONLY)
def test_congruence_generated_matches_oracle(alg):
    congruences = brute_force_congruences(alg)
    for a in range(alg.n):
        for b in range(alg.n):
            got = congruence_generated(alg, [(a, b)])
            assert got.blocks == _least_oracle_congruence(alg, congruences, [(a, b)])


def _full_sweep_principals(alg):
    """The discrete relation, then the principal congruences as the sweep over every pair meets them."""
    bottom = Partition.discrete(alg.n)
    found = {bottom.index_of: bottom}
    for a in range(alg.n):
        for b in range(a + 1, alg.n):
            cg = congruence_generated(alg, [(a, b)])
            found.setdefault(cg.index_of, cg)
    return list(found.values())


def _assert_lattice_matches_oracles(lat):
    """Tables equal the pair-set oracle's, as Python bools and ints; covers equal the triple loop's."""
    assert (lat.leq, lat.meet_table, lat.join_table) == lattice_tables(
        [p.index_of for p in lat.congruences]
    )
    assert {type(x) for row in lat.leq for x in row} == {bool}
    assert {type(x) for row in lat.meet_table + lat.join_table for x in row} == {int}
    assert lat.covers() == covering_pairs(lat.leq)


@settings(max_examples=80, deadline=None)
@given(small_algebras())
@example(ONE_ELEMENT)
@example(NULLARY_ONLY)
def test_con_lattice_matches_oracle(alg):
    lat = con_lattice(alg)
    got = sorted(p.blocks for p in lat.congruences)
    assert got == sorted(brute_force_congruences(alg))
    _assert_lattice_matches_oracles(lat)


@st.composite
def planted_symmetry_algebras(draw):
    """Random algebras with n <= 6 whose basic translations include bijections.

    One or two planted operations: a unary permutation, or a Latin square
    r(p(x) + q(y) mod n), every translation of which is a bijection.  One
    more operation, not necessarily bijective, may follow.  Half the
    algebras are drawn with shifts x + c for the permutations and an
    affine map mod n for the extra operation; these keep every
    congruence mod d of Z_n, so Con(A) is often more than {0, 1}.  The
    other half draw random permutations and a random extra table.
    """
    n = draw(st.sampled_from([4, 6, 1, 2, 3, 5]))  # composite sizes first
    coefficient = st.integers(0, n - 1)
    shifted = draw(st.booleans())

    def permutation():
        if not shifted:
            return list(draw(st.permutations(range(n))))
        shift = draw(coefficient)
        return [(x + shift) % n for x in range(n)]

    tables, arities = {}, {}
    kinds = draw(st.lists(st.sampled_from(["perm", "latin"]), min_size=1, max_size=2))
    for i, kind in enumerate(kinds):
        if kind == "perm":
            arities[f"u{i}"], tables[f"u{i}"] = 1, permutation()
        else:
            p, q, r = permutation(), permutation(), permutation()
            arities[f"m{i}"] = 2
            tables[f"m{i}"] = [r[(p[x] + q[y]) % n] for x, y in product(range(n), repeat=2)]
    if draw(st.booleans()):
        arity = draw(st.integers(1, 2))
        if shifted:
            coeffs = draw(st.lists(coefficient, min_size=arity + 1, max_size=arity + 1))
            table = [
                (coeffs[-1] + sum(c * a for c, a in zip(coeffs, args))) % n
                for args in product(range(n), repeat=arity)
            ]
        else:
            table = draw(st.lists(coefficient, min_size=n**arity, max_size=n**arity))
        arities["g"], tables["g"] = arity, table
    return FiniteAlgebra(Signature(arities), n, tables)


@settings(max_examples=80, deadline=None)
@given(planted_symmetry_algebras())
def test_con_lattice_matches_the_oracles_on_planted_symmetry(alg):
    lat = con_lattice(alg)
    want = sorted(brute_force_congruences(alg), key=lambda blocks: (len(blocks), blocks))
    assert [p.blocks for p in lat.congruences] == want
    _assert_lattice_matches_oracles(lat)
    assert list(_principal_congruences(alg).values()) == _full_sweep_principals(alg)


def unary_cycle(n):
    """The mono-unary algebra x -> x + 1 mod n; Con is the divisor lattice of n."""
    return FiniteAlgebra(Signature({"f": 1}), n, {"f": [(x + 1) % n for x in range(n)]})


PINNED_ORBITS = {
    "Z32": (cyclic_group(32), 16),
    "klein4^2": (algebra_product([K4, K4]), 15),
    "boolean_ring(4)": (boolean_ring(4), 15),
    "cycle64": (unary_cycle(64), 32),
    # no basic translation of the chain is a bijection, so every pair is swept
    "heyting_chain(12)": (heyting_chain(12), 66),
}


@pytest.mark.parametrize("name", sorted(PINNED_ORBITS))
def test_principal_sweep_runs_on_pinned_orbit_representatives(name):
    alg, reps = PINNED_ORBITS[name]
    codes = _pair_orbit_reps(alg).tolist()
    assert len(codes) == reps
    assert codes == sorted(codes) and all(a < b for a, b in (divmod(c, alg.n) for c in codes))
    if name == "heyting_chain(12)":
        assert codes == [a * 12 + b for a in range(12) for b in range(a + 1, 12)]


@pytest.mark.parametrize(
    "alg",
    [PINNED_ORBITS[name][0] for name in sorted(PINNED_ORBITS)] + [unary_cycle(n) for n in (12, 24, 30)],
    ids=sorted(PINNED_ORBITS) + ["cycle12", "cycle24", "cycle30"],
)
def test_pair_orbit_representatives_match_the_bfs_oracle(alg):
    assert _pair_orbit_reps(alg).tolist() == pair_orbit_reps(alg)


@pytest.mark.parametrize("name", ["Z32", "klein4^2", "boolean_ring(4)", "heyting_chain(12)"])
def test_principal_congruences_come_in_the_order_of_the_full_sweep(name):
    alg = PINNED_ORBITS[name][0]
    assert list(_principal_congruences(alg).values()) == _full_sweep_principals(alg)


def test_principal_order_and_lattice_of_unary_cycles():
    for n in (12, 24, 30):
        alg = unary_cycle(n)
        assert list(_principal_congruences(alg).values()) == _full_sweep_principals(alg)
        lat = con_lattice(alg)
        assert len(lat) == sum(1 for d in range(1, n + 1) if n % d == 0)
        assert sorted(p.blocks for p in lat.congruences) == sorted(
            tuple(tuple(range(r, n, d)) for r in range(d)) for d in range(1, n + 1) if n % d == 0
        )


def test_covers_match_the_triple_loop_on_corpus_lattices_and_f2_5():
    f2_5 = con_lattice(algebra_product([K4, K4, cyclic_group(2)]))
    assert len(f2_5) == 374
    for lat in [con_lattice(entry.algebra) for entry in default_entries()] + [f2_5]:
        assert lat.covers() == covering_pairs(lat.leq)


@settings(max_examples=60, deadline=None)
@given(small_algebras())
@example(ONE_ELEMENT)
@example(NULLARY_ONLY)
def test_join_matches_oracle(alg):
    congruences = brute_force_congruences(alg)
    parts = [Partition(alg.n, blocks) for blocks in congruences]
    for i, r in enumerate(parts):
        for s in parts[i:]:
            pairs = label_pairs(r.index_of) | label_pairs(s.index_of)
            assert r.join(s).blocks == _least_oracle_congruence(alg, congruences, pairs)


@settings(max_examples=60, deadline=None)
@given(small_algebras())
@example(ONE_ELEMENT)
@example(NULLARY_ONLY)
def test_compatible_matches_oracle(alg):
    for blocks in all_partitions(alg.n):
        assert is_congruence(alg, Partition(alg.n, blocks)).ok == compatible(alg, blocks)


@settings(max_examples=60, deadline=None)
@given(small_algebras())
@example(ONE_ELEMENT)
@example(NULLARY_ONLY)
def test_is_congruence_witness_matches_the_scalar_scan(alg):
    for blocks in all_partitions(alg.n):
        verdict = is_congruence(alg, Partition(alg.n, blocks))
        assert verdict.witness == congruence_witness(alg, blocks)


# -- images -----------------------------------------------------------------------


def test_inverse_image_examples():
    q = quotient(Z4, eq(4, (0, 2), (1, 3)))
    assert inverse_image(q, Partition.discrete(2)) == eq(4, (0, 2), (1, 3))
    assert inverse_image(q, Partition.full(2)) == Partition.full(4)
    qid = quotient(Z4, Partition.discrete(4))
    s = eq(4, (0, 2), (1, 3))
    assert inverse_image(qid, s) == s


def test_inverse_image_preserves_congruences():
    for theta in con_lattice(K4).congruences:
        q = quotient(K4, theta)
        for s in con_lattice(q.target).congruences:
            assert is_congruence(K4, inverse_image(q, s)).ok


def test_direct_image_examples():
    qid = quotient(Z4, Partition.discrete(4))
    s = eq(4, (0, 2), (1, 3))
    assert direct_image(qid, s) == s
    qfull = quotient(Z4, Partition.full(4))
    assert direct_image(qfull, Partition.full(4)) == Partition.full(1)
    # collapse the Klein four-group along its diagonal congruence
    diag = eq(4, (0, 3), (1, 2))
    q = quotient(K4, diag)
    assert direct_image(q, eq(4, (0, 1), (2, 3))) == Partition.full(2)


def test_raw_image_is_already_closed_on_permutable_corpus():
    for entry in default_entries():
        alg = entry.algebra
        lat = con_lattice(alg)
        cons = lat.congruences
        pairwise_two = all(
            permutability_level(alg, cons[i], cons[j]) == TWO
            for i in range(len(cons))
            for j in range(i, len(cons))
        )
        if not pairwise_two:
            continue
        for theta in cons:
            q = quotient(alg, theta)
            for s in cons:
                raw = raw_image_pairs(q.mapping, label_pairs(s.index_of))
                assert raw == label_pairs(direct_image(q, s).index_of)


def test_image_size_mismatches():
    q = quotient(Z4, eq(4, (0, 2), (1, 3)))
    with pytest.raises(SizeMismatchError):
        direct_image(q, Partition.discrete(2))
    with pytest.raises(SizeMismatchError):
        inverse_image(q, Partition.discrete(4))


def test_all_partitions_oracle_counts_bell_numbers():
    assert sum(1 for _ in all_partitions(4)) == 15
    assert sum(1 for _ in all_partitions(5)) == 52
