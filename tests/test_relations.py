import random

import pytest

from goursat.algebras import quotient
from goursat.corpus import (
    boolean_ring,
    cyclic_group,
    default_entries,
    heyting_chain,
    klein4,
    two_elt_lattice,
)
from goursat.errors import CarrierBoundError, NotCongruenceError, SizeMismatchError
from goursat.permutability import TWO, permutability_level
from goursat.relations import (
    BinRel,
    Partition,
    compose,
    con_lattice,
    congruence_generated,
    direct_image,
    direct_image_raw,
    equivalence_closure,
    inverse_image,
    is_congruence,
    join,
)
from goursat.terms import Signature

from oracles import all_partitions, brute_force_congruences, compose_pairs

Z4 = cyclic_group(4)
K4 = klein4()


def eq(n, *blocks):
    return Partition(n, [list(b) for b in blocks])


# -- composition -------------------------------------------------------------


def test_compose_identity_and_full():
    r = eq(3, (0, 1), (2,)).as_binrel()
    assert compose(BinRel.identity(3), r) == r
    assert compose(r, BinRel.identity(3)) == r
    assert compose(BinRel.full(3), BinRel.full(3)) == BinRel.full(3)


def test_compose_two_equivalences_explicitly():
    r = eq(3, (0, 1), (2,)).as_binrel()
    s = eq(3, (0,), (1, 2)).as_binrel()
    expect = {(x, z) for x in (0, 1) for z in (0, 1, 2)} | {(2, 1), (2, 2)}
    assert set(compose(r, s).pairs()) == expect


def test_compose_matches_triple_loop_oracle():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(1, 6)
        r = BinRel(n, [rng.getrandbits(n) for _ in range(n)])
        s = BinRel(n, [rng.getrandbits(n) for _ in range(n)])
        assert set(compose(r, s).pairs()) == compose_pairs(r.pairs(), s.pairs())


def test_compose_associative_and_bounded():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(2, 6)
        rels = [BinRel(n, [rng.getrandbits(n) for _ in range(n)]) for _ in range(3)]
        a, b, c = rels
        assert compose(compose(a, b), c) == compose(a, compose(b, c))
        if a.count():
            assert compose(compose(BinRel.full(n), a), BinRel.full(n)) == BinRel.full(n)


def test_compose_size_mismatch():
    with pytest.raises(SizeMismatchError):
        compose(BinRel.full(2), BinRel.full(3))


# -- equivalence closure and partitions ---------------------------------------


def test_equivalence_closure_cases():
    p = eq(3, (0, 1), (2,))
    assert equivalence_closure(p.as_binrel()) == p
    chain = BinRel.from_pairs(3, [(0, 1), (1, 2)])
    assert equivalence_closure(chain) == Partition.full(3)
    assert equivalence_closure(BinRel.empty(3)) == Partition.discrete(3)


def test_partition_canonical_form_and_literals():
    p = Partition(4, [[3, 1], [2, 0]])
    assert p.to_literal() == "0 2|1 3"
    assert Partition.from_literal("1 3|2 0", 4) == p
    assert Partition.from_literal("0 2|1 3", 4).blocks == ((0, 2), (1, 3))


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(3, [[0, 1], [1, 2]])
    with pytest.raises(ValueError):
        Partition(3, [[0, 1]])
    with pytest.raises(ValueError):
        Partition.from_literal("0 1|", 2)


def test_partition_meet_refines_pairs():
    a = eq(4, (0, 1), (2, 3))
    b = eq(4, (0, 2), (1, 3))
    assert a.meet(b) == Partition.discrete(4)
    assert a.refines(Partition.full(4))
    assert not Partition.full(4).refines(a)


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
                assert got.relates(a, b)
                containing = [
                    blocks
                    for blocks in congruences
                    if any(a in blk and b in blk for blk in blocks)
                ]
                least = containing[0]
                for other in containing[1:]:
                    from oracles import meet_blocks

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


def test_join_examples():
    kerp1 = eq(4, (0, 1), (2, 3))
    kerp2 = eq(4, (0, 2), (1, 3))
    assert join(K4, kerp1, kerp2) == Partition.full(4)
    assert join(Z4, eq(4, (0, 2), (1, 3)), Partition.discrete(4)) == eq(4, (0, 2), (1, 3))
    assert join(Z4, eq(4, (0, 2), (1, 3)), Partition.full(4)) == Partition.full(4)
    with pytest.raises(NotCongruenceError):
        join(Z4, eq(4, (0, 1), (2, 3)), Partition.discrete(4))


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


def test_direct_image_raw_is_already_closed_on_permutable_corpus():
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
                raw = direct_image_raw(q, s)
                assert raw.is_equivalence()
                assert raw.to_partition() == direct_image(q, s)


def test_image_size_mismatches():
    q = quotient(Z4, eq(4, (0, 2), (1, 3)))
    with pytest.raises(SizeMismatchError):
        direct_image(q, Partition.discrete(2))
    with pytest.raises(SizeMismatchError):
        inverse_image(q, Partition.discrete(4))


def test_all_partitions_oracle_counts_bell_numbers():
    assert sum(1 for _ in all_partitions(4)) == 15
    assert sum(1 for _ in all_partitions(5)) == 52
