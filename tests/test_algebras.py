import pytest

from goursat.algebras import (
    FiniteAlgebra,
    QuotientMap,
    all_subuniverses,
    factor_through,
    format_algebra,
    generate_subuniverse,
    kernel_pair,
    parse_algebra,
    product,
    product_decode,
    product_encode,
    projections,
    quotient,
    subalgebra,
)
from goursat.corpus import (
    GROUP_SIG,
    cyclic_group,
    heyting_chain,
    klein4,
    sym3,
    two_elt_lattice,
    zmod_vnr,
)
from goursat.errors import NotCongruenceError, ParseError, SignatureMismatchError
from goursat.relations import Partition, con_lattice
from goursat.terms import Signature

Z2 = cyclic_group(2)
Z4 = cyclic_group(4)


def test_product_componentwise():
    prod = product([Z2, Z2])
    assert prod.n == 4
    a = product_encode([2, 2], (0, 1))
    b = product_encode([2, 2], (1, 1))
    assert prod.apply("m", (a, b)) == product_encode([2, 2], (1, 0))


def test_product_mixed_radix_leftmost_most_significant():
    assert product_encode([4, 2], (3, 1)) == 7
    assert product_decode([4, 2], 7) == (3, 1)
    assert product_decode([2, 4], 7) == (1, 3)


def test_empty_product_is_terminal():
    one = product([], sig=GROUP_SIG)
    assert one.n == 1
    assert all(set(t) == {0} for t in one.tables.values())


def test_unary_product_identity_encoding():
    prod = product([Z4])
    assert prod.n == Z4.n
    assert prod.tables == Z4.tables


def test_product_signature_mismatch():
    with pytest.raises(SignatureMismatchError):
        product([Z4, two_elt_lattice()])


def test_quotient_z4_is_z2():
    theta = Partition.from_literal("0 2|1 3", 4)
    qm = quotient(Z4, theta)
    assert qm.target.n == 2
    assert qm.target.tables == Z2.tables
    assert qm.mapping == (0, 1, 0, 1)


def test_quotient_by_discrete_is_bijective():
    qm = quotient(Z4, Partition.discrete(4))
    assert sorted(qm.mapping) == list(range(4))
    assert qm.target.tables == Z4.tables


def test_quotient_by_full_collapses():
    qm = quotient(Z4, Partition.full(4))
    assert qm.target.n == 1


def test_quotient_rejects_non_congruence_with_witness():
    bad = Partition.from_literal("0 1|2 3", 4)
    for _ in range(2):  # a refusal is never memoised
        with pytest.raises(NotCongruenceError) as err:
            quotient(Z4, bad)
        assert err.value.symbol == "m"
        assert err.value.pair == ((0, 0), (1, 1))


def test_quotient_is_memoised_per_algebra():
    alg = klein4()
    for theta in con_lattice(alg).congruences:
        qm = quotient(alg, theta)
        assert quotient(alg, Partition(alg.n, theta.blocks)) is qm
    assert con_lattice(alg) is con_lattice(alg)


def test_kernel_pair_inverts_quotient_on_every_congruence():
    for alg in (Z4, klein4(), sym3(), heyting_chain(3)):
        for theta in con_lattice(alg).congruences:
            qm = quotient(alg, theta)
            assert kernel_pair(qm) == theta
            assert qm.kernel == theta


def test_kernel_pair_edge_cases():
    assert kernel_pair(quotient(Z4, Partition.discrete(4))) == Partition.discrete(4)
    assert kernel_pair(quotient(Z4, Partition.full(4))) == Partition.full(4)


def test_factor_through_congruence_containment():
    z8 = cyclic_group(8)
    t1 = Partition.from_literal("0 4|1 5|2 6|3 7", 8)
    t2 = Partition.from_literal("0 2 4 6|1 3 5 7", 8)
    q1, q2 = quotient(z8, t1), quotient(z8, t2)
    h = factor_through(q1, q2)
    assert [h.mapping[q1.mapping[x]] for x in range(8)] == list(q2.mapping)
    with pytest.raises(ValueError):
        factor_through(q2, q1)


def test_projections_are_homomorphisms_with_trivial_joint_kernel():
    prod, maps = projections([Z4, Z2])
    # QuotientMap validates the homomorphism property on construction
    met = maps[0].kernel.meet(maps[1].kernel)
    assert met == Partition.discrete(prod.n)


def test_quotient_map_validation_rejects_non_homomorphism():
    theta = Partition.from_literal("0 2|1 3", 4)
    twisted = FiniteAlgebra(
        Z2.sig, 2, {"m": (0, 0, 0, 0), "i": (0, 1), "e": (0,)}, name="broken"
    )
    with pytest.raises(ValueError, match="homomorphism"):
        QuotientMap(Z4, theta, twisted, (0, 1, 0, 1))


def test_generate_subuniverse():
    assert generate_subuniverse(Z4, {1}) == frozenset({0, 1, 2, 3})
    assert generate_subuniverse(Z4, {2}) == frozenset({0, 2})
    assert generate_subuniverse(Z4, set(range(4))) == frozenset(range(4))
    # nullary value always included
    assert generate_subuniverse(Z4, set()) == frozenset({0})
    # no nullary op: empty seed stays empty
    assert generate_subuniverse(two_elt_lattice(), set()) == frozenset()


def test_subalgebra_reindexes():
    sub, embed = subalgebra(Z4, {0, 2})
    assert embed == (0, 2)
    assert sub.n == 2
    assert sub.tables["m"] == (0, 1, 1, 0)
    with pytest.raises(ValueError, match="not closed"):
        subalgebra(Z4, {0, 1})


def test_all_subuniverses_of_z4():
    subs = all_subuniverses(Z4)
    assert subs == [frozenset({0}), frozenset({0, 2}), frozenset({0, 1, 2, 3})]


def test_alg_format_roundtrip():
    for alg in (Z4, sym3(), heyting_chain(3), zmod_vnr(6)):
        parsed = parse_algebra(format_algebra(alg))
        assert parsed == alg
        assert parsed.name == alg.name
        assert list(parsed.sig.ops) == list(alg.sig.ops)


def test_alg_parser_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="expected 'algebra NAME'"):
        parse_algebra("size 2\n")
    with pytest.raises(ParseError, match="line 3"):
        parse_algebra("algebra t\nsize 2\nop m two\n")
    with pytest.raises(ParseError, match="ended early"):
        parse_algebra("algebra t\nsize 2\nop m 2\n0 1 1\n")
    with pytest.raises(ParseError, match="extra entries"):
        parse_algebra("algebra t\nsize 2\nop m 2\n0 1 1 0 1\n")
    with pytest.raises(ParseError, match="expected integer"):
        parse_algebra("algebra t\nsize 2\nop m 2\n0 1 x 0\n")


def test_alg_parser_accepts_values_on_op_line_and_across_lines():
    text = "algebra t\nsize 2\nop m 2 0 1\n1\n0\n"
    alg = parse_algebra(text)
    assert alg.tables["m"] == (0, 1, 1, 0)


def test_table_validation():
    sig = Signature({"f": 1})
    with pytest.raises(ValueError, match="out-of-range"):
        FiniteAlgebra(sig, 2, {"f": (0, 5)})
    with pytest.raises(ValueError, match="entries"):
        FiniteAlgebra(sig, 2, {"f": (0,)})
    with pytest.raises(ValueError, match="cover"):
        FiniteAlgebra(sig, 2, {})
