import random
import re
from itertools import product as iproduct

import numpy as np
import pytest

from goursat.algebras import (
    FiniteAlgebra,
    QuotientMap,
    all_subuniverses,
    format_algebra,
    generate_subuniverse,
    parse_algebra,
    product,
    projections,
    quotient,
    subalgebra,
)
from goursat.corpus import (
    GROUP_SIG,
    cyclic_group,
    default_entries,
    heyting_chain,
    klein4,
    sym3,
    two_elt_lattice,
    zmod_vnr,
)
from goursat.errors import NotCongruenceError, ParseError, SignatureMismatchError
from goursat.relations import Partition, con_lattice, direct_image, is_congruence
from goursat.terms import Signature

from oracles import (
    all_partitions,
    naive_subalgebra_tables,
    naive_subuniverse,
    product_decode,
    product_encode,
    relates,
    seeded_subuniverses,
    subuniverse_seeds,
)

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


MIXED_SIG = Signature({"c": 0, "u": 1, "b": 2, "t": 3})


def _random_algebra(rng, n, sig=MIXED_SIG):
    tables = {sym: [rng.randrange(n) for _ in range(n**arity)] for sym, arity in sig}
    return FiniteAlgebra(sig, n, tables)


def test_product_matches_naive_loop_on_random_factors():
    rng = random.Random(3)
    for _ in range(20):
        factors = [_random_algebra(rng, rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
        sizes = [a.n for a in factors]
        prod = product(factors)
        for sym, arity in MIXED_SIG:
            want = []
            for args in iproduct(range(prod.n), repeat=arity):
                decoded = [product_decode(sizes, a) for a in args]
                comps = [
                    alg.apply(sym, tuple(d[i] for d in decoded))
                    for i, alg in enumerate(factors)
                ]
                want.append(product_encode(sizes, comps))
            assert prod.tables[sym] == tuple(want)


def test_quotient_map_reports_first_non_homomorphic_point():
    # Symbols in declaration order, argument tuples lexicographically.
    rng = random.Random(5)
    refused = 0
    for _ in range(60):
        source = _random_algebra(rng, 4)
        mapping = (0, 1, rng.randrange(2), rng.randrange(2))
        target = _random_algebra(rng, 2)
        kernel = Partition.from_labels(4, mapping)
        first = None
        for sym, arity in MIXED_SIG:
            for args in iproduct(range(4), repeat=arity):
                image = target.apply(sym, tuple(mapping[a] for a in args))
                if first is None and image != mapping[source.apply(sym, args)]:
                    first = f"mapping is not a homomorphism at {sym!r}{args}"
        if first is None:
            QuotientMap(source, kernel, target, mapping)
            continue
        refused += 1
        with pytest.raises(ValueError) as info:
            QuotientMap(source, kernel, target, mapping)
        assert str(info.value) == first
    assert refused > 0


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


def _naive_quotient_tables(alg, theta):
    """Tables of alg/theta read off block representatives, one apply per tuple."""
    reps = [blk[0] for blk in theta.blocks]
    return {
        sym: tuple(
            theta.index_of[alg.apply(sym, tuple(reps[i] for i in args))]
            for args in iproduct(range(len(reps)), repeat=arity)
        )
        for sym, arity in alg.sig
    }


def test_quotients_of_congruences_pass_the_validating_constructor():
    # Members of the memoised lattice pass require_congruence unchecked and
    # every quotient map skips the QuotientMap checks; the validating
    # constructor must still accept each map, and the tables must agree
    # with the definition and with the checked path of an unmemoised copy.
    for entry in default_entries():
        alg = entry.algebra
        unmemoised = FiniteAlgebra(alg.sig, alg.n, alg.tables, name=alg.name)
        for theta in con_lattice(alg).congruences:
            qm = quotient(alg, theta)
            checked = QuotientMap(alg, theta, qm.target, qm.mapping)
            assert checked.mapping == qm.mapping == theta.index_of
            assert qm.kernel == theta
            assert qm.target.tables == _naive_quotient_tables(alg, theta)
            assert quotient(unmemoised, theta).target.tables == qm.target.tables
        assert "con" not in unmemoised._memo
        # projection maps are built unchecked too
        for factors in ([alg], [alg, alg], [alg, Z2] if alg.sig == Z2.sig else []):
            prod, maps = projections(factors)
            for pm in maps:
                checked = QuotientMap(prod, pm.kernel, pm.target, pm.mapping)
                assert checked.mapping == pm.mapping


def _derived_algebras():
    """Every kind of algebra built through the trusted path, from the default corpus."""
    for entry in default_entries():
        alg = entry.algebra
        for theta in con_lattice(alg).congruences:
            yield quotient(alg, theta).target
        for u in all_subuniverses(alg):
            yield subalgebra(alg, u)[0]
        prod, _ = projections([alg, alg])
        yield prod
        yield product([], sig=alg.sig)


def test_derived_algebras_store_read_only_arrays():
    for alg in _derived_algebras():
        for sym, arity in alg.sig:
            table = alg.table_array(sym)
            assert table.dtype == np.intp and table.shape == (alg.n,) * arity
            assert not table.flags.writeable, (alg.name, sym)
            assert alg.tables[sym] == tuple(table.ravel().tolist())
        assert not any(isinstance(key, tuple) and key[0] == "table_array" for key in alg._memo)


def test_a_memoised_lattice_does_not_vouch_for_non_congruences():
    for entry in default_entries():
        alg = entry.algebra
        if alg.n > 6:
            continue
        lat = con_lattice(alg)
        refused = 0
        for blocks in all_partitions(alg.n):
            theta = Partition(alg.n, blocks)
            if theta in lat:
                continue
            refused += 1
            with pytest.raises(NotCongruenceError) as info:
                quotient(alg, theta)
            assert (info.value.symbol, info.value.pair) == is_congruence(alg, theta).witness
        assert refused == sum(1 for _ in all_partitions(alg.n)) - len(lat)


def test_quotient_is_memoised_per_algebra():
    alg = klein4()
    for theta in con_lattice(alg).congruences:
        qm = quotient(alg, theta)
        assert quotient(alg, Partition(alg.n, theta.blocks)) is qm
    assert con_lattice(alg) is con_lattice(alg)


def test_table_arrays_subalgebras_and_subuniverses_are_memoised_per_algebra():
    alg = klein4()
    table = alg.table_array("m")
    assert alg.table_array("m") is table
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 1
    subs = all_subuniverses(alg)
    subs.clear()
    again = all_subuniverses(alg)
    assert again == all_subuniverses(klein4()) and again is not all_subuniverses(alg)
    assert subalgebra(alg, {0, 1}) is subalgebra(alg, frozenset({1, 0}))
    with pytest.raises(ValueError, match="not closed"):
        subalgebra(Z4, {0, 1})
    with pytest.raises(ValueError, match="not closed"):
        subalgebra(Z4, {0, 1})


def test_projections_are_memoised_on_the_first_factor_by_the_second_and_its_name():
    first = cyclic_group(4)
    pair = projections([first, Z2])
    assert projections([first, Z2]) is pair
    assert projections([first, cyclic_group(2)]) is pair
    renamed = FiniteAlgebra(Z2.sig, 2, Z2.tables, name="z2")
    prod, maps = projections([first, renamed])
    assert prod.name == "cyclic_group(4)xz2" and maps[1].target is renamed
    assert projections([cyclic_group(4), Z2]) is not pair


def test_iterated_quotients_share_the_memo_of_the_equal_direct_quotient():
    # Con(A/theta) = [theta, 1]: (A/theta)/phi with phi the image of psi >= theta
    # is A/psi, with the same canonical tables, so the two share one memo
    # but keep their own names.
    for entry in default_entries():
        alg = entry.algebra
        cons = con_lattice(alg).congruences
        for theta in cons:
            q_theta = quotient(alg, theta)
            for psi in cons:
                if not theta.refines(psi):
                    continue
                phi = direct_image(q_theta, psi)
                nested = quotient(q_theta.target, phi).target
                direct = quotient(alg, psi).target
                assert nested.tables == direct.tables
                assert nested._memo is direct._memo
                assert nested.name == f"{alg.name}/{theta.to_literal()}/{phi.to_literal()}"
                assert direct.name == f"{alg.name}/{psi.to_literal()}"


def test_subalgebras_and_products_join_the_family_and_separate_roots_share_nothing():
    z4 = cyclic_group(4)
    half = quotient(z4, Partition(4, [[0, 2], [1, 3]])).target
    sub, _ = subalgebra(z4, {0, 2})
    assert sub.tables == half.tables and sub._memo is half._memo
    assert sub.name == "cyclic_group(4)|{0 2}" and half.name == "cyclic_group(4)/0 2|1 3"
    assert product([z4])._memo is z4._memo
    prod, _ = projections([z4, Z2])
    assert quotient(prod, Partition.discrete(prod.n)).target._memo is prod._memo
    assert prod._family is z4._family

    twin = FiniteAlgebra(z4.sig, 4, z4.tables, name=z4.name)
    con_lattice(z4)
    assert twin == z4 and twin._memo is not z4._memo and "con" not in twin._memo
    assert quotient(twin, Partition.discrete(4)).target._memo is twin._memo


def test_projections_of_no_factors_is_the_one_element_algebra():
    prod, maps = projections([])
    assert maps == []
    assert prod == product([]) and prod.n == 1


def test_kernel_pair_inverts_quotient_on_every_congruence():
    for alg in (Z4, klein4(), sym3(), heyting_chain(3)):
        for theta in con_lattice(alg).congruences:
            qm = quotient(alg, theta)
            assert Partition.from_labels(alg.n, qm.mapping) == qm.kernel == theta
            for a, b in iproduct(range(alg.n), repeat=2):
                assert relates(theta, a, b) == (qm.mapping[a] == qm.mapping[b])


def test_kernel_pair_edge_cases():
    for theta in (Partition.discrete(4), Partition.full(4)):
        qm = quotient(Z4, theta)
        assert Partition.from_labels(4, qm.mapping) == qm.kernel == theta


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


def test_quotient_map_failures_name_their_point_at_every_arity():
    theta = Partition.from_literal("0 2|1 3", 4)
    wrong_sum = FiniteAlgebra(Z2.sig, 2, {**Z2.tables, "m": (0, 0, 1, 0)})
    with pytest.raises(ValueError, match=r"^mapping is not a homomorphism at 'm'\(0, 1\)$"):
        QuotientMap(Z4, theta, wrong_sum, (0, 1, 0, 1))
    only_unary = FiniteAlgebra(Signature({"u": 1}), 4, {"u": (1, 2, 3, 0)})
    swapped = FiniteAlgebra(Signature({"u": 1}), 2, {"u": (0, 1)})
    with pytest.raises(ValueError, match=r"^mapping is not a homomorphism at 'u'\(0,\)$"):
        QuotientMap(only_unary, theta, swapped, (0, 1, 0, 1))
    only_nullary = FiniteAlgebra(Signature({"c": 0}), 4, {"c": (1,)})
    other = FiniteAlgebra(Signature({"c": 0}), 2, {"c": (0,)})
    with pytest.raises(ValueError, match=r"^mapping is not a homomorphism at 'c'\(\)$"):
        QuotientMap(only_nullary, theta, other, (0, 1, 0, 1))


def test_generate_subuniverse():
    assert generate_subuniverse(Z4, {1}) == frozenset({0, 1, 2, 3})
    assert generate_subuniverse(Z4, {2}) == frozenset({0, 2})
    assert generate_subuniverse(Z4, set(range(4))) == frozenset(range(4))
    # nullary value always included
    assert generate_subuniverse(Z4, set()) == frozenset({0})
    # no nullary op: empty seed stays empty
    assert generate_subuniverse(two_elt_lattice(), set()) == frozenset()
    for bad in (4, -1):
        with pytest.raises(ValueError, match=f"seed element {bad} out of range"):
            generate_subuniverse(Z4, {0, bad})


@pytest.mark.parametrize("bad", ["a", None, 1.5], ids=repr)
def test_generate_subuniverse_refuses_a_non_integer_seed_element(bad):
    with pytest.raises(ValueError, match=f"^non-integer seed element {re.escape(repr(bad))}$"):
        generate_subuniverse(Z4, [0, bad])
    # an integral float is refused too, not read as an index; numpy integers are integers
    with pytest.raises(ValueError, match=r"^non-integer seed element 1\.0$"):
        generate_subuniverse(Z4, [1.0])
    assert generate_subuniverse(Z4, [np.int64(2)]) == frozenset({0, 2})


def test_generate_subuniverse_matches_the_scalar_closure_on_every_seed():
    # heyting_chain(12) is past the exhaustive limit, so it covers the
    # seeds of at most two elements
    algebras = [entry.algebra for entry in default_entries()] + [heyting_chain(12)]
    for alg in algebras:
        for seed in subuniverse_seeds(alg.n):
            assert generate_subuniverse(alg, seed) == naive_subuniverse(alg, seed), alg.name


def test_subalgebra_matches_the_scalar_loop_on_tables_and_witnesses():
    # every subuniverse, and the non-closed subsets among all nonempty
    # subsets up to six elements, else among 200 random ones
    rng = random.Random(11)
    algebras = [entry.algebra for entry in default_entries()] + [heyting_chain(12)]
    refused = 0
    for alg in algebras:
        for u in all_subuniverses(alg):
            sub, embed = subalgebra(alg, u)
            assert embed == tuple(sorted(u))
            assert sub.tables == naive_subalgebra_tables(alg, u), (alg.name, embed)
        if alg.n <= 6:
            subsets = [s for s in subuniverse_seeds(alg.n) if s]
        else:
            subsets = [rng.sample(range(alg.n), rng.randint(1, alg.n)) for _ in range(200)]
        for subset in subsets:
            if generate_subuniverse(alg, subset) == set(subset):
                continue
            refused += 1
            with pytest.raises(ValueError) as want:
                naive_subalgebra_tables(alg, subset)
            with pytest.raises(ValueError) as got:
                subalgebra(alg, subset)
            assert str(got.value) == str(want.value)
    assert refused > 600


def test_subalgebra_reindexes():
    sub, embed = subalgebra(Z4, {0, 2})
    assert embed == (0, 2)
    assert sub.n == 2
    assert sub.tables["m"] == (0, 1, 1, 0)
    with pytest.raises(ValueError, match="not closed"):
        subalgebra(Z4, {0, 1})
    with pytest.raises(ValueError, match=r"^subset not closed under 'e' at \(\)$"):
        subalgebra(Z4, set())
    with pytest.raises(ValueError, match="^carrier must be nonempty$"):
        subalgebra(two_elt_lattice(), set())


def test_all_subuniverses_match_the_closures_of_every_seed():
    # Up to ten elements the join closure of the one-generated subuniverses
    # must give exactly the closures of all 2^n seeds, in the same order.
    # The extra algebras have no nullary operation, so Sg(empty) is empty,
    # and g(x, y) = x makes the f-closed subsets the subuniverses: every
    # subset for the identity, and the 31 unions of five cycles for the
    # permutation (0)(1 2)(3 4 5)(6)(7 8), which need up to five generators.
    rng = random.Random(5)
    unary = [list(range(5)), [0, 2, 1, 4, 5, 3, 6, 8, 7], [rng.randrange(7) for _ in range(7)]]
    extra = [
        FiniteAlgebra.from_functions(Signature({"f": 1, "g": 2}), len(f),
                                     {"f": f.__getitem__, "g": lambda x, y: x})
        for f in unary
    ]
    for alg in [entry.algebra for entry in default_entries()] + extra:
        assert alg.n <= 10
        assert all_subuniverses(alg) == seeded_subuniverses(alg), alg.name
    assert [len(all_subuniverses(alg)) for alg in extra[:2]] == [31, 31]


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


def test_the_algebra_name_is_the_rest_of_its_header_line():
    assert parse_algebra("algebra  two words\nsize 1\n").name == "two words"
    assert parse_algebra("algebra\tx\nsize 1\n").name == "x"


def test_alg_parser_accepts_values_on_op_line_and_across_lines():
    text = "algebra t\nsize 2\nop m 2 0 1\n1\n0\n"
    alg = parse_algebra(text)
    assert alg.tables["m"] == (0, 1, 1, 0)


@pytest.mark.parametrize("bad", ["a", None, 1.5], ids=repr)
def test_a_non_integer_table_entry_is_refused_before_its_range_is_read(bad):
    sig = Signature({"f": 1})
    with pytest.raises(ValueError, match=f"^table for 'f': non-integer entry {re.escape(repr(bad))}$"):
        FiniteAlgebra(sig, 2, {"f": (0, bad)})


@pytest.mark.parametrize("text, line, message", [
    ("algebra\nsize 2\n", 1, "algebra name missing"),
    # the header's first word is exactly ``algebra``
    ("algebrax\nsize 1\n", 1, "expected 'algebra NAME' header"),
    ("algebra a\n", 1, "expected 'size N'"),
    ("algebra a\nsize\n", 2, "expected 'size N'"),
    ("algebra a\nsize two\n", 2, "bad size 'two'"),
    ("algebra a\nsize 0\n", 2, "size must be at least 1"),
    ("algebra a\nsize 2\nfn f 1\n", 3, "expected 'op SYMBOL ARITY', got 'fn f 1'"),
    ("algebra a\nsize 2\nop f\n", 3, "op line needs a symbol and an arity"),
    ("algebra a\nsize 2\nop f 1 0 1\nop f 1 1 0\n", 4, "duplicate operation 'f'"),
    # an entry is read by the element rule where its token is parsed, so the
    # error names that token's line even when more lines follow
    ("algebra a\nsize 2\nop f 1\n0 -1\n", 4, "table for 'f': entry -1 out of range 0..1"),
    ("algebra a\nsize 2\nop f 1\n0 5\nop g 1\n0 1\n\n", 4,
     "table for 'f': entry 5 out of range 0..1"),
    ("algebra a\nsize 2\nop m 2\n0 9\n1 0\n", 4, "table for 'm': entry 9 out of range 0..1"),
    # a token is an integer only as ASCII -?[0-9]+: int() would read these as 10, 2 and 10
    ("algebra a\nsize 1_0\n", 2, "bad size '1_0'"),
    ("algebra a\nsize 2\nop f \u0662\n", 3, "bad arity '\u0662'"),
    ("algebra a\nsize 2\nop f 1\n0 1_0\n", 4, "expected integer, got '1_0'"),
])
def test_parse_algebra_refuses_malformed_input(text, line, message):
    with pytest.raises(ParseError, match=f"^line {line}: {re.escape(message)}$") as info:
        parse_algebra(text)
    assert info.value.line == line


def _quotient_map_args(case):
    theta = Partition.from_literal("0 2|1 3", 4)
    target = quotient(Z4, theta).target
    return {
        "short": (Z4, theta, target, (0, 1, 0)),
        "not onto": (Z4, theta, target, (0, 0, 0, 0)),
        "kernel size": (Z4, Partition.discrete(3), target, (0, 1, 0, 1)),
        "fibres": (Z4, Partition.from_literal("0 1|2 3", 4), target, (0, 1, 0, 1)),
        "signature": (Z4, theta, two_elt_lattice(), (0, 1, 0, 1)),
        "float": (Z4, theta, target, [0.0, 1.0, 0.0, 1.0]),
        "non-collection": (Z4, theta, target, 5),
    }[case]


@pytest.mark.parametrize("case, error, message", [
    ("short", ValueError, "mapping must be defined on the whole source"),
    ("not onto", ValueError, "mapping must be onto the target carrier"),
    ("kernel size", ValueError, "kernel must live on the source carrier"),
    ("fibres", ValueError, "mapping fibers do not match the kernel blocks"),
    ("signature", SignatureMismatchError, "source and target signatures differ"),
    # the mapping is read by the element rule
    ("float", ValueError, "non-integer element 0.0"),
    ("non-collection", ValueError, "expected a collection, got 5"),
])
def test_quotient_map_refuses_a_map_that_is_not_its_quotient(case, error, message):
    with pytest.raises(ValueError, match=f"^{message}$") as info:
        QuotientMap(*_quotient_map_args(case))
    assert type(info.value) is error


def test_an_empty_carrier_is_refused():
    with pytest.raises(ValueError, match=r"^carrier must be nonempty$"):
        FiniteAlgebra(Signature({"f": 1}), 0, {"f": ()})
    # the size is read by the element rule
    for n, bad in ((2.0, "2.0"), ("2", "'2'")):
        with pytest.raises(ValueError, match=f"^non-integer size {re.escape(bad)}$"):
            FiniteAlgebra(Signature({"f": 1}), n, {"f": (0, 1)})


def test_table_validation():
    sig = Signature({"f": 1})
    with pytest.raises(ValueError, match=r"^table for 'f': entry 5 out of range 0\.\.1$"):
        FiniteAlgebra(sig, 2, {"f": (0, 5)})
    with pytest.raises(ValueError, match="entries"):
        FiniteAlgebra(sig, 2, {"f": (0,)})
    with pytest.raises(ValueError, match="cover"):
        FiniteAlgebra(sig, 2, {})
    # a non-integer entry would be truncated by the intp table
    for table, bad in (((0, 1.5), "1.5"), ((1.0, 0), "1.0"), ((0, np.float64(1)), "np.float64(1.0)")):
        with pytest.raises(ValueError, match=rf"^table for 'f': non-integer entry {re.escape(bad)}$"):
            FiniteAlgebra(sig, 2, {"f": table})
    # the first bad entry in table order is named
    with pytest.raises(ValueError, match=r"^table for 'f': non-integer entry 1\.5$"):
        FiniteAlgebra(sig, 2, {"f": (1.5, 5)})
    # numpy integers are integers; the caller's array is copied
    given = np.array([1, 0])
    alg = FiniteAlgebra(sig, 2, {"f": given})
    given[0] = 0
    assert alg.tables["f"] == (1, 0) and alg.apply("f", (0,)) == 1
    assert type(alg.apply("f", (0,))) is int
