import re

import pytest

from goursat.algebras import FiniteAlgebra
from goursat.closure import birkhoff_congruence
from goursat.corpus import (
    _GROUP_LAWS,
    _checked,
    GROUP_SIG,
    HEYTING_SIG,
    IMPLICATION_SIG,
    LATTICE_SIG,
    RING_SIG,
    CorpusEntry,
    boolean_ring,
    builtin,
    corpus_specs,
    cyclic_group,
    default_entries,
    entry_by_name,
    heyting_chain,
    implication_from_boolean,
    klein4,
    spec_by_name,
    sym3,
    two_elt_lattice,
    verify_entry,
    zmod_vnr,
)
from goursat.errors import CarrierBoundError
from goursat.permutability import FOUND, SearchOutcome, TermWitness
from goursat.relations import Partition
from goursat.terms import Var, parse_identities, satisfies_identity
from test_permutability import chain_lattice


def test_cyclic_group_tables():
    z4 = cyclic_group(4)
    assert z4.tables["m"] == tuple((a + b) % 4 for a in range(4) for b in range(4))
    assert z4.tables["i"] == (0, 3, 2, 1)
    assert z4.tables["e"] == (0,)


def test_corrupted_group_table_is_refused_with_the_law_and_its_least_witness():
    z4 = cyclic_group(4)
    m = list(z4.tables["m"])
    m[1 * 4 + 2] = 0  # m(1,2) = 0 instead of 3
    broken = FiniteAlgebra(z4.sig, 4, {**z4.tables, "m": tuple(m)}, name=z4.name)
    message = (
        "corpus algebra 'cyclic_group(4)' violates m(m(x,y),z) = m(x,m(y,z))"
        " at {'x': 1, 'y': 1, 'z': 1}"
    )
    with pytest.raises(ValueError) as err:
        _checked(broken, _GROUP_LAWS)
    assert str(err.value) == message


def test_boolean_ring_star_satisfies_the_pseudo_inverse_axioms_pointwise():
    br = boolean_ring(1)
    assert br.n == 2
    for a in range(br.n):
        astar = br.apply("star", (a,))
        assert br.apply("mul", (a, br.apply("mul", (astar, astar)))) == astar
        assert br.apply("mul", (br.apply("mul", (a, a)), astar)) == a


def test_boolean_ring_is_idempotent():
    br = boolean_ring(3)
    ident = parse_identities("mul(x,x) = x", br.sig)[0]
    assert satisfies_identity(br, ident).ok


def test_heyting_chain_satisfies_the_defining_identities():
    h3 = heyting_chain(3)
    text = """
    join(x,meet(imp(y,x),y)) = x
    meet(x,imp(y,meet(x,y))) = x
    meet(x,join(y,z)) = join(meet(x,y),meet(x,z))
    meet(x,bot) = bot
    join(x,top) = top
    """
    for ident in parse_identities(text, h3.sig):
        assert satisfies_identity(h3, ident).ok


def test_zmod_vnr_star_axioms_and_uniqueness():
    z6 = zmod_vnr(6)
    for a in range(6):
        candidates = [
            x for x in range(6) if (a * x * x) % 6 == x and (a * a * x) % 6 == a
        ]
        assert len(candidates) == 1
        assert z6.apply("star", (a,)) == candidates[0]


def test_zmod_vnr_rejects_non_squarefree_modulus():
    with pytest.raises(ValueError, match="squarefree"):
        zmod_vnr(4)
    with pytest.raises(ValueError, match="squarefree"):
        zmod_vnr(12)


def test_implication_algebra_identities():
    alg = implication_from_boolean(2)
    for ident in parse_identities(
        "imp(imp(x,y),y) = imp(imp(y,x),x)\nimp(imp(x,y),x) = x\n"
        "imp(x,imp(y,z)) = imp(y,imp(x,z))",
        alg.sig,
    ):
        assert satisfies_identity(alg, ident).ok


def test_builtin_dispatch_and_errors():
    entry = builtin("cyclic_group", 4)
    assert entry.name == "cyclic_group(4)"
    assert entry.algebra.n == 4
    with pytest.raises(KeyError):
        builtin("frobnicator")
    with pytest.raises(ValueError):
        builtin("klein4", 3)
    assert entry_by_name("klein4").algebra.n == 4
    with pytest.raises(KeyError):
        entry_by_name("cyclic_group(x)")


def test_corpus_specs_filter_by_signature():
    names = lambda sig: [s.name for s in corpus_specs(sig)]
    assert names(GROUP_SIG) == ["trivial", "all", "abelian-group", "exponent-2"]
    assert names(RING_SIG) == ["trivial", "all", "idempotent-ring"]
    assert names(HEYTING_SIG) == ["trivial", "all", "boolean-from-heyting"]
    assert names(IMPLICATION_SIG) == ["trivial", "all"]
    assert names(LATTICE_SIG) == ["trivial", "all"]


def test_spec_examples():
    # the whole-category spec closes nothing
    for alg in (cyclic_group(4), heyting_chain(3)):
        spec = spec_by_name("all", alg.sig)
        assert birkhoff_congruence(alg, spec) == Partition.discrete(alg.n)
    s3 = sym3()
    assert (
        birkhoff_congruence(s3, spec_by_name("abelian-group", GROUP_SIG)).to_literal()
        == "0 3 4|1 2 5"
    )
    z8 = cyclic_group(8)
    assert (
        birkhoff_congruence(z8, spec_by_name("exponent-2", GROUP_SIG)).to_literal()
        == "0 2 4 6|1 3 5 7"
    )
    with pytest.raises(KeyError, match="no spec named 'nope'"):
        spec_by_name("nope", GROUP_SIG)


def test_default_entries_have_expected_sizes_and_tags():
    entries = {e.name: e for e in default_entries()}
    assert entries["cyclic_group(8)"].algebra.n == 8
    assert entries["sym3"].algebra.n == 6
    assert entries["boolean_ring(3)"].algebra.n == 8
    assert "maltsev" in entries["klein4"].tags
    assert "nondistributive" in entries["klein4"].tags
    assert "goursat" in entries["implication_from_boolean(2)"].tags
    assert "neither" in entries["two_elt_lattice"].tags
    assert all(e.algebra.n <= 8 for e in entries.values())


def test_verify_entry_passes_on_the_whole_corpus():
    for entry in default_entries():
        check = verify_entry(entry)
        assert check.ok, (entry.name, check.problems)


def _projection_x_witness(alg, cap=200_000):
    """A found outcome whose witness is the projection x: a table of the clone, but no Maltsev term."""
    n = alg.n
    return SearchOutcome(FOUND, TermWitness(tuple(x for x in range(n) for _ in range(n * n)), Var("x")))


def _projection_x_pair(alg, cap=200_000):
    """A found outcome whose pair is (x, x): the chain x, x, x, z breaks at its last link."""
    witness = _projection_x_witness(alg).witness
    return SearchOutcome(FOUND, (witness, witness))


@pytest.mark.parametrize("build, tags, search, problems", [
    (two_elt_lattice, ("maltsev",), None, ["maltsev tag: term search returned none"]),
    # the chain 0 < 1 < 2 < 3 has no Maltsev term, and its congruences do not all permute
    (lambda: chain_lattice(4), ("maltsev",), None, [
        "maltsev tag: term search returned none",
        "maltsev tag: some congruence pair does not 2-permute",
    ]),
    # the chain 0 < 1 < 2 < 3 has no Hagemann-Mitschke pair, and one pair of
    # interval congruences whose triple composites differ
    (lambda: chain_lattice(4), ("goursat",), None, [
        "goursat tag: two-term search returned none",
        "goursat tag: triple composites differ for 0 1|2 3 and 0|1 2|3",
    ]),
    (lambda: cyclic_group(2), ("neither",), None, [
        "neither tag: one-term search returned found",
        "neither tag: two-term search returned found",
    ]),
    (klein4, ("distributive",), None, ["distributive tag: congruence lattice is not distributive"]),
    (lambda: cyclic_group(2), ("nondistributive",), None,
     ["nondistributive tag: congruence lattice is distributive"]),
    # a witness that fails hm_chain_check is refused with its first failing (link, x, y)
    (lambda: cyclic_group(2), ("maltsev",), ("find_maltsev_term", _projection_x_witness),
     ["maltsev tag: re-check fails at (link, x, y) = (1, 0, 1)"]),
    (lambda: cyclic_group(2), ("goursat",), ("find_hm_terms", _projection_x_pair),
     ["goursat tag: re-check fails at (link, x, y) = (2, 0, 1)"]),
], ids=["maltsev", "maltsev-chain", "goursat", "neither", "distributive", "nondistributive",
        "maltsev-recheck", "goursat-recheck"])
def test_verify_entry_names_each_problem_of_a_wrong_tag(monkeypatch, build, tags, search, problems):
    if search is not None:
        monkeypatch.setattr(f"goursat.corpus.{search[0]}", search[1])
    alg = build()
    check = verify_entry(CorpusEntry(alg.name, alg, tags, ()))
    assert not check.ok
    assert check.problems == problems


def test_verify_entry_records_vacuous_notes_for_implication_entries():
    for k in (1, 2):
        check = verify_entry(entry_by_name(f"implication_from_boolean({k})"))
        assert check.ok
        assert any("vacuous" in note for note in check.notes)


def test_corpus_builders_reject_bad_parameters(monkeypatch):
    with pytest.raises(ValueError):
        cyclic_group(0)
    with pytest.raises(ValueError):
        heyting_chain(1)
    with pytest.raises(ValueError):
        boolean_ring(0)
    with pytest.raises(ValueError):
        implication_from_boolean(0)
    with pytest.raises(ValueError, match="modulus must be positive"):
        zmod_vnr(0)

    def never(*args, **kwargs):
        raise AssertionError("a table was built past the carrier limit")

    # a carrier past the subpower engine's limit is refused before any table is built
    monkeypatch.setattr(FiniteAlgebra, "from_functions", never)
    for name, param, size in [("heyting_chain", 256, 256), ("cyclic_group", 256, 256),
                              ("boolean_ring", 8, 256), ("implication_from_boolean", 9, 512),
                              ("zmod_vnr", 257, 257)]:
        with pytest.raises(CarrierBoundError, match=f"^carrier size {size} exceeds .* 255$"):
            builtin(name, param)
    # 2**k is refused on k, before the shift, and past a 64-bit word it is not written out
    for name in ("boolean_ring", "implication_from_boolean"):
        for k, size in [(63, 2**63), (64, "2**64"), (1000, "2**1000"), (20000, "2**20000"),
                        (100000000000, "2**100000000000")]:
            with pytest.raises(CarrierBoundError, match=rf"^carrier size {re.escape(str(size))} exceeds .* 255$"):
                builtin(name, k)
