import pytest

import goursat.closure
from goursat.closure import SubvarietySpec
from goursat.corpus import (
    boolean_ring,
    cyclic_group,
    default_entries,
    heyting_chain,
    klein4,
    spec_by_name,
    two_elt_lattice,
)
from goursat.distributivity import (
    DistReport,
    check_axiom7,
    closure_meet_identity_check,
    dist_report,
    image_meet_check,
    is_distributive,
)
from goursat.relations import Partition, con_lattice, direct_image
from goursat.verdict import FAIL, NOT_APPLICABLE, PASS

from test_closure import _full_iff_one_block, _next_congruence

Z4 = cyclic_group(4)
K4 = klein4()
H3 = heyting_chain(3)


def test_chain_lattices_are_distributive():
    assert is_distributive(con_lattice(Z4)).ok
    assert is_distributive(con_lattice(two_elt_lattice())).ok


def test_klein4_distributivity_fails_on_the_atom_triple():
    verdict = is_distributive(con_lattice(K4))
    assert not verdict.ok
    a, b, c = verdict.witness
    assert [p.to_literal() for p in (a, b, c)] == ["0 1|2 3", "0 2|1 3", "0 3|1 2"]
    # replay: a meet (b join c) = a, but (a meet b) join (a meet c) = discrete
    lat = con_lattice(K4)
    ai, bi, ci = lat.index(a), lat.index(b), lat.index(c)
    assert lat.meet_table[ai][lat.join_table[bi][ci]] == ai
    joined = lat.join_table[lat.meet_table[ai][bi]][lat.meet_table[ai][ci]]
    assert lat.congruences[joined] == Partition.discrete(4)


def test_image_meet_check_on_klein4_returns_the_diagonal_witness():
    verdict = image_meet_check(K4)
    assert not verdict.ok
    qm, r, s = verdict.witness
    assert qm.kernel.to_literal() == "0 3|1 2"
    assert r.to_literal() == "0 1|2 3"
    assert s.to_literal() == "0 2|1 3"
    # replay the witness
    lhs = direct_image(qm, r.meet(s))
    rhs = direct_image(qm, r).meet(direct_image(qm, s))
    assert lhs == Partition.discrete(2)
    assert rhs == Partition.full(2)


def test_image_meet_check_positive_cases():
    assert image_meet_check(Z4).ok
    assert image_meet_check(H3).ok


def test_axiom7_with_whole_category_spec_tracks_image_meet():
    assert check_axiom7(H3, SubvarietySpec(H3.sig, (), name="all")).ok
    assert check_axiom7(Z4, SubvarietySpec(Z4.sig, (), name="all")).ok
    verdict = check_axiom7(K4, SubvarietySpec(K4.sig, (), name="all"))
    assert not verdict.ok
    qm, r, s = verdict.witness
    assert (qm.kernel.to_literal(), r.to_literal(), s.to_literal()) == (
        "0 3|1 2",
        "0 1|2 3",
        "0 2|1 3",
    )


def test_axiom7_with_boolean_spec_on_heyting_chain():
    spec = spec_by_name("boolean-from-heyting", H3.sig)
    assert check_axiom7(H3, spec).ok


def test_axiom7_on_one_element_algebra():
    from goursat.algebras import product

    one = product([], sig=Z4.sig)
    assert check_axiom7(one, SubvarietySpec(one.sig, (), name="all")).ok


def test_closure_meet_identity():
    spec = spec_by_name("boolean-from-heyting", H3.sig)
    assert closure_meet_identity_check(H3, spec).status == PASS
    exp2 = spec_by_name("exponent-2", Z4.sig)
    assert closure_meet_identity_check(Z4, exp2).status == PASS
    status = closure_meet_identity_check(K4, SubvarietySpec(K4.sig, (), name="all"))
    assert status.status == NOT_APPLICABLE


def test_three_verdicts_agree_on_every_corpus_algebra():
    for entry in default_entries():
        report = dist_report(entry.algebra)
        assert report.agree, entry.name
        expected = "nondistributive" not in entry.tags
        assert report.ok == expected, entry.name


def test_dist_report_fields():
    report = dist_report(K4)
    assert report.spec_name == "all"
    assert not report.lattice_distributive.ok
    assert not report.image_meet.ok
    assert not report.axiom7.ok
    assert report.closure_meet.status == NOT_APPLICABLE


def test_dist_report_builds_the_closure_map_of_a_once(monkeypatch):
    # Con(boolean_ring(3)) has 8 congruences and its 8 quotients have 27 in
    # all; one closure_effective call each is 35, where a second closure
    # map of A for the closed-meet check made 43.
    spec = spec_by_name("trivial", boolean_ring(3).sig)
    calls = []
    effective = goursat.closure.closure_effective

    def counting(alg, s, spec):
        calls.append(alg.name)
        return effective(alg, s, spec)

    monkeypatch.setattr(goursat.closure, "closure_effective", counting)
    report = dist_report(boolean_ring(3), spec)
    assert len(calls) == 35
    assert calls.count("boolean_ring(3)") == 8
    alg = boolean_ring(3)
    assert report == DistReport(
        lattice_distributive=is_distributive(con_lattice(alg)),
        image_meet=image_meet_check(alg),
        axiom7=check_axiom7(alg, spec),
        spec_name="trivial",
        closure_meet=closure_meet_identity_check(alg, spec),
    )
    assert report.ok and report.closure_meet.status == PASS


def test_axiom7_under_the_trivial_spec_passes_on_a_nondistributive_lattice():
    # the closure is constantly the full relation, so axiom 7 cannot see M3
    report = dist_report(K4, spec_by_name("trivial", K4.sig))
    assert report.lattice_distributive.status == FAIL
    assert report.image_meet.status == FAIL
    assert report.axiom7.status == PASS
    assert report.agree is False


# Negative controls for the meet scans: each case injects one fault where
# goursat.closure reads it, and pins every check's verdict or witness
# (the quotient kernel, r and s; r and s for closure_meet).


def _full_unless_discrete(f, s):
    """A wrong image: the discrete target relation from a discrete input, else the full one."""
    n = f.target.n
    return Partition.discrete(n) if s.num_blocks == s.n else Partition.full(n)


DIST_CONTROLS = {
    "next-closure-on-z4": (
        "closure_effective", _next_congruence, Z4, "exponent-2", {
            "axiom7": ("0 2|1 3", "0 1 2 3", "0|1|2|3"),
            "image_meet": PASS,
            "closure_meet": ("0 1 2 3", "0|1|2|3"),
        },
    ),
    "one-block-image-on-z4": (
        "direct_image", _full_iff_one_block, Z4, "exponent-2", {
            "axiom7": ("0|1|2|3", "0 1 2 3", "0 2|1 3"),
            "image_meet": PASS,
            "closure_meet": PASS,
        },
    ),
    "full-unless-discrete-image-on-boolean-ring2": (
        "direct_image", _full_unless_discrete, boolean_ring(2), "all", {
            "axiom7": ("0 1|2 3", "0 1|2 3", "0 2|1 3"),
            "image_meet": ("0 1|2 3", "0 1|2 3", "0 2|1 3"),
            "closure_meet": PASS,
        },
    ),
}


def _outcome(verdict):
    if not verdict.failed:
        return verdict.status
    return tuple(
        part.kernel.to_literal() if hasattr(part, "kernel") else part.to_literal()
        for part in verdict.witness
    )


@pytest.mark.parametrize("case", DIST_CONTROLS.values(), ids=DIST_CONTROLS.keys())
def test_meet_scans_report_each_injected_fault(monkeypatch, case):
    name, fault, alg, spec_name, expected = case
    spec = spec_by_name(spec_name, alg.sig)
    monkeypatch.setattr(goursat.closure, name, fault)
    got = {
        "axiom7": _outcome(check_axiom7(alg, spec)),
        "image_meet": _outcome(image_meet_check(alg)),
        "closure_meet": _outcome(closure_meet_identity_check(alg, spec)),
    }
    assert got == expected
