import pytest

import goursat.closure
from goursat.algebras import product, quotient
from goursat.closure import SubvarietySpec, closure_effective
from goursat.corpus import (
    boolean_ring,
    corpus_specs,
    cyclic_group,
    default_entries,
    heyting_chain,
    klein4,
    spec_by_name,
    two_elt_lattice,
)
from goursat.distributivity import dist_report, is_distributive
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
    verdict = dist_report(K4).image_meet
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
    assert dist_report(Z4).image_meet.ok
    assert dist_report(H3).image_meet.ok


def test_axiom7_with_whole_category_spec_tracks_image_meet():
    assert dist_report(H3, SubvarietySpec(H3.sig, (), name="all")).axiom7.ok
    assert dist_report(Z4, SubvarietySpec(Z4.sig, (), name="all")).axiom7.ok
    verdict = dist_report(K4, SubvarietySpec(K4.sig, (), name="all")).axiom7
    assert not verdict.ok
    qm, r, s = verdict.witness
    assert (qm.kernel.to_literal(), r.to_literal(), s.to_literal()) == (
        "0 3|1 2",
        "0 1|2 3",
        "0 2|1 3",
    )


def test_axiom7_with_boolean_spec_on_heyting_chain():
    spec = spec_by_name("boolean-from-heyting", H3.sig)
    assert dist_report(H3, spec).axiom7.ok


def test_axiom7_on_one_element_algebra():
    one = product([], sig=Z4.sig)
    assert dist_report(one, SubvarietySpec(one.sig, (), name="all")).axiom7.ok


def test_closure_meet_identity():
    spec = spec_by_name("boolean-from-heyting", H3.sig)
    assert dist_report(H3, spec).closure_meet.status == PASS
    exp2 = spec_by_name("exponent-2", Z4.sig)
    assert dist_report(Z4, exp2).closure_meet.status == PASS
    status = dist_report(K4, SubvarietySpec(K4.sig, (), name="all")).closure_meet
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
    assert report.spec_name == "trivial"
    assert report.ok and report.closure_meet.status == PASS


# A partition-level oracle for the meet scans: every congruence is closed,
# met and pushed forward as a Partition, with no index map of Con.


def _meet_oracle(alg, close):
    """First (theta, r, s) in (r, s, theta) order with f(c(r meet s)) != c(f(r)) meet c(f(s)).

    f is the quotient map by theta and ``close(B, p)`` the closure of p on B.
    """
    cons = con_lattice(alg).congruences
    for r in cons:
        for s in cons:
            for theta in cons:
                f = quotient(alg, theta)
                lhs = direct_image(f, close(alg, r.meet(s)))
                rhs = close(f.target, direct_image(f, r)).meet(close(f.target, direct_image(f, s)))
                if lhs != rhs:
                    return theta, r, s
    return None


def _closed_meet_oracle(alg, close):
    """First (r, s) with c(r) meet c(s) != c(r meet s)."""
    cons = con_lattice(alg).congruences
    for r in cons:
        for s in cons:
            if close(alg, r).meet(close(alg, s)) != close(alg, r.meet(s)):
                return r, s
    return None


def _found(verdict):
    """The failing instance of a scan verdict, quotients by their kernel, or None."""
    if not verdict.failed:
        return None
    return tuple(part.kernel if hasattr(part, "kernel") else part for part in verdict.witness)


@pytest.mark.parametrize("entry", default_entries(), ids=lambda entry: entry.name)
def test_dist_report_matches_the_partition_oracle(entry):
    alg = entry.algebra

    def identity(_alg, p):
        return p

    image_meet = _meet_oracle(alg, identity)
    for spec in [None] + list(corpus_specs(alg.sig)):
        report = dist_report(alg, spec)
        spec = spec or SubvarietySpec(alg.sig, (), name="all")

        def close(source, p):
            return closure_effective(source, p, spec).closure

        assert _found(report.image_meet) == image_meet, spec.name
        assert _found(report.axiom7) == _meet_oracle(alg, close), spec.name
        if report.lattice_distributive:
            assert _found(report.closure_meet) == _closed_meet_oracle(alg, close), spec.name
        else:
            assert report.closure_meet.status == NOT_APPLICABLE, spec.name


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
    report = dist_report(alg, spec)
    got = {
        "axiom7": _outcome(report.axiom7),
        "image_meet": _outcome(report.image_meet),
        "closure_meet": _outcome(report.closure_meet),
    }
    assert got == expected
