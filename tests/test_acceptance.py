"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All checks are exact set equalities on finite structures.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import random
import time
from itertools import product as iproduct

import numpy as np

from goursat.algebras import save_algebra
from goursat.closure import (
    birkhoff_congruence,
    check_axioms,
    closure_effective,
    closure_goursat,
    roundtrip_check,
)
from goursat.corpus import corpus_specs, default_entries, entry_by_name
from goursat.distributivity import dist_report, is_distributive
from goursat.permutability import (
    FOUND,
    NONE,
    TWO,
    find_hm_terms,
    find_maltsev_term,
    hm_chain_check,
    permutability_level,
)
from goursat.relations import (
    Partition,
    composite,
    con_lattice,
    congruence_generated,
    direct_image,
)
from goursat.verdict import PASS

from oracles import brute_force_congruences, compose_pairs, label_pairs, matrix_pairs, meet_blocks

ENTRIES = default_entries()
GROUP_ENTRIES = [e for e in ENTRIES if e.name.startswith(("cyclic_group", "klein4", "sym3"))]
IMPLICATION_ENTRIES = [e for e in ENTRIES if e.name.startswith("implication_from_boolean")]


def _report(criterion, ok, detail=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _sweep_pairs():
    for entry in ENTRIES:
        for spec in corpus_specs(entry.algebra.sig):
            yield entry, spec


_AXIOM_REPORTS = None
_AXIOM_SECONDS = None


def _axiom_reports():
    """Shared axiom sweep: every corpus algebra with every applicable spec."""
    global _AXIOM_REPORTS, _AXIOM_SECONDS
    if _AXIOM_REPORTS is None:
        start = time.perf_counter()
        reports = []
        by_sig = {}
        for entry in ENTRIES:
            by_sig.setdefault(entry.algebra.sig.key(), []).append(entry)
        for group in by_sig.values():
            algs = [e.algebra for e in group]
            for spec in corpus_specs(algs[0].sig):
                reports.append((group, spec, check_axioms(algs, spec)))
        _AXIOM_SECONDS = time.perf_counter() - start
        _AXIOM_REPORTS = reports
    return _AXIOM_REPORTS


def test_acceptance_1_closure_axiom_suite():
    reports = _axiom_reports()
    ok = True
    for group, spec, report in reports:
        for key in ("1", "2", "3", "4", "5"):
            if report.entries[key].status != PASS:
                ok = False
    ok = ok and _AXIOM_SECONDS < 60.0
    _report(
        1,
        ok,
        f"{len(reports)} algebra-group/spec sweeps, axioms (1)-(5), "
        f"{_AXIOM_SECONDS:.1f}s < 60s",
    )


def test_acceptance_2_birkhoff_axioms():
    reports = _axiom_reports()
    ok = True
    for group, spec, report in reports:
        for key in ("6", "6prime", "additivity", "image_join"):
            if report.entries[key].status != PASS:
                ok = False
    _report(2, ok, "axioms (6), (6'), additivity, and image-join on the same sweep")


def test_acceptance_3_construction_agreement():
    checked = 0
    for entry, spec in _sweep_pairs():
        alg = entry.algebra
        cons = con_lattice(alg).congruences
        three_permutable = all(
            permutability_level(alg, cons[i], cons[j]) != "neither"
            for i in range(len(cons))
            for j in range(i, len(cons))
        )
        if not three_permutable:
            continue
        diag = birkhoff_congruence(alg, spec)
        for s in cons:
            eff = closure_effective(alg, s, spec)
            gour = closure_goursat(alg, s, spec)
            assert gour.closure == eff.closure
            # D o S o D is reflexive, so it is transitive exactly when it equals its square
            dsd = composite(diag, s, diag)
            assert np.array_equal(composite(diag, s, diag, diag, s, diag), dsd)
            checked += 1
    _report(3, checked > 0, f"{checked} congruence closures agree, raw composites transitive")


def test_acceptance_4_roundtrip_bijection():
    count = 0
    for entry, spec in _sweep_pairs():
        verdict = roundtrip_check(entry.algebra, spec)
        assert verdict.ok, (entry.name, spec.name, verdict.witness)
        count += 1
    _report(4, True, f"{count} (algebra, spec) round trips")


def test_acceptance_5_permutability_landscape():
    timings = {}

    for entry in GROUP_ENTRIES:
        cons = con_lattice(entry.algebra).congruences
        for i in range(len(cons)):
            for j in range(i, len(cons)):
                assert permutability_level(entry.algebra, cons[i], cons[j]) == TWO

    for entry in IMPLICATION_ENTRIES:
        cons = con_lattice(entry.algebra).congruences
        for i in range(len(cons)):
            for j in range(i, len(cons)):
                r, s = cons[i], cons[j]
                assert np.array_equal(composite(r, s, r), composite(s, r, s))

    lattice = entry_by_name("two_elt_lattice").algebra
    start = time.perf_counter()
    m = find_maltsev_term(lattice)
    timings["lattice maltsev"] = time.perf_counter() - start
    assert m.status == NONE
    start = time.perf_counter()
    h = find_hm_terms(lattice)
    timings["lattice hm"] = time.perf_counter() - start
    assert h.status == NONE

    imp1 = entry_by_name("implication_from_boolean(1)").algebra
    start = time.perf_counter()
    hm = find_hm_terms(imp1)
    timings["implication hm"] = time.perf_counter() - start
    assert hm.status == FOUND
    assert hm_chain_check(imp1, (hm.witness[0].term, hm.witness[1].term))

    z2 = entry_by_name("cyclic_group(2)").algebra
    start = time.perf_counter()
    mz2 = find_maltsev_term(z2)
    timings["z2 maltsev"] = time.perf_counter() - start
    assert mz2.status == FOUND
    group_word = tuple((x - y + z) % 2 for x, y, z in iproduct(range(2), repeat=3))
    assert mz2.witness.table == group_word
    assert hm_chain_check(z2, (mz2.witness.term,))

    assert all(dt < 10.0 for dt in timings.values()), timings
    worst = max(timings.values())
    _report(5, True, f"searches max {worst:.2f}s < 10s")


def test_acceptance_6_distributivity_equivalence():
    for entry in ENTRIES:
        alg = entry.algebra
        lattice = is_distributive(con_lattice(alg))
        spec_all = next(s for s in corpus_specs(alg.sig) if s.name == "all")
        report = dist_report(alg, spec_all)
        assert lattice.ok == report.image_meet.ok == report.axiom7.ok, entry.name

    k4 = entry_by_name("klein4").algebra
    report = dist_report(k4)
    assert not report.ok and report.agree
    qm, r, s = report.image_meet.witness
    assert qm.kernel.to_literal() == "0 3|1 2"
    assert r.to_literal() == "0 1|2 3"
    assert s.to_literal() == "0 2|1 3"
    # replay the witness end to end
    assert direct_image(qm, r.meet(s)) == Partition.discrete(2)
    assert direct_image(qm, r).meet(direct_image(qm, s)) == Partition.full(2)

    for name in ("heyting_chain(3)", "cyclic_group(4)"):
        assert dist_report(entry_by_name(name).algebra).ok, name
    _report(6, True, "lattice / image-meet / axiom-7 verdicts agree on all 15 entries")


def test_acceptance_7_oracle_equivalence():
    small = [e for e in ENTRIES if e.algebra.n <= 5]
    assert small, "corpus must contain algebras small enough for the oracle"
    for entry in small:
        alg = entry.algebra
        want = sorted(brute_force_congruences(alg))
        got = sorted(p.blocks for p in con_lattice(alg).congruences)
        assert got == want, entry.name
        for a in range(alg.n):
            for b in range(a + 1, alg.n):
                generated = congruence_generated(alg, [(a, b)])
                containing = [
                    blocks for blocks in want if any(a in blk and b in blk for blk in blocks)
                ]
                least = containing[0]
                for other in containing[1:]:
                    least = meet_blocks(alg.n, least, other)
                assert generated.blocks == least

    rng = random.Random(20260811)
    for _ in range(1000):
        n = rng.randint(1, 6)
        r, s = ([rng.randrange(n) for _ in range(n)] for _ in range(2))
        got = composite(Partition.from_labels(n, r), Partition.from_labels(n, s))
        assert matrix_pairs(got) == compose_pairs(label_pairs(r), label_pairs(s))
    _report(7, True, f"{len(small)} lattices vs brute force; 1000 random compositions")


def test_acceptance_8_component_formula():
    checked = 0
    for entry in GROUP_ENTRIES:
        alg = entry.algebra
        cons = con_lattice(alg).congruences
        for s in cons:
            for r in cons:
                joined = composite(s.join(r))
                assert np.array_equal(composite(s, r), joined)
                assert np.array_equal(composite(r, s), joined)
                checked += 1
    _report(8, True, f"{checked} congruence pairs on the group corpus")


def test_acceptance_9_cli_determinism(tmp_path):
    from test_cli import run_cli

    paths = {}
    for name in ("cyclic_group(4)", "cyclic_group(8)", "klein4", "two_elt_lattice",
                 "heyting_chain(3)", "implication_from_boolean(2)"):
        path = tmp_path / (name.replace("(", "_").replace(")", "") + ".alg")
        save_algebra(entry_by_name(name).algebra, path)
        paths[name] = str(path)
    exp2 = tmp_path / "exp2.ids"
    exp2.write_text("m(x,x) = e\n", encoding="utf-8")
    boole = tmp_path / "boole.ids"
    boole.write_text("imp(imp(x,bot),bot) = x\n", encoding="utf-8")
    dot = str(tmp_path / "out.dot")

    battery = [
        (("con", paths["cyclic_group(4)"]), 0),
        (("con", paths["klein4"], "--dot", dot, "--kv"), 0),
        (("perm", paths["implication_from_boolean(2)"]), 0),
        (("closure", paths["cyclic_group(8)"], "--variety", str(exp2)), 0),
        (
            ("closure", paths["cyclic_group(8)"], "--variety", str(exp2),
             "--rel", "0 4|1 5|2 6|3 7"),
            0,
        ),
        (("axioms", paths["cyclic_group(4)"], paths["cyclic_group(8)"], paths["klein4"],
          "--variety", str(exp2)), 0),
        (("axioms", paths["heyting_chain(3)"], "--variety", str(boole), "--kv"), 0),
        (("dist", paths["klein4"]), 1),
        (("dist", paths["cyclic_group(4)"], "--kv"), 0),
        (("terms", paths["cyclic_group(4)"], "--search", "maltsev"), 0),
        (("terms", paths["two_elt_lattice"], "--search", "maltsev"), 1),
        (("terms", paths["two_elt_lattice"], "--search", "hm", "--kv"), 1),
        (("corpus", "list"), 0),
        (("corpus", "dump", "zmod_vnr(6)", str(tmp_path / "z6.alg")), 0),
    ]
    for args, expected_code in battery:
        first = run_cli(*args)
        second = run_cli(*args)
        assert first == second, ("nondeterministic output", args)
        assert first[0] == expected_code, (args, first)
    _report(9, True, f"{len(battery)} subcommand invocations, byte-identical reruns")
