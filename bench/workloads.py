"""Inputs, jobs and answer checks of the four benchmark workloads.

A workload is built in two steps.  ``build`` is the set-up: it constructs
the algebras (corpus constructors, ``product``), writes the .alg/.ids files the
CLI battery reads, and returns the jobs.  A job is one call into goursat,
timed on its own, and an answer check that runs after the timer stops.

Every expected answer is a fact of the mathematics, stated here and not
read back from the program: congruence counts by formula, the axioms the
paper proves, term identities re-checked by the few lines below, and the
exit codes and output facts of the documented CLI.
"""

import contextlib
import io
import os
import random
from dataclasses import dataclass
from typing import Callable

from goursat.algebras import FiniteAlgebra, product, save_algebra
from goursat.closure import check_axioms
from goursat.cli import main as cli_main
from goursat.corpus import builtin, corpus_specs, entry_by_name
from goursat.distributivity import dist_report
from goursat.permutability import find_hm_terms, find_maltsev_term
from goursat.relations import con_lattice
from goursat.terms import Signature

# Random groupoids are searched at this table cap.  A BFS round applies the
# operation to every new argument pair before it truncates at the cap, so a
# round that follows one under the cap costs up to cap**2 applications
# (10 000 here, a few hundredths of a second); the search time grows
# faster than the cap.
GROUPOID_CAP = 100
GROUPOIDS = 12
TERM_CAP = 200_000

_MUST_PASS = ("1", "2", "3", "4", "5", "6", "6prime", "additivity", "image_join")
_AXIOM7_OK = ("pass", "not-applicable")


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]  # returns the problems found, empty if right


def build(workload, seed, small, wrong, workdir):
    """Set up one workload and return its jobs.

    ``small`` selects the smallest inputs, for the self-test.  ``wrong``
    corrupts one expected fact, so the self-test can show that a wrong
    answer is counted.
    """
    setups = {
        "axiom-sweep": _axiom_sweep,
        "con-ladder": _con_ladder,
        "term-search": _term_search,
        "cli-battery": _cli_battery,
    }
    return setups[workload](seed, small, wrong, workdir)


# -- facts known independently of the program ------------------------------

def divisor_count(n):
    """Con(Z_n) is the lattice of subgroups of Z_n, one per divisor of n."""
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def subspace_count(dim):
    """Number of subspaces of F_2^dim: the sum of Gaussian binomials at q=2."""
    total = 0
    for k in range(dim + 1):
        num = den = 1
        for i in range(k):
            num *= 2 ** (dim - i) - 1
            den *= 2 ** (i + 1) - 1
        total += num // den
    return total


def maltsev_ok(n, t):
    return all(
        t[(x * n + y) * n + y] == x and t[(x * n + x) * n + y] == y
        for x in range(n)
        for y in range(n)
    )


def hm_ok(n, p, q):
    return all(
        p[(x * n + y) * n + y] == x
        and q[(x * n + x) * n + y] == y
        and p[(x * n + x) * n + y] == q[(x * n + y) * n + y]
        for x in range(n)
        for y in range(n)
    )


def term_table(alg, term):
    """The ternary operation a witness term defines, evaluated from the raw tables."""
    n = alg.n

    def ev(t, env):
        if not hasattr(t, "sym"):
            return env[t.name]
        idx = 0
        for a in t.args:
            idx = idx * n + ev(a, env)
        return alg.tables[t.sym][idx]

    return tuple(
        ev(term, {"x": x, "y": y, "z": z})
        for x in range(n)
        for y in range(n)
        for z in range(n)
    )


def clone3(n, table, limit):
    """Ternary term operations of a groupoid, or None past ``limit`` tables."""
    size = n**3
    known = {
        tuple(i // (n * n) for i in range(size)),
        tuple(i // n % n for i in range(size)),
        tuple(i % n for i in range(size)),
    }
    frontier = set(known)
    while frontier:
        fresh = set()
        for a in known:
            for b in frontier:
                for u, v in ((a, b), (b, a)):
                    c = tuple(table[i * n + j] for i, j in zip(u, v))
                    if c not in known:
                        fresh.add(c)
        known |= fresh
        if len(known) > limit:
            return None
        frontier = fresh
    return known


def _witness_problems(alg, kind, witness):
    n = alg.n
    if kind == "maltsev":
        pairs = [witness]
        ok = maltsev_ok(n, witness.table)
    else:
        pairs = list(witness)
        ok = hm_ok(n, pairs[0].table, pairs[1].table)
    problems = [] if ok else [f"{kind} witness fails its identities"]
    for w in pairs:
        if w.term is None or term_table(alg, w.term) != tuple(w.table):
            problems.append("witness term does not evaluate to its table")
    return problems


# -- axiom-sweep -------------------------------------------------------------

_SWEEP_FULL = (
    "cyclic_group(2)", "cyclic_group(4)", "cyclic_group(8)", "klein4", "sym3",
    "boolean_ring(1)", "boolean_ring(2)", "boolean_ring(3)", "zmod_vnr(6)",
    "heyting_chain(2)", "heyting_chain(3)", "heyting_chain(4)",
    "implication_from_boolean(1)", "implication_from_boolean(2)",
    "two_elt_lattice",
)
_SWEEP_SMALL = (
    "cyclic_group(2)", "boolean_ring(1)", "heyting_chain(2)",
    "implication_from_boolean(1)", "two_elt_lattice",
)


def _axiom_sweep(seed, small, wrong, workdir):
    groups = {}
    for name in _SWEEP_SMALL if small else _SWEEP_FULL:
        alg = entry_by_name(name).algebra
        groups.setdefault(alg.sig.key(), []).append(alg)
    must_pass = {key: "pass" for key in _MUST_PASS}
    if wrong:
        must_pass["1"] = "fail"

    def check(report):
        problems = [
            f"axiom {key} is {report.entries[key].status}, expected {want}"
            for key, want in must_pass.items()
            if report.entries[key].status != want
        ]
        if report.entries["7"].status not in _AXIOM7_OK:
            problems.append(f"axiom 7 is {report.entries['7'].status}")
        return problems

    jobs = []
    for algs in groups.values():
        for spec in corpus_specs(algs[0].sig):
            label = f"{algs[0].name}..+{len(algs) - 1}/{spec.name}"
            jobs.append(Job(label, lambda a=algs, s=spec: check_axioms(a, s), check))
    return jobs


# -- con-ladder --------------------------------------------------------------

def _con_ladder(seed, small, wrong, workdir):
    k4 = builtin("klein4").algebra
    z2 = builtin("cyclic_group", 2).algebra
    if small:
        con_inputs = [
            (builtin("cyclic_group", 8).algebra, divisor_count(8)),
            (builtin("boolean_ring", 2).algebra, 2**2),
            (builtin("heyting_chain", 4).algebra, 4),
            (k4, subspace_count(2)),
        ]
        dist_inputs = [
            (builtin("boolean_ring", 1).algebra, True),
            (builtin("heyting_chain", 3).algebra, True),
            (product([z2, z2]), False),
        ]
    else:
        # Z32: n=32 with 6 congruences, the principal-pair sweep dominates.
        # klein4^2: 67 congruences, the join closure dominates.
        con_inputs = [
            (builtin("cyclic_group", 32).algebra, divisor_count(32)),
            (builtin("boolean_ring", 4).algebra, 2**4),
            (builtin("heyting_chain", 12).algebra, 12),
            (product([k4, k4]), subspace_count(4)),
        ]
        # Con of a Boolean ring is a Boolean lattice and Con of a Heyting
        # chain is a chain, both distributive; klein4 x Z2 is F_2^3, whose
        # subspace lattice contains M3.
        dist_inputs = [
            (builtin("boolean_ring", 3).algebra, True),
            (builtin("heyting_chain", 8).algebra, True),
            (product([k4, z2]), False),
        ]
    if wrong:
        con_inputs[0] = (con_inputs[0][0], con_inputs[0][1] + 1)

    def con_check(want):
        def check(lat):
            got = len(lat.congruences)
            return [] if got == want else [f"{got} congruences, expected {want}"]
        return check

    def dist_check(want):
        def check(report):
            problems = []
            if report.ok != want:
                problems.append(f"dist ok={report.ok}, expected {want}")
            if not report.agree:
                problems.append("the three distributivity verdicts disagree")
            return problems
        return check

    jobs = [
        Job(f"con {alg.name}", lambda a=alg: con_lattice(a), con_check(want))
        for alg, want in con_inputs
    ]
    jobs += [
        Job(f"dist {alg.name}", lambda a=alg: dist_report(a), dist_check(want))
        for alg, want in dist_inputs
    ]
    return jobs


# -- term-search -------------------------------------------------------------

def random_groupoids(seed, count):
    """Seeded binary operation tables on three elements."""
    rng = random.Random(seed)
    sig = Signature({"f": 2})
    return [
        FiniteAlgebra(sig, 3, {"f": tuple(rng.randrange(3) for _ in range(9))},
                      name=f"groupoid[{seed}:{i}]")
        for i in range(count)
    ]


def _term_search(seed, small, wrong, workdir):
    lattice = builtin("two_elt_lattice").algebra
    if small:
        found = [
            ("maltsev", builtin("cyclic_group", 3).algebra),
            ("maltsev", builtin("heyting_chain", 3).algebra),
            ("hm", builtin("implication_from_boolean", 1).algebra),
        ]
        groupoids = random_groupoids(seed, 2)
    else:
        z3 = builtin("cyclic_group", 3).algebra
        sym3 = builtin("sym3").algebra
        found = [
            ("maltsev", sym3),
            ("maltsev", builtin("heyting_chain", 12).algebra),
            ("maltsev", product([z3, sym3])),
            ("hm", builtin("heyting_chain", 4).algebra),
            ("hm", builtin("implication_from_boolean", 2).algebra),
        ]
        groupoids = random_groupoids(seed, GROUPOIDS)
    # The ternary term operations of the two-element lattice are the free
    # distributive lattice on three generators, which has 18 elements.
    lattice_want = ("found", None) if wrong else ("none", 18)
    search = {"maltsev": find_maltsev_term, "hm": find_hm_terms}

    def found_check(alg, kind):
        def check(outcome):
            if outcome.status != "found":
                return [f"{kind} search returned {outcome.status}, expected found"]
            return _witness_problems(alg, kind, outcome.witness)
        return check

    def lattice_check(outcome):
        want_status, want_explored = lattice_want
        if (outcome.status, outcome.explored) != lattice_want:
            return [f"got {outcome.status} after {outcome.explored} tables, "
                    f"expected {want_status} after {want_explored}"]
        return []

    def groupoid_check(alg, kind):
        def check(outcome):
            if outcome.status == "found":
                return _witness_problems(alg, kind, outcome.witness)
            if outcome.status == "inconclusive":
                ok = outcome.explored == GROUPOID_CAP
                return [] if ok else [f"inconclusive after {outcome.explored} tables"]
            clone = clone3(alg.n, alg.tables["f"], GROUPOID_CAP)
            if clone is None or len(clone) != outcome.explored:
                return [f"none after {outcome.explored} tables, but the clone differs"]
            n = alg.n
            if kind == "maltsev":
                hit = any(maltsev_ok(n, t) for t in clone)
            else:
                hit = any(hm_ok(n, p, q) for p in clone for q in clone)
            return ["none, but the clone holds a witness"] if hit else []
        return check

    jobs = [
        Job(f"{kind} {alg.name}", lambda a=alg, k=kind: search[k](a, cap=TERM_CAP),
            found_check(alg, kind))
        for kind, alg in found
    ]
    jobs += [
        Job(f"{kind} {lattice.name}", lambda k=kind: search[k](lattice, cap=TERM_CAP),
            lattice_check)
        for kind in ("maltsev", "hm")
    ]
    jobs += [
        Job(f"{kind} {alg.name}", lambda a=alg, k=kind: search[k](a, cap=GROUPOID_CAP),
            groupoid_check(alg, kind))
        for alg in groupoids
        for kind in ("maltsev", "hm")
    ]
    return jobs


# -- cli-battery -------------------------------------------------------------

def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(list(argv))
    return code, out.getvalue()


def _cli_battery(seed, small, wrong, workdir):
    names = ("cyclic_group(4)", "cyclic_group(8)", "klein4", "two_elt_lattice",
             "heyting_chain(3)", "implication_from_boolean(2)")
    path = {}
    for name in names:
        path[name] = os.path.join(workdir, name.replace("(", "_").replace(")", "") + ".alg")
        save_algebra(entry_by_name(name).algebra, path[name])
    exp2 = os.path.join(workdir, "exp2.ids")
    boole = os.path.join(workdir, "boole.ids")
    with open(exp2, "w", encoding="utf-8") as fh:
        fh.write("m(x,x) = e\n")
    with open(boole, "w", encoding="utf-8") as fh:
        fh.write("imp(imp(x,bot),bot) = x\n")
    dot = os.path.join(workdir, "out.dot")
    dump = os.path.join(workdir, "z6.alg")
    z4, z8, k4 = path["cyclic_group(4)"], path["cyclic_group(8)"], path["klein4"]
    lat2 = path["two_elt_lattice"]
    # Z8 / 2Z8 is the largest exponent-2 quotient of Z8, and the closure of
    # 4Z8 pulls back the verbal congruence 2Z4 of Z8/4Z8, which is 2Z8 again.
    two_z8 = "0 2 4 6|1 3 5 7"
    heyting_axioms = [f"axiom.{k}=pass" for k in _MUST_PASS] + ["status=pass"]

    def dot_facts():
        with open(dot, encoding="utf-8") as fh:
            text = fh.read()
        # Con(klein4) is the five-element diamond M3 with six covering edges.
        return text.count("label=") == 5 and text.count("->") == 6

    def dump_facts():
        with open(dump, encoding="utf-8") as fh:
            return fh.read().startswith("algebra zmod_vnr(6)\nsize 6\n")

    battery = [
        (("con", z4), 0, ["congruences 3"], None),
        (("con", k4, "--dot", dot, "--kv"), 0, ["congruences=5"], dot_facts),
        (("perm", path["implication_from_boolean(2)"]), 0, ["result PASS"], None),
        (("closure", z8, "--variety", exp2), 0, [f"delta_bar {two_z8}", "result PASS"], None),
        (("closure", z8, "--variety", exp2, "--rel", "0 4|1 5|2 6|3 7"), 0,
         [f"effective {two_z8}", "result PASS"], None),
        (("axioms", z4, z8, k4, "--variety", exp2), 0, ["result PASS"], None),
        (("axioms", path["heyting_chain(3)"], "--variety", boole, "--kv"), 0,
         heyting_axioms, None),
        (("dist", k4), 1, ["lattice distributive: fail", "verdicts agree: true"], None),
        (("dist", z4, "--kv"), 0, ["lattice_distributive=pass", "agree=true"], None),
        (("terms", z4, "--search", "maltsev"), 0, ["result found"], None),
        (("terms", lat2, "--search", "maltsev"), 1, ["result none"], None),
        (("terms", lat2, "--search", "hm", "--kv"), 1, ["result=none", "explored=18"], None),
        (("corpus", "list"), 0, ["klein4  size=4"], None),
        (("corpus", "dump", "zmod_vnr(6)", dump), 0, [f"wrote {dump}"], dump_facts),
    ]
    if small:
        battery = [battery[0], battery[7], battery[10], battery[13]]
    if wrong:
        argv, code, lines, extra = battery[0]
        battery[0] = (argv, 1 - code, lines, extra)

    def check_for(argv, want_code, want_lines, extra):
        def check(first):
            code, out = first
            problems = []
            if code != want_code:
                problems.append(f"exit {code}, expected {want_code}")
            have = out.splitlines()
            problems += [
                f"missing line {line!r}" for line in want_lines
                if not any(h.strip() == line or h.strip().startswith(line + " ") for h in have)
            ]
            if extra is not None and not extra():
                problems.append("written file lacks the expected content")
            if run_cli(argv) != first:
                problems.append("stdout or exit code differs on a second run")
            return problems
        return check

    return [
        Job(f"{i:02d} {argv[0]}", lambda a=argv: run_cli(a), check_for(argv, c, lines, extra))
        for i, (argv, c, lines, extra) in enumerate(battery)
    ]
