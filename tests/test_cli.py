import contextlib
import io
import os
import re
import subprocess
import sys

import pytest

import goursat
import goursat.cli
import goursat.permutability
from goursat.algebras import save_algebra
from goursat.closure import AXIOM_KEYS, AxiomReport, closure_goursat
from goursat.cli import main
from goursat.corpus import entry_by_name
from goursat.errors import GoursatHypothesisError
from goursat.verdict import Verdict
from test_permutability import chain_lattice, composite_missing_1_2


def run_cli(*args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    paths = {}
    for name in ("cyclic_group(4)", "cyclic_group(8)", "klein4", "two_elt_lattice",
                 "heyting_chain(3)"):
        path = root / f"{name.replace('(', '_').replace(')', '')}.alg"
        save_algebra(entry_by_name(name).algebra, path)
        paths[name] = str(path)
    chain4 = root / "chain_lattice_4.alg"
    save_algebra(chain_lattice(4), chain4)
    paths["chain_lattice(4)"] = str(chain4)
    exp2 = root / "exp2.ids"
    exp2.write_text("# exponent two\nm(x,x) = e\n", encoding="utf-8")
    paths["exp2"] = str(exp2)
    boole = root / "boole.ids"
    boole.write_text("imp(imp(x,bot),bot) = x\n", encoding="utf-8")
    paths["boole"] = str(boole)
    unary4 = root / "unary4.alg"
    unary4.write_text("algebra unary4\nsize 4\nop f 1\n3 0 3 2\n", encoding="utf-8")
    paths["unary4"] = str(unary4)
    inv = root / "inv.ids"
    inv.write_text("f(f(x)) = x\n", encoding="utf-8")
    paths["inv"] = str(inv)
    allids = root / "all.ids"
    allids.write_text("# whole category\n", encoding="utf-8")
    paths["all"] = str(allids)
    paths["root"] = str(root)
    return paths


def test_con_lists_congruences(files):
    code, out, _ = run_cli("con", files["cyclic_group(4)"])
    assert code == 0
    assert "congruences 3" in out
    assert out.index("0 1 2 3") < out.index("0 2|1 3") < out.index("0|1|2|3")


def test_con_dot_export(files):
    dot = files["root"] + "/k4.dot"
    code, out, _ = run_cli("con", files["klein4"], "--dot", dot)
    assert code == 0
    text = open(dot, encoding="utf-8").read()
    assert text.count("label=") == 5
    assert text.count("->") == 6  # covering edges of the five-element diamond
    assert "dot written to" in out


def test_con_dot_failed_run_leaves_no_file(files):
    dot = files["root"] + "/z8.dot"
    code, out, _ = run_cli("con", files["cyclic_group(8)"], "--max-size", "4", "--dot", dot)
    assert code == 2
    assert out == ""
    assert not os.path.exists(dot)


def test_con_respects_carrier_bound(files, tmp_path, monkeypatch):
    code, _, err = run_cli("con", files["cyclic_group(8)"], "--max-size", "4")
    assert code == 2
    assert "exceeds" in err
    # closure reads its targets, and so the bound, before the verbal congruence
    constant65 = tmp_path / "constant65.alg"
    constant65.write_text("algebra constant65\nsize 65\nop c 0\n0\n", encoding="utf-8")
    triv = tmp_path / "triv.ids"
    triv.write_text("x = y\n", encoding="utf-8")

    def never(*args):
        raise AssertionError("verbal congruence built before the carrier bound was checked")

    monkeypatch.setattr(goursat.cli, "birkhoff_congruence", never)
    assert run_cli("closure", str(constant65), "--variety", str(triv)) == (
        2, "", "error: carrier size 65 exceeds enumeration bound 64\n")


def test_closure_single_relation(files):
    code, out, _ = run_cli(
        "closure", files["cyclic_group(8)"], "--variety", files["exp2"],
        "--rel", "0 4|1 5|2 6|3 7",
    )
    assert code == 0
    assert "effective 0 2 4 6|1 3 5 7" in out
    assert "goursat   0 2 4 6|1 3 5 7" in out
    assert "agree=true" in out and "closed=false" in out


def test_closure_full_relation_is_dense(files):
    code, out, _ = run_cli(
        "closure", files["cyclic_group(8)"], "--variety", files["exp2"],
        "--rel", "0 1 2 3 4 5 6 7",
    )
    assert code == 0
    assert "dense=true" in out


def test_closure_sweep_with_empty_variety_closes_everything(files):
    code, out, _ = run_cli("closure", files["cyclic_group(4)"], "--variety", files["all"])
    assert code == 0
    assert "closed=false" not in out
    assert out.count("closed=true") == 3


def test_closure_rejects_non_congruence_with_witness(files):
    code, out, _ = run_cli(
        "closure", files["cyclic_group(4)"], "--variety", files["exp2"],
        "--rel", "0 1|2 3",
    )
    assert code == 1
    assert "FAIL not-a-congruence" in out


def test_axioms_pass_on_group_corpus(files):
    code, out, _ = run_cli(
        "axioms", files["cyclic_group(4)"], files["cyclic_group(8)"],
        "--variety", files["exp2"],
    )
    assert code == 0
    assert "result PASS" in out
    assert out.count("PASS") >= 9


def test_perm_reports_levels(files):
    code, out, _ = run_cli("perm", files["klein4"])
    assert code == 0
    assert "level=two" in out
    assert "result PASS" in out


def test_perm_prints_the_join_formula_witness_as_plain_ints(files, monkeypatch):
    monkeypatch.setattr(goursat.permutability, "composite", composite_missing_1_2)
    code, out, _ = run_cli("perm", files["klein4"])
    assert code == 1
    assert "  pair [0 1|2 3] [0 2|1 3] level=two join-formula=fail witness=(1, 2)\n" in out
    assert out.endswith("result FAIL\n")
    code, out, _ = run_cli("perm", files["klein4"], "--kv")
    assert code == 1
    assert "goursat_join.1.2=fail witness=(1, 2)\n" in out


def test_dist_klein4_fails_with_witness(files):
    code, out, _ = run_cli("dist", files["klein4"])
    assert code == 1
    assert "result FAIL" in out
    assert "quotient=[0 3|1 2] r=[0 1|2 3] s=[0 2|1 3]" in out


def test_dist_z4_passes(files):
    code, out, _ = run_cli("dist", files["cyclic_group(4)"])
    assert code == 0
    assert "result PASS" in out


def test_terms_maltsev_found(files):
    code, out, _ = run_cli("terms", files["cyclic_group(4)"], "--search", "maltsev")
    assert code == 0
    assert "result found" in out and "term" in out


def test_terms_maltsev_none_at_fixpoint(files):
    code, out, _ = run_cli("terms", files["two_elt_lattice"], "--search", "maltsev")
    assert code == 1
    assert "none (fixpoint reached" in out


def test_terms_inconclusive_at_cap(files):
    code, out, _ = run_cli(
        "terms", files["cyclic_group(8)"], "--search", "hm", "--clone-cap", "4"
    )
    assert code == 1
    assert "inconclusive" in out


def test_both_searches_print_an_operation_named_var_as_an_operation(tmp_path):
    """Generators are derived as (None, i), so no operation symbol is read as a variable."""
    xor = tmp_path / "var2.alg"
    xor.write_text("algebra v2\nsize 2\nop var 2\n0 1\n1 0\n", encoding="utf-8")
    for search, term in (("maltsev", ["  term var(x,var(y,z))"]),
                         ("hm", ["  term.p x", "  term.q var(x,var(y,z))"])):
        code, out, err = run_cli("terms", str(xor), "--search", search)
        assert (code, err) == (0, "")
        assert out.splitlines() == ["algebra v2", f"search {search}", "result found",
                                    *term, "  explored 8 tables"]


def test_corpus_list(files):
    code, out, _ = run_cli("corpus", "list")
    assert code == 0
    assert len(out.strip().splitlines()) == 15
    assert "klein4" in out and "zmod_vnr(6)" in out


def test_corpus_dump_roundtrip(files, tmp_path):
    target = str(tmp_path / "s3.alg")
    code, out, _ = run_cli("corpus", "dump", "sym3", target)
    assert code == 0
    code2, out2, _ = run_cli("con", target)
    assert code2 == 0
    assert "congruences 3" in out2


def _exits_2(cases):
    """Each invocation exits 2 with nothing on stdout and the given text in stderr."""
    for argv, want in cases:
        code, out, err = run_cli(*argv)
        assert (code, out) == (2, ""), argv
        assert want in err, (argv, err)


def test_corpus_dump_unknown_name(files, tmp_path):
    target = str(tmp_path / "x.alg")
    _exits_2([
        (("corpus", "dump", "nope(3)", target), "error: unknown corpus algebra 'nope'\n"),
        (("corpus", "dump", "cyclic_group(2,3)", target),
         "error: bad corpus name 'cyclic_group(2,3)'\n"),
        (("corpus", "dump", "cyclic_group(0)", target), "error: group order must be positive\n"),
        (("corpus", "dump", "cyclic_group(\u0664)", target),
         "error: bad corpus name 'cyclic_group(\u0664)'\n"),
        (("corpus", "dump", "sym3", str(tmp_path / "missing" / "x.alg")), "error: [Errno 2]"),
    ])
    assert not os.path.exists(target)


def test_parse_error_exits_2(files, tmp_path):
    bad = tmp_path / "bad.alg"
    bad.write_text("algebra broken\nsize 2\nop m 2\n0 1\n", encoding="utf-8")
    bad_ids = tmp_path / "bad.ids"
    bad_ids.write_text("m(x,x)\n", encoding="utf-8")
    z4, exp2, lat2 = files["cyclic_group(4)"], files["exp2"], files["two_elt_lattice"]
    bad_symbol = tmp_path / "bad_symbol.alg"
    bad_symbol.write_text("algebra broken\nsize 2\nop 1f 1\n0 1\n", encoding="utf-8")
    bad_arity = tmp_path / "bad_arity.alg"
    bad_arity.write_text("algebra broken\nsize 2\nop f -1\n0 1\n", encoding="utf-8")
    constant256 = tmp_path / "constant256.alg"
    constant256.write_text("algebra c\nsize 256\nop f 1\n" + "0 " * 256 + "\n", encoding="utf-8")
    _exits_2([
        (("con", str(bad)), "error: line 4: "),
        (("con", str(bad_symbol)), "error: line 3: bad operation symbol '1f'\n"),
        (("con", str(bad_arity)), "error: line 3: bad arity for 'f': -1\n"),
        (("closure", z4, "--variety", str(bad_ids)),
         "error: line 1: expected '=', found end of input (at position 6)\n"),
        (("closure", z4, "--variety", exp2, "--rel", "0 1||2 3"),
         "error: empty block in partition literal\n"),
        (("closure", z4, "--variety", exp2, "--rel", "0 1|2"),
         "error: partition does not cover the carrier\n"),
        # mixed signatures are refused before the spec is read against either
        (("axioms", z4, lat2, "--variety", exp2), f"error: {z4} and {lat2} have different signatures\n"),
        (("axioms", lat2, z4, "--variety", exp2), f"error: {lat2} and {z4} have different signatures\n"),
        (("con", z4, "--dot", str(tmp_path / "missing" / "x.dot")), "error: [Errno 2]"),
        # the clone search holds table entries in bytes
        (("terms", str(constant256), "--search", "hm"),
         "error: carrier size 256 exceeds enumeration bound 255\n"),
    ])


def test_an_element_outside_the_carrier_exits_2_naming_it(files, tmp_path):
    negative = tmp_path / "negative.alg"
    negative.write_text("algebra negative\nsize 2\nop f 1\n0 -1\n", encoding="utf-8")
    z8, exp2 = files["cyclic_group(8)"], files["exp2"]
    cases = [
        (("con", str(negative)), "error: line 4: table for 'f': entry -1 out of range 0..1\n"),
        (("closure", z8, "--variety", exp2, "--rel", "0 1|2 8"),
         "error: bad partition: element 8 out of range 0..7\n"),
        (("closure", z8, "--variety", exp2, "--rel", "0 1|2 -3"),
         "error: bad partition: element -3 out of range 0..7\n"),
        (("closure", z8, "--variety", exp2, "--rel", "0 1|x 2 3"),
         "error: bad partition: non-integer element 'x'\n"),
    ]
    for argv, want in cases:
        assert run_cli(*argv) == (2, "", want), argv


def test_usage_error_exits_2(files, tmp_path):
    z4 = files["cyclic_group(4)"]
    # byte 26 of the .alg and byte 2 of the .ids are 0xff, which never starts a UTF-8 sequence
    latin = tmp_path / "latin.alg"
    latin.write_bytes(b"algebra a\nsize 2\nop f 1\n0 \xff\n")
    latin_ids = tmp_path / "latin.ids"
    latin_ids.write_bytes(b"m(\xff) = e\n")
    target = str(tmp_path / "x.alg")
    # an integer token has at most 19 digits; a longer one is refused by its first 20 characters
    huge = {}
    for digits in (4000, 5000):
        huge[digits] = tmp_path / f"size{digits}.alg"
        huge[digits].write_text(f"algebra a\nsize {'9' * digits}\nop c 0\n0\n", encoding="utf-8")
    long_arity = tmp_path / "arity.alg"
    long_arity.write_text(f"algebra a\nsize 2\nop f {'1' * 5000}\n0 1\n", encoding="utf-8")
    long_entry = tmp_path / "entry.alg"
    long_entry.write_text(f"algebra a\nsize 2\nop f 1\n0 {'0' * 25}\n", encoding="utf-8")
    nines, echo = "9" * 5000, "'" + "9" * 20 + "...'"
    for argv, want in [
        (("con", str(huge[4000])), f"error: line 2: bad size {echo}\n"),
        (("con", str(huge[5000])), f"error: line 2: bad size {echo}\n"),
        (("con", str(long_arity)), f"error: line 3: bad arity '{'1' * 20}...'\n"),
        (("con", str(long_entry)), f"error: line 4: expected integer, got '{'0' * 20}...'\n"),
        (("closure", z4, "--variety", files["exp2"], "--rel", f"0 1|2 {nines}"),
         f"error: bad partition: non-integer element {echo}\n"),
        (("corpus", "dump", f"boolean_ring({nines})", target),
         f"error: bad parameter {echo} of corpus algebra 'boolean_ring'\n"),
        (("corpus", "dump", f"cyclic_group({'0' * 19}8)", target),
         f"error: bad parameter '{'0' * 19}8' of corpus algebra 'cyclic_group'\n"),
        (("corpus", "dump", "x" * 5000, target),
         f"error: unknown corpus algebra '{'x' * 20}...'\n"),
        (("con", str(latin)), f"error: {latin}: not UTF-8 text (byte 26)\n"),
        (("closure", z4, "--variety", str(latin_ids)), f"error: {latin_ids}: not UTF-8 text (byte 2)\n"),
        # a corpus carrier past the subpower engine's limit is refused before it is built
        (("corpus", "dump", "cyclic_group(256)", target),
         "error: carrier size 256 exceeds enumeration bound 255\n"),
        (("corpus", "dump", "boolean_ring(8)", target),
         "error: carrier size 256 exceeds enumeration bound 255\n"),
        # past a 64-bit word the size is refused on k and not written out in decimal
        (("corpus", "dump", "boolean_ring(20000)", target),
         "error: carrier size 2**20000 exceeds enumeration bound 255\n"),
        (("corpus", "dump", "implication_from_boolean(100000000000)", target),
         "error: carrier size 2**100000000000 exceeds enumeration bound 255\n"),
    ]:
        assert run_cli(*argv) == (2, "", want), argv
    _exits_2([
        (("con",), "required: algebra"),
        (("nonsense",), "invalid choice: 'nonsense'"),
        # bounds are checked by argparse
        (("con", z4, "--max-size", "0"), "argument --max-size: must be at least 1, got 0"),
        (("terms", z4, "--search", "hm", "--clone-cap", "2"),
         "argument --clone-cap: must be at least 3, got 2"),
        (("con", z4, "--max-size", "x"), "argument --max-size: invalid int value: 'x'"),
        (("con", z4, "--max-size", "6_4"), "argument --max-size: invalid int value: '6_4'"),
        (("con", z4, "--max-size", nines),
         f"argument --max-size: invalid int value: {echo}\n"),
        # each bound exists only on the subcommands that use it
        (("con", z4, "--clone-cap", "5"), "unrecognized arguments: --clone-cap 5"),
        (("terms", z4, "--search", "hm", "--max-size", "5"), "unrecognized arguments: --max-size"),
        (("corpus", "list", "--max-size", "3"), "unrecognized arguments: --max-size 3"),
    ])


def test_internal_errors_propagate(files, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("internal invariant failed")

    monkeypatch.setattr(goursat.cli, "con_lattice", broken)
    with pytest.raises(ValueError, match="internal invariant failed"):
        main(["con", files["cyclic_group(4)"]])


def test_kv_output_is_machine_readable(files, tmp_path):
    z4, exp2 = files["cyclic_group(4)"], files["exp2"]
    dump = str(tmp_path / "s3.alg")
    invocations = [
        ("con", z4),
        ("perm", files["klein4"]),
        ("closure", files["cyclic_group(8)"], "--variety", exp2),
        ("closure", z4, "--variety", exp2, "--rel", "0 1|2 3"),  # not a congruence
        ("axioms", z4, "--variety", exp2),
        ("dist", files["klein4"]),
        ("terms", z4, "--search", "hm"),
        ("corpus", "list"),
        ("corpus", "dump", "sym3", dump),
    ]
    outs = {}
    for argv in invocations:
        code, out, err = run_cli(*argv, "--kv")
        assert err == "", argv
        lines = out.splitlines()
        assert lines, argv
        for line in lines:
            assert re.match(r"[a-z_][a-z0-9_.]*=", line), (argv, line)
        outs[argv[:2]] = (code, lines)
    assert "congruences=3" in outs["con", z4][1]
    code, lines = outs["closure", z4]
    assert code == 1
    assert lines[0].startswith("failure=not-a-congruence: not a congruence: m on ")
    assert lines[1:] == ["status=fail"]
    assert outs["corpus", "dump"] == (0, [f"wrote={dump}"])


def test_every_subcommand_is_deterministic(files):
    battery = [
        ("con", files["klein4"]),
        ("con", files["cyclic_group(4)"], "--kv"),
        ("perm", files["klein4"]),
        ("closure", files["cyclic_group(8)"], "--variety", files["exp2"]),
        ("axioms", files["cyclic_group(4)"], "--variety", files["exp2"], "--kv"),
        ("dist", files["klein4"]),
        ("terms", files["two_elt_lattice"], "--search", "hm"),
        ("corpus", "list"),
    ]
    for args in battery:
        first = run_cli(*args)
        second = run_cli(*args)
        assert first == second, args


def test_subprocess_entry_point(files):
    cmd = [sys.executable, "-m", "goursat", "corpus", "list"]
    # the child imports the same goursat as this process, however it was found
    src = os.path.dirname(os.path.dirname(goursat.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    a = subprocess.run(cmd, capture_output=True, env=env)
    b = subprocess.run(cmd, capture_output=True, env=env)
    assert a.returncode == 0
    assert a.stdout == b.stdout


def _report_with_a_failure(algs, spec, max_size):
    """An axiom report no real input produces: axiom 2 fails, axiom 7 is not applicable."""
    entries = {key: Verdict(True) for key in AXIOM_KEYS}
    entries["2"] = Verdict(False, witness={"algebra": algs[0].name, "r": "0 2|1 3"})
    entries["7"] = Verdict(None, note="no input has a distributive congruence lattice")
    note = f"axiom 7 not checked on {algs[0].name}: an example note"
    return AxiomReport(entries, notes=[note])


def _closure_goursat_failing_on_0_2_1_3(alg, s, spec):
    """closure_goursat, except that the hypothesis breaks down on the congruence 0 2|1 3."""
    if s.to_literal() == "0 2|1 3":
        raise GoursatHypothesisError("composite r o s o r is not an equivalence relation")
    return closure_goursat(alg, s, spec)


# Complete stdout and exit code of one invocation per subcommand, human
# format first, then --kv.  Arguments naming a fixture file are replaced by
# its path.
GOLDEN = {
    "con": (("con", "cyclic_group(4)"), 0, """\
algebra cyclic_group(4)
size 4
congruences 3
  0 1 2 3
  0 2|1 3
  0|1|2|3
""", """\
algebra=cyclic_group(4)
size=4
congruences=3
con.0=0 1 2 3
con.1=0 2|1 3
con.2=0|1|2|3
"""),
    "perm": (("perm", "klein4"), 0, """\
algebra klein4
congruences 5
  pair [0 1 2 3] [0 1 2 3] level=two join-formula=pass
  pair [0 1 2 3] [0 1|2 3] level=two join-formula=pass
  pair [0 1 2 3] [0 2|1 3] level=two join-formula=pass
  pair [0 1 2 3] [0 3|1 2] level=two join-formula=pass
  pair [0 1 2 3] [0|1|2|3] level=two join-formula=pass
  pair [0 1|2 3] [0 1|2 3] level=two join-formula=pass
  pair [0 1|2 3] [0 2|1 3] level=two join-formula=pass
  pair [0 1|2 3] [0 3|1 2] level=two join-formula=pass
  pair [0 1|2 3] [0|1|2|3] level=two join-formula=pass
  pair [0 2|1 3] [0 2|1 3] level=two join-formula=pass
  pair [0 2|1 3] [0 3|1 2] level=two join-formula=pass
  pair [0 2|1 3] [0|1|2|3] level=two join-formula=pass
  pair [0 3|1 2] [0 3|1 2] level=two join-formula=pass
  pair [0 3|1 2] [0|1|2|3] level=two join-formula=pass
  pair [0|1|2|3] [0|1|2|3] level=two join-formula=pass
result PASS
""", "algebra=klein4\ncongruences=5\n" + "".join(
        f"perm.{i}.{j}=two\ngoursat_join.{i}.{j}=pass\n" for i in range(5) for j in range(i, 5)
    ) + "status=pass\n"),
    # the four-element chain reaches every level: pair (2, 5) does not 3-permute
    "perm-chain": (("perm", "chain_lattice(4)"), 1, """\
algebra chain_lattice(4)
congruences 8
  pair [0 1 2 3] [0 1 2 3] level=two join-formula=pass
  pair [0 1 2 3] [0|1 2 3] level=two join-formula=pass
  pair [0 1 2 3] [0 1|2 3] level=two join-formula=pass
  pair [0 1 2 3] [0 1 2|3] level=two join-formula=pass
  pair [0 1 2 3] [0|1|2 3] level=two join-formula=pass
  pair [0 1 2 3] [0|1 2|3] level=two join-formula=pass
  pair [0 1 2 3] [0 1|2|3] level=two join-formula=pass
  pair [0 1 2 3] [0|1|2|3] level=two join-formula=pass
  pair [0|1 2 3] [0|1 2 3] level=two join-formula=pass
  pair [0|1 2 3] [0 1|2 3] level=three join-formula=pass
  pair [0|1 2 3] [0 1 2|3] level=three join-formula=pass
  pair [0|1 2 3] [0|1|2 3] level=two join-formula=pass
  pair [0|1 2 3] [0|1 2|3] level=two join-formula=pass
  pair [0|1 2 3] [0 1|2|3] level=three join-formula=pass
  pair [0|1 2 3] [0|1|2|3] level=two join-formula=pass
  pair [0 1|2 3] [0 1|2 3] level=two join-formula=pass
  pair [0 1|2 3] [0 1 2|3] level=three join-formula=pass
  pair [0 1|2 3] [0|1|2 3] level=two join-formula=pass
  pair [0 1|2 3] [0|1 2|3] level=neither join-formula=skipped
  pair [0 1|2 3] [0 1|2|3] level=two join-formula=pass
  pair [0 1|2 3] [0|1|2|3] level=two join-formula=pass
  pair [0 1 2|3] [0 1 2|3] level=two join-formula=pass
  pair [0 1 2|3] [0|1|2 3] level=three join-formula=pass
  pair [0 1 2|3] [0|1 2|3] level=two join-formula=pass
  pair [0 1 2|3] [0 1|2|3] level=two join-formula=pass
  pair [0 1 2|3] [0|1|2|3] level=two join-formula=pass
  pair [0|1|2 3] [0|1|2 3] level=two join-formula=pass
  pair [0|1|2 3] [0|1 2|3] level=three join-formula=pass
  pair [0|1|2 3] [0 1|2|3] level=two join-formula=pass
  pair [0|1|2 3] [0|1|2|3] level=two join-formula=pass
  pair [0|1 2|3] [0|1 2|3] level=two join-formula=pass
  pair [0|1 2|3] [0 1|2|3] level=three join-formula=pass
  pair [0|1 2|3] [0|1|2|3] level=two join-formula=pass
  pair [0 1|2|3] [0 1|2|3] level=two join-formula=pass
  pair [0 1|2|3] [0|1|2|3] level=two join-formula=pass
  pair [0|1|2|3] [0|1|2|3] level=two join-formula=pass
result FAIL
""", "algebra=chain_lattice(4)\ncongruences=8\n" + "".join(
        f"perm.{i}.{j}={level}\ngoursat_join.{i}.{j}="
        f"{'skipped' if level == 'neither' else 'pass'}\n"
        for i, row in enumerate("""\
two two two two two two two two
two three three two two three two
two three two neither two two
two three two two two
two three two two
two three two
two two
two""".splitlines())
        for j, level in enumerate(row.split(), i)
    ) + "status=fail\n"),
    "closure": (("closure", "cyclic_group(8)", "--variety", "exp2", "--rel", "0 4|1 5|2 6|3 7"),
                0, """\
algebra cyclic_group(8)
variety exp2.ids
delta_bar 0 2 4 6|1 3 5 7
input 0 4|1 5|2 6|3 7
  effective 0 2 4 6|1 3 5 7
  goursat   0 2 4 6|1 3 5 7
  agree=true closed=false dense=false
result PASS
""", """\
algebra=cyclic_group(8)
variety=exp2.ids
delta_bar=0 2 4 6|1 3 5 7
closure.0.input=0 4|1 5|2 6|3 7
closure.0.effective=0 2 4 6|1 3 5 7
closure.0.goursat=0 2 4 6|1 3 5 7
closure.0.agree=true
closure.0.closed=false
closure.0.dense=false
status=pass
"""),
    "closure-violation": (("closure", "cyclic_group(4)", "--variety", "exp2"), 1, """\
algebra cyclic_group(4)
variety exp2.ids
delta_bar 0 2|1 3
input 0 1 2 3
  effective 0 1 2 3
  goursat   0 1 2 3
  agree=true closed=true dense=true
input 0 2|1 3
  effective 0 2|1 3
  goursat   violation: composite r o s o r is not an equivalence relation
  agree=false closed=true dense=false
input 0|1|2|3
  effective 0 2|1 3
  goursat   0 2|1 3
  agree=true closed=false dense=false
result FAIL
""", """\
algebra=cyclic_group(4)
variety=exp2.ids
delta_bar=0 2|1 3
closure.0.input=0 1 2 3
closure.0.effective=0 1 2 3
closure.0.goursat=0 1 2 3
closure.0.agree=true
closure.0.closed=true
closure.0.dense=true
closure.1.input=0 2|1 3
closure.1.effective=0 2|1 3
closure.1.goursat=violation: composite r o s o r is not an equivalence relation
closure.1.agree=false
closure.1.closed=true
closure.1.dense=false
closure.2.input=0|1|2|3
closure.2.effective=0 2|1 3
closure.2.goursat=0 2|1 3
closure.2.agree=true
closure.2.closed=false
closure.2.dense=false
status=fail
"""),
    # real input that refutes 3-permutability: A = ({0..3}, f = (3 0 3 2)) under f(f(x)) = x
    "closure-unary": (("closure", "unary4", "--variety", "inv", "--rel", "0|1|2 3"), 1, """\
algebra unary4
variety inv.ids
delta_bar 0 2|1 3
input 0|1|2 3
  effective 0 1 2 3
  goursat   violation: composite closures disagree: D o S o D differs from S o D o S
  agree=false closed=false dense=true
result FAIL
""", """\
algebra=unary4
variety=inv.ids
delta_bar=0 2|1 3
closure.0.input=0|1|2 3
closure.0.effective=0 1 2 3
closure.0.goursat=violation: composite closures disagree: D o S o D differs from S o D o S
closure.0.agree=false
closure.0.closed=false
closure.0.dense=true
status=fail
"""),
    "axioms": (("axioms", "heyting_chain(3)", "--variety", "boole"), 0, """\
variety boole.ids
algebras heyting_chain(3)
bounds max_carrier=64
(1) extensivity: S <= closure(S): PASS
(2) monotonicity: S <= T implies closure(S) <= closure(T): PASS
(3) closure(f^-1(S)) <= f^-1(closure(S)) for every available arrow f: PASS
(4) idempotence: closure(closure(S)) = closure(S): PASS
(5) closure(f^-1(S)) = f^-1(closure(S)) for quotient maps f: PASS
(6) f(closure(S)) = closure(f(S)) for quotient maps f: PASS
(6prime) f(closure(diagonal)) = closure(diagonal) on the target: PASS
(7) f(closure(R meet S)) = closure(f(R)) meet closure(f(S)): PASS
(additivity) closure(R join S) = closure(R) join closure(S): PASS
(image_join) f(R join S) = f(R) join f(S) for quotient maps f: PASS
result PASS
""", """\
variety=boole.ids
algebras=heyting_chain(3)
bounds.max_carrier=64
axiom.1=pass
axiom.2=pass
axiom.3=pass
axiom.4=pass
axiom.5=pass
axiom.6=pass
axiom.6prime=pass
axiom.7=pass
axiom.additivity=pass
axiom.image_join=pass
status=pass
"""),
    "axioms-failure": (("axioms", "cyclic_group(4)", "--variety", "exp2"), 1, """\
variety exp2.ids
algebras cyclic_group(4)
bounds max_carrier=64
(1) extensivity: S <= closure(S): PASS
(2) monotonicity: S <= T implies closure(S) <= closure(T): FAIL
    witness algebra=[cyclic_group(4)] r=[0 2|1 3]
(3) closure(f^-1(S)) <= f^-1(closure(S)) for every available arrow f: PASS
(4) idempotence: closure(closure(S)) = closure(S): PASS
(5) closure(f^-1(S)) = f^-1(closure(S)) for quotient maps f: PASS
(6) f(closure(S)) = closure(f(S)) for quotient maps f: PASS
(6prime) f(closure(diagonal)) = closure(diagonal) on the target: PASS
(7) f(closure(R meet S)) = closure(f(R)) meet closure(f(S)): NOT-APPLICABLE
    reason no input has a distributive congruence lattice
(additivity) closure(R join S) = closure(R) join closure(S): PASS
(image_join) f(R join S) = f(R) join f(S) for quotient maps f: PASS
note axiom 7 not checked on cyclic_group(4): an example note
result FAIL
""", """\
variety=exp2.ids
algebras=cyclic_group(4)
bounds.max_carrier=64
axiom.1=pass
axiom.2=fail
axiom.2.witness=algebra=[cyclic_group(4)] r=[0 2|1 3]
axiom.3=pass
axiom.4=pass
axiom.5=pass
axiom.6=pass
axiom.6prime=pass
axiom.7=not-applicable
axiom.additivity=pass
axiom.image_join=pass
note=axiom 7 not checked on cyclic_group(4): an example note
status=fail
"""),
    "dist": (("dist", "klein4"), 1, """\
algebra klein4
variety all
lattice distributive: fail a=[0 1|2 3] b=[0 2|1 3] c=[0 3|1 2]
image meet preservation: fail quotient=[0 3|1 2] r=[0 1|2 3] s=[0 2|1 3]
axiom (7) closed-meet image: fail quotient=[0 3|1 2] r=[0 1|2 3] s=[0 2|1 3]
closure-meet identity: not-applicable
verdicts agree: true
result FAIL
""", """\
algebra=klein4
variety=all
lattice_distributive=fail a=[0 1|2 3] b=[0 2|1 3] c=[0 3|1 2]
image_meet=fail quotient=[0 3|1 2] r=[0 1|2 3] s=[0 2|1 3]
axiom7=fail quotient=[0 3|1 2] r=[0 1|2 3] s=[0 2|1 3]
closure_meet=not-applicable
agree=true
status=fail
"""),
    "terms-hm": (("terms", "two_elt_lattice", "--search", "hm"), 1, """\
algebra two_elt_lattice
search hm
result none (fixpoint reached, 18 tables)
""", """\
algebra=two_elt_lattice
search=hm
result=none
explored=18
"""),
    "terms-maltsev": (("terms", "cyclic_group(4)", "--search", "maltsev"), 0, """\
algebra cyclic_group(4)
search maltsev
result found
  term m(i(y),m(x,z))
  explored 44 tables
""", """\
algebra=cyclic_group(4)
search=maltsev
result=found
term=m(i(y),m(x,z))
explored=44
"""),
}


@pytest.mark.parametrize("fmt", ["human", "kv"])
@pytest.mark.parametrize("case", list(GOLDEN))
def test_cli_output_is_pinned(files, monkeypatch, case, fmt):
    argv, want_code, human, kv = GOLDEN[case]
    if case == "axioms-failure":
        monkeypatch.setattr(goursat.cli, "check_axioms", _report_with_a_failure)
    if case == "closure-violation":
        monkeypatch.setattr(goursat.cli, "closure_goursat", _closure_goursat_failing_on_0_2_1_3)
    argv = [files.get(a, a) for a in argv] + (["--kv"] if fmt == "kv" else [])
    code, out, err = run_cli(*argv)
    assert (code, out, err) == (want_code, human if fmt == "human" else kv, "")
