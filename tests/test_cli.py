import contextlib
import io
import os
import subprocess
import sys

import pytest

import goursat
from goursat.algebras import save_algebra
from goursat.cli import main
from goursat.corpus import entry_by_name


def run_cli(*args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    paths = {}
    for name in ("cyclic_group(4)", "cyclic_group(8)", "klein4", "two_elt_lattice"):
        path = root / f"{name.replace('(', '_').replace(')', '')}.alg"
        save_algebra(entry_by_name(name).algebra, path)
        paths[name] = str(path)
    exp2 = root / "exp2.ids"
    exp2.write_text("# exponent two\nm(x,x) = e\n", encoding="utf-8")
    paths["exp2"] = str(exp2)
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


def test_con_respects_carrier_bound(files):
    code, _, err = run_cli("con", files["cyclic_group(8)"], "--max-size", "4")
    assert code == 2
    assert "exceeds" in err


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


def test_corpus_dump_unknown_name(files, tmp_path):
    code, _, err = run_cli("corpus", "dump", "nope(3)", str(tmp_path / "x.alg"))
    assert code == 2
    assert "error" in err


def test_parse_error_exits_2(files, tmp_path):
    bad = tmp_path / "bad.alg"
    bad.write_text("algebra broken\nsize 2\nop m 2\n0 1\n", encoding="utf-8")
    code, _, err = run_cli("con", str(bad))
    assert code == 2
    assert "error" in err


def test_usage_error_exits_2(files):
    code, _, _ = run_cli("con")
    assert code == 2
    code, _, _ = run_cli("nonsense")
    assert code == 2


def test_kv_output_is_machine_readable(files):
    code, out, _ = run_cli("con", files["cyclic_group(4)"], "--kv")
    assert code == 0
    for line in out.strip().splitlines():
        assert "=" in line
    assert "congruences=3" in out


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
