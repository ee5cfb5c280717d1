"""Every name imported by a package module or a test module is used in it, and a run
imports no numpy module that loading goursat did not."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = [
    path
    for folder in (ROOT / "src" / "goursat", ROOT / "tests")
    for path in sorted(folder.glob("*.py"))
    if path.name != "__init__.py"
]


def unused_imports(source):
    """Names bound by import statements in source that no expression reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            bound.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - used)


def test_unused_imports_sees_plain_dotted_and_from_imports():
    source = "import os\nimport a.b\nfrom c import d, e as f\na.b.g(d)\n"
    assert unused_imports(source) == ["f", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


# Runs every library entry point and every subcommand in one fresh interpreter and
# prints the numpy modules they import after goursat itself is loaded.  numpy >= 2.3
# imports numpy.ma lazily in np.unique without index outputs, about 15 ms, paid
# inside the first congruence lattice of a run; stdlib modules (argparse's gettext
# imports locale) are not counted.
_FRESH_RUN = """
import contextlib, io, os, sys
import goursat, goursat.cli
from goursat import (
    Partition, builtin, check_axioms, closure_effective, closure_goursat, con_lattice,
    dist_report, find_hm_terms, find_maltsev_term,
)
from goursat.corpus import spec_by_name

before = set(sys.modules)
k4, z4 = builtin("klein4").algebra, builtin("cyclic_group", 4).algebra
exp2 = spec_by_name("exponent-2", z4.sig)
con_lattice(k4)
check_axioms([z4], exp2)
dist_report(k4)
closure_effective(z4, Partition.from_literal("0 2|1 3", 4), exp2)
closure_goursat(z4, Partition.from_literal("0 2|1 3", 4), exp2)
find_maltsev_term(builtin("cyclic_group", 3).algebra)
find_hm_terms(builtin("implication_from_boolean", 1).algebra)
os.chdir(sys.argv[1])
with open("triv.ids", "w") as fh:
    fh.write("x = y\\n")
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["corpus", "list"], ["corpus", "dump", "klein4", "k4.alg"], ["con", "k4.alg"],
                 ["perm", "k4.alg"], ["closure", "k4.alg", "--variety", "triv.ids"],
                 ["axioms", "k4.alg", "--variety", "triv.ids"], ["dist", "k4.alg"],
                 ["terms", "k4.alg", "--search", "maltsev"], ["terms", "k4.alg", "--search", "hm"]):
        codes.append(goursat.cli.main(argv))
print(codes)
print(sorted(name for name in set(sys.modules) - before if name.split(".")[0] == "numpy"))
"""


def test_no_run_imports_a_numpy_module_after_goursat(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", _FRESH_RUN, str(tmp_path)],
                         capture_output=True, text=True, env=env, check=True)
    codes, added = run.stdout.splitlines()
    # Con(klein4) is M3, so dist exits 1; every other run exits 0
    assert codes == "[0, 0, 0, 0, 0, 0, 1, 0, 0]"
    assert added == "[]"
