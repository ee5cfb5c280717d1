"""Built-in algebras and subvariety specs covering the standard worked examples.

Every constructor checks its defining identities on the freshly built
tables, so a corpus entry cannot silently drift from the class of
algebras it is meant to represent.  Deeper structural checks attached to
the tags (term searches, permutability landscape, distributivity) live
in verify_entry.
"""

import re
from dataclasses import dataclass

from .algebras import FiniteAlgebra
from .closure import SubvarietySpec
from .distributivity import is_distributive
from .permutability import (
    FOUND,
    NEITHER,
    NONE,
    TWO,
    find_hm_terms,
    find_maltsev_term,
    hm_chain_check,
    permutability_level,
)
from .relations import con_lattice
from .terms import Signature, parse_identities, parse_identity, satisfies_identity

GROUP_SIG = Signature({"m": 2, "i": 1, "e": 0})
RING_SIG = Signature({"add": 2, "neg": 1, "zero": 0, "mul": 2, "one": 0, "star": 1})
HEYTING_SIG = Signature({"meet": 2, "join": 2, "imp": 2, "bot": 0, "top": 0})
IMPLICATION_SIG = Signature({"imp": 2})
LATTICE_SIG = Signature({"meet": 2, "join": 2})

# The defining identities of each family, parsed once at import.
_GROUP_LAWS = parse_identities("""
m(m(x,y),z) = m(x,m(y,z))
m(e,x) = x
m(x,e) = x
m(i(x),x) = e
m(x,i(x)) = e
""", GROUP_SIG)

_RING_LAWS = parse_identities("""
add(add(x,y),z) = add(x,add(y,z))
add(x,y) = add(y,x)
add(x,zero) = x
add(x,neg(x)) = zero
mul(mul(x,y),z) = mul(x,mul(y,z))
mul(x,y) = mul(y,x)
mul(x,one) = x
mul(x,add(y,z)) = add(mul(x,y),mul(x,z))
mul(x,mul(star(x),star(x))) = star(x)
mul(mul(x,x),star(x)) = x
""", RING_SIG)

_BOOLEAN_RING_LAWS = _RING_LAWS + [parse_identity("mul(x,x) = x", RING_SIG)]

_LATTICE_LAWS = parse_identities("""
meet(x,y) = meet(y,x)
join(x,y) = join(y,x)
meet(meet(x,y),z) = meet(x,meet(y,z))
join(join(x,y),z) = join(x,join(y,z))
meet(x,join(x,y)) = x
join(x,meet(x,y)) = x
meet(x,x) = x
join(x,x) = x
""", LATTICE_SIG)

_HEYTING_LAWS = _LATTICE_LAWS + parse_identities("""
meet(x,join(y,z)) = join(meet(x,y),meet(x,z))
meet(x,bot) = bot
join(x,bot) = x
meet(x,top) = x
join(x,top) = top
join(x,meet(imp(y,x),y)) = x
meet(x,imp(y,meet(x,y))) = x
""", HEYTING_SIG)

_IMPLICATION_LAWS = parse_identities("""
imp(imp(x,y),y) = imp(imp(y,x),x)
imp(imp(x,y),x) = x
imp(x,imp(y,z)) = imp(y,imp(x,z))
""", IMPLICATION_SIG)

# Named subvariety specs with the operation symbols each one needs; an
# undeclared symbol would silently parse as a variable, so applicability
# is decided on the required symbols, not on parse success.
_SPEC_SOURCES = {
    "trivial": ({}, ("x = y",)),
    "all": ({}, ()),
    "abelian-group": ({"m": 2}, ("m(x,y) = m(y,x)",)),
    "exponent-2": ({"m": 2, "e": 0}, ("m(x,x) = e",)),
    "boolean-from-heyting": ({"imp": 2, "bot": 0}, ("imp(imp(x,bot),bot) = x",)),
    "idempotent-ring": ({"mul": 2}, ("mul(x,x) = x",)),
}


def corpus_specs(sig):
    """The named specs whose operation symbols all live in this signature."""
    out = []
    for name, (required, sources) in _SPEC_SOURCES.items():
        if any(sym not in sig or sig.arity(sym) != arity for sym, arity in required.items()):
            continue
        idents = tuple(parse_identity(text, sig) for text in sources)
        out.append(SubvarietySpec(sig, idents, name=name))
    return out


def spec_by_name(name, sig):
    for spec in corpus_specs(sig):
        if spec.name == name:
            return spec
    raise KeyError(f"no spec named {name!r} for this signature")


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    algebra: FiniteAlgebra
    tags: tuple
    spec_names: tuple


def _checked(alg, laws):
    for ident in laws:
        verdict = satisfies_identity(alg, ident)
        if not verdict:
            raise ValueError(
                f"corpus algebra {alg.name!r} violates {ident.render()} at {verdict.witness}"
            )
    return alg


def cyclic_group(n):
    if n < 1:
        raise ValueError("group order must be positive")
    alg = FiniteAlgebra.from_functions(
        GROUP_SIG,
        n,
        {"m": lambda a, b: (a + b) % n, "i": lambda a: (-a) % n, "e": lambda: 0},
        name=f"cyclic_group({n})",
    )
    return _checked(alg, _GROUP_LAWS)


def klein4():
    alg = FiniteAlgebra.from_functions(
        GROUP_SIG,
        4,
        {"m": lambda a, b: a ^ b, "i": lambda a: a, "e": lambda: 0},
        name="klein4",
    )
    return _checked(alg, _GROUP_LAWS)


def sym3():
    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    index = {p: i for i, p in enumerate(perms)}

    def mul(a, b):
        ga, gb = perms[a], perms[b]
        return index[tuple(ga[gb[x]] for x in range(3))]

    def inv(a):
        ga = perms[a]
        out = [0, 0, 0]
        for x in range(3):
            out[ga[x]] = x
        return index[tuple(out)]

    alg = FiniteAlgebra.from_functions(
        GROUP_SIG, 6, {"m": mul, "i": inv, "e": lambda: 0}, name="sym3"
    )
    return _checked(alg, _GROUP_LAWS)


def boolean_ring(k):
    if k < 1:
        raise ValueError("boolean_ring needs at least one atom")
    n = 1 << k
    alg = FiniteAlgebra.from_functions(
        RING_SIG,
        n,
        {
            "add": lambda a, b: a ^ b,
            "neg": lambda a: a,
            "zero": lambda: 0,
            "mul": lambda a, b: a & b,
            "one": lambda: n - 1,
            "star": lambda a: a,
        },
        name=f"boolean_ring({k})",
    )
    return _checked(alg, _BOOLEAN_RING_LAWS)


def zmod_vnr(n):
    """Z/n with the unique von Neumann pseudo-inverse; needs squarefree n."""
    if n < 1:
        raise ValueError("modulus must be positive")
    star = []
    for a in range(n):
        candidates = [
            x for x in range(n) if (a * x * x) % n == x and (a * a * x) % n == a
        ]
        if len(candidates) != 1:
            raise ValueError(
                f"no von Neumann regular structure on Z/{n}: element {a} has "
                f"{len(candidates)} pseudo-inverses (modulus must be squarefree)"
            )
        star.append(candidates[0])
    alg = FiniteAlgebra.from_functions(
        RING_SIG,
        n,
        {
            "add": lambda a, b: (a + b) % n,
            "neg": lambda a: (-a) % n,
            "zero": lambda: 0,
            "mul": lambda a, b: (a * b) % n,
            "one": lambda: 1 % n,
            "star": lambda a: star[a],
        },
        name=f"zmod_vnr({n})",
    )
    return _checked(alg, _RING_LAWS)


def heyting_chain(k):
    if k < 2:
        raise ValueError("heyting_chain needs at least two elements")
    top = k - 1
    alg = FiniteAlgebra.from_functions(
        HEYTING_SIG,
        k,
        {
            "meet": min,
            "join": max,
            "imp": lambda a, b: top if a <= b else b,
            "bot": lambda: 0,
            "top": lambda: top,
        },
        name=f"heyting_chain({k})",
    )
    return _checked(alg, _HEYTING_LAWS)


def implication_from_boolean(k):
    """The implication reduct of the boolean algebra with k atoms."""
    if k < 1:
        raise ValueError("implication_from_boolean needs at least one atom")
    n = 1 << k
    mask = n - 1
    alg = FiniteAlgebra.from_functions(
        IMPLICATION_SIG,
        n,
        {"imp": lambda a, b: (a ^ mask) | b},
        name=f"implication_from_boolean({k})",
    )
    return _checked(alg, _IMPLICATION_LAWS)


def two_elt_lattice():
    alg = FiniteAlgebra.from_functions(
        LATTICE_SIG, 2, {"meet": min, "join": max}, name="two_elt_lattice"
    )
    return _checked(alg, _LATTICE_LAWS)


_BUILDERS = {
    "cyclic_group": (cyclic_group, 1, ("maltsev", "distributive")),
    "klein4": (klein4, 0, ("maltsev", "nondistributive")),
    "sym3": (sym3, 0, ("maltsev", "distributive")),
    "boolean_ring": (boolean_ring, 1, ("maltsev", "distributive")),
    "zmod_vnr": (zmod_vnr, 1, ("maltsev", "distributive")),
    "heyting_chain": (heyting_chain, 1, ("maltsev", "distributive")),
    "implication_from_boolean": (implication_from_boolean, 1, ("goursat", "distributive")),
    "two_elt_lattice": (two_elt_lattice, 0, ("neither", "distributive")),
}


def builtin(name, *params):
    """Construct a named corpus entry; identities are checked on the tables."""
    if name not in _BUILDERS:
        raise KeyError(f"unknown corpus algebra {name!r}")
    fn, nparams, tags = _BUILDERS[name]
    if len(params) != nparams:
        raise ValueError(f"{name} takes {nparams} parameter(s), got {len(params)}")
    alg = fn(*params)
    spec_names = tuple(spec.name for spec in corpus_specs(alg.sig))
    return CorpusEntry(
        name=alg.name,
        algebra=alg,
        tags=tags,
        spec_names=spec_names,
    )


_NAME_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)(?:\(([0-9]+)\))?$")


def entry_by_name(text):
    """Resolve names like ``cyclic_group(4)`` or ``klein4``."""
    m = _NAME_RE.match(text.strip())
    if not m:
        raise KeyError(f"bad corpus name {text!r}")
    name, param = m.groups()
    params = (int(param),) if param is not None else ()
    return builtin(name, *params)


DEFAULT_NAMES = (
    "cyclic_group(2)",
    "cyclic_group(4)",
    "cyclic_group(8)",
    "klein4",
    "sym3",
    "boolean_ring(1)",
    "boolean_ring(2)",
    "boolean_ring(3)",
    "zmod_vnr(6)",
    "heyting_chain(2)",
    "heyting_chain(3)",
    "heyting_chain(4)",
    "implication_from_boolean(1)",
    "implication_from_boolean(2)",
    "two_elt_lattice",
)


def default_entries():
    return [entry_by_name(name) for name in DEFAULT_NAMES]


@dataclass
class EntryCheck:
    problems: list
    notes: list

    @property
    def ok(self):
        return not self.problems


def verify_entry(entry):
    """Run the structural checks promised by an entry's tags.

    A witness that a tag's search finds is re-checked by ``hm_chain_check``,
    and a failure names its first failing (link, x, y).
    """
    alg = entry.algebra
    problems, notes = [], []
    lat = con_lattice(alg)
    cons = lat.congruences
    levels = {}
    for i in range(len(cons)):
        for j in range(i, len(cons)):
            levels[(i, j)] = permutability_level(alg, cons[i], cons[j])

    if "maltsev" in entry.tags:
        outcome = find_maltsev_term(alg)
        if outcome.status != FOUND:
            problems.append(f"maltsev tag: term search returned {outcome.status}")
        elif not (check := hm_chain_check(alg, (outcome.witness.term,))):
            problems.append(f"maltsev tag: re-check fails at (link, x, y) = {check.witness}")
        if any(level != TWO for level in levels.values()):
            problems.append("maltsev tag: some congruence pair does not 2-permute")

    if "goursat" in entry.tags:
        outcome = find_hm_terms(alg)
        if outcome.status != FOUND:
            problems.append(f"goursat tag: two-term search returned {outcome.status}")
        elif not (check := hm_chain_check(alg, tuple(w.term for w in outcome.witness))):
            problems.append(f"goursat tag: re-check fails at (link, x, y) = {check.witness}")
        for (i, j), level in levels.items():
            if level == NEITHER:
                problems.append(
                    "goursat tag: triple composites differ for "
                    f"{cons[i].to_literal()} and {cons[j].to_literal()}"
                )
        if all(level == TWO for level in levels.values()):
            notes.append("vacuous: every congruence pair 2-permutes on this instance")

    if "neither" in entry.tags:
        m = find_maltsev_term(alg)
        h = find_hm_terms(alg)
        if m.status != NONE:
            problems.append(f"neither tag: one-term search returned {m.status}")
        if h.status != NONE:
            problems.append(f"neither tag: two-term search returned {h.status}")

    if "distributive" in entry.tags and not is_distributive(lat):
        problems.append("distributive tag: congruence lattice is not distributive")
    if "nondistributive" in entry.tags and is_distributive(lat):
        problems.append("nondistributive tag: congruence lattice is distributive")

    return EntryCheck(problems=problems, notes=notes)
