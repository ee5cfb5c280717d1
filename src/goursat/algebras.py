"""Finite algebras as operation tables, with products, quotients and subuniverses.

Elements are 0..n-1.  The table of a k-ary symbol is a read-only intp
array with k axes, one per argument, and the package reads it by those
axes: on arrays of arguments, or on one point list along every axis
through ``relations._restrict``.  The flat view, ``tables``, lists the
entries in row-major order, the last argument varying fastest; it is
kept for readers outside the package.
Product carriers use mixed-radix encoding with the leftmost factor most
significant; the same convention fixes the .alg file layout.
"""

from functools import cached_property
from itertools import product as iproduct

import numpy as np

from .errors import ParseError, SignatureMismatchError
from .relations import (
    Partition, _index, _indices, _integer_token, _join_closure, _restrict, require_congruence,
)
from .terms import Signature, _read_text


class FiniteAlgebra:
    """A finite algebra given by its operation tables.

    The constructor reads the size and validates flat tables once, each
    entry by ``relations._index`` as ``apply`` reads its arguments, and
    stores each as a read-only intp array; quotient, subalgebra and product
    build arrays and skip validation through ``_trusted``.  An algebra
    is immutable once built.  Every cached result is read through
    ``_cached``, which looks its key up in one of two scopes and builds
    and stores it on a miss.  Results that depend on the tables alone
    live in the family scope, ``_memo``: "translations", "proved
    congruences", "con", "subuniverses", "clone_orbits" and ("birkhoff",
    spec key).  Results that carry this instance or its name live in the
    instance scope, ``_own``: ("quotient", labels), ("subalgebra",
    elements), ("projections", factors) and ("join", r, s).

    Each algebra built here is the root of a family: a dict from the
    structure key to one memo.  quotient, subalgebra and product (which
    joins its first factor's family) add what they build to the family of
    their input, and a member whose tables equal an earlier member's
    takes that member's ``_memo``.  So A/psi and (A/theta)/phi with
    phi = q_theta(psi), whose canonical tables coincide, share Con,
    translations and verbal congruences but keep their own names.
    Separately built roots share nothing.
    """

    def __init__(self, sig, n, tables, name=""):
        n = _index(n, what="size")
        if n < 1:
            raise ValueError("carrier must be nonempty")
        if set(tables) != set(sig.ops):
            raise ValueError("tables must cover exactly the declared symbols")
        arrays = {}
        for sym, arity in sig:
            try:
                table = _indices(tables[sym], n, "entry")
            except ValueError as exc:
                raise ValueError(f"table for {sym!r}: {exc}") from None
            if len(table) != n**arity:
                raise ValueError(
                    f"table for {sym!r} has {len(table)} entries, expected {n**arity}"
                )
            arrays[sym] = np.array(table, dtype=np.intp).reshape((n,) * arity)
        self._set(sig, n, arrays, name)

    @classmethod
    def _trusted(cls, sig, n, arrays, name, family):
        """An algebra on arrays already known to be valid tables, entered into family."""
        alg = cls.__new__(cls)
        alg._set(sig, n, arrays, name)
        alg._join(family)
        return alg

    def _set(self, sig, n, arrays, name):
        for sym, table in arrays.items():
            # a nullary gather comes back as a numpy scalar
            table = arrays[sym] = np.asarray(table, dtype=np.intp)
            table.flags.writeable = False
        self.sig = sig
        self.n = n
        self._arrays = arrays
        self.name = name
        self._own = {}
        self._memo = {}
        self._family = {self.structure_key(): self._memo}

    def _join(self, family):
        """Enter family, taking the memo of an equal member when there is one."""
        self._family = family
        self._memo = family.setdefault(self.structure_key(), self._memo)

    def _cached(self, key, build, *args, own=False):
        """The result stored under key, built by build(*args) on a miss.

        The instance scope when own, else the family scope.  A build that
        raises stores nothing, so its checks run again on the next call.
        """
        memo = self._own if own else self._memo
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = build(*args)
        return hit

    @classmethod
    def from_functions(cls, sig, n, funcs, name=""):
        tables = {}
        for sym, arity in sig:
            fn = funcs[sym]
            tables[sym] = tuple(
                fn(*args) for args in iproduct(range(n), repeat=arity)
            )
        return cls(sig, n, tables, name=name)

    @cached_property
    def tables(self):
        """Each table as a flat tuple in row-major order, for readers outside the package.

        Nothing in the package reads it: tables are read by their axes,
        through ``table_array``.
        """
        return {sym: tuple(table.ravel().tolist()) for sym, table in self._arrays.items()}

    def apply(self, sym, args):
        table = self._arrays[sym]
        return int(table[tuple(_indices(args, self.n, "argument", table.ndim))])

    def table_array(self, sym):
        """The table of sym as a read-only intp array with one axis per argument."""
        return self._arrays[sym]

    def structure_key(self):
        return (self.n, self.sig.key(),
                tuple(sorted((s, t.tobytes()) for s, t in self._arrays.items())))

    def __eq__(self, other):
        return isinstance(other, FiniteAlgebra) and self.structure_key() == other.structure_key()

    def __hash__(self):
        return hash(self.structure_key())

    def __repr__(self):
        label = self.name or "?"
        return f"FiniteAlgebra({label}, n={self.n}, sig={self.sig!r})"


def _digits(sizes):
    """Row i holds the i-th component of every product element, in encoding order."""
    return np.indices(sizes, dtype=np.intp).reshape(len(sizes), -1)


def product(algs, sig=None):
    """Direct product, in the first factor's family; empty input yields the one-element algebra."""
    if algs:
        sig = algs[0].sig
        for a in algs[1:]:
            if a.sig != sig:
                raise SignatureMismatchError("product factors must share one signature")
    elif sig is None:
        sig = Signature({})
    if not algs:
        arrays = {sym: np.zeros((1,) * arity, dtype=np.intp) for sym, arity in sig}
        return FiniteAlgebra._trusted(sig, 1, arrays, "1", {})
    digits = _digits([a.n for a in algs])
    arrays = {}
    for sym, _ in sig:
        table = 0
        for alg, d in zip(algs, digits):
            table = table * alg.n + _restrict(alg.table_array(sym), d)
        arrays[sym] = table
    name = "x".join(a.name or "?" for a in algs)
    return FiniteAlgebra._trusted(sig, digits.shape[1], arrays, name, algs[0]._family)


class QuotientMap:
    """A surjection onto a quotient, carrying its kernel congruence.

    Every surjective homomorphism factors as a quotient followed by an
    isomorphism, so these canonical maps stand in for all regular
    epimorphisms in the checks that quantify over them.  The constructor
    reads the mapping by ``relations._indices`` and checks that it is
    onto, that its fibres are the kernel's blocks and that it is a
    homomorphism.
    """

    def __init__(self, source, kernel, target, mapping):
        mapping = tuple(_indices(mapping, None))
        if len(mapping) != source.n:
            raise ValueError("mapping must be defined on the whole source")
        if set(mapping) != set(range(target.n)):
            raise ValueError("mapping must be onto the target carrier")
        if kernel.n != source.n:
            raise ValueError("kernel must live on the source carrier")
        if Partition.from_labels(source.n, mapping) != kernel:
            raise ValueError("mapping fibers do not match the kernel blocks")
        if source.sig != target.sig:
            raise SignatureMismatchError("source and target signatures differ")
        m = np.asarray(mapping, dtype=np.intp)
        for sym, _ in source.sig:
            image = _restrict(target.table_array(sym), m)
            bad = np.argwhere(image != m[source.table_array(sym)])
            if len(bad):
                args = tuple(bad[0].tolist())
                raise ValueError(f"mapping is not a homomorphism at {sym!r}{args}")
        self._set(source, kernel, target, mapping)

    def _set(self, source, kernel, target, mapping):
        self.source = source
        self.kernel = kernel
        self.target = target
        self.mapping = mapping

    def __repr__(self):
        return f"QuotientMap({self.source!r} -> {self.target!r})"


def quotient(alg, theta):
    """Canonical quotient by a congruence; block i of theta is element i.

    theta is proved a congruence by require_congruence, once per table
    family, which refuses with the is_congruence witness.  The map is the
    label vector of theta and the target's tables are built from it, so the
    map's fibres are theta's blocks and it is a homomorphism by
    construction; it is not re-checked.  The map is cached per instance
    by theta's label vector; the target joins alg's family.
    """
    return alg._cached(("quotient", theta.index_of), _quotient_map, alg, theta, own=True)


def _quotient_map(alg, theta):
    """The quotient map by theta, built on a miss of ``quotient``'s cache."""
    require_congruence(alg, theta)
    reps = np.asarray([blk[0] for blk in theta.blocks], dtype=np.intp)
    index = np.asarray(theta.index_of, dtype=np.intp)
    arrays = {sym: index[_restrict(alg.table_array(sym), reps)] for sym, _ in alg.sig}
    name = f"{alg.name or '?'}/{theta.to_literal()}"
    target = FiniteAlgebra._trusted(alg.sig, len(reps), arrays, name, alg._family)
    qm = QuotientMap.__new__(QuotientMap)
    qm._set(alg, theta, target, theta.index_of)
    return qm


def projections(factors):
    """Product of the factors together with its projection quotient maps.

    Each map reads one coordinate of the product's encoding, so it is a
    homomorphism by construction and is not re-checked.  Cached per
    instance of the first factor, keyed by the structure and the name of
    every other factor (the names make up the product's name).  No
    factors give the one-element algebra and no maps.
    """
    if not factors:
        return product([]), []
    key = ("projections",) + tuple((a.structure_key(), a.name) for a in factors[1:])
    return factors[0]._cached(key, _product_maps, factors, own=True)


def _product_maps(factors):
    """The product and its projections, built on a miss of ``projections``' cache."""
    prod = product(factors)
    maps = []
    for alg, d in zip(factors, _digits([a.n for a in factors])):
        mapping = tuple(d.tolist())
        qm = QuotientMap.__new__(QuotientMap)
        qm._set(prod, Partition.from_labels(prod.n, mapping), alg, mapping)
        maps.append(qm)
    return prod, maps


def generate_subuniverse(alg, seed):
    """Least subset containing the seed and all nullary values, closed under ops.

    Each step applies every operation, a constant included, to all
    argument tuples from the current set in one table gather (a nullary
    table is indexed by ``()``), until no step adds an element.  With no
    nullary operation an empty seed yields the empty set.
    """
    member = np.zeros(alg.n, dtype=bool)
    member[_indices(seed, alg.n, "seed element")] = True
    tables = [alg.table_array(sym) for sym, _ in alg.sig]
    elems = np.flatnonzero(member)
    while True:
        for table in tables:
            member[_restrict(table, elems)] = True
        grown = np.flatnonzero(member)
        if len(grown) == len(elems):
            return frozenset(elems.tolist())
        elems = grown


def subalgebra(alg, universe):
    """Restrict to a closed subset; returns the subalgebra and its embedding.

    Cached per instance by the sorted subset once it proves closed; the
    subalgebra joins alg's family.
    """
    embed = tuple(sorted(set(_indices(universe, alg.n, "universe element"))))
    return alg._cached(("subalgebra", embed), _subalgebra, alg, embed, own=True)


def _subalgebra(alg, embed):
    """The pair (subalgebra on embed, embed), built on a miss of ``subalgebra``'s cache."""
    points = np.asarray(embed, dtype=np.intp)
    back = np.full(alg.n, -1, dtype=np.intp)
    back[points] = np.arange(len(embed))
    arrays = {}
    for sym, _ in alg.sig:
        table = back[_restrict(alg.table_array(sym), points)]
        bad = np.argwhere(table < 0)
        if len(bad):
            args = tuple(points[bad[0]].tolist())
            raise ValueError(f"subset not closed under {sym!r} at {args}")
        arrays[sym] = table
    # after the scan, so that a nullary value outside the empty set is named first
    if not embed:
        raise ValueError("carrier must be nonempty")
    name = f"{alg.name or '?'}|{{{' '.join(map(str, embed))}}}"
    return FiniteAlgebra._trusted(alg.sig, len(embed), arrays, name, alg._family), embed


_EXHAUSTIVE_LIMIT = 10


def all_subuniverses(alg):
    """Distinct nonempty subuniverses, all of them for small carriers.

    Every subuniverse is the join Sg(U | V) of the subuniverses generated
    by its elements, so up to _EXHAUSTIVE_LIMIT elements
    ``relations._join_closure`` closes the ones generated by at most one
    element under joins with those: U when V lies in U, else Sg(U | V).
    Beyond it only subuniverses generated by at most two elements are
    enumerated (enough for the arrow sweeps that use this).  Sorted by
    size, then elements.  Cached per table family; each call returns a
    fresh list.
    """
    return list(alg._cached("subuniverses", _subuniverses, alg))


def _subuniverses(alg):
    """The sorted subuniverses, built on a miss of ``all_subuniverses``' cache."""
    n = alg.n
    seeds = [[]] + [[x] for x in range(n)]
    if n > _EXHAUSTIVE_LIMIT:
        seeds += [[x, y] for x in range(n) for y in range(x + 1, n)]
    found = {}
    for seed in seeds:
        sub = generate_subuniverse(alg, seed)
        if sub:
            found.setdefault(tuple(sorted(sub)), sub)
    if n <= _EXHAUSTIVE_LIMIT:
        _join_closure(found, lambda u, v: u if v <= u else generate_subuniverse(alg, u | v),
                      lambda u: tuple(sorted(u)))
    return [found[k] for k in sorted(found, key=lambda t: (len(t), t))]


def parse_algebra(text):
    """Parse the line-based .alg format."""
    lines = text.splitlines()
    pos = 0

    def next_content():
        nonlocal pos
        while pos < len(lines):
            stripped = lines[pos].strip()
            pos += 1
            if stripped:
                return stripped, pos
        return None, pos

    line, lineno = next_content()
    if line is None or line.split()[0] != "algebra":
        raise ParseError("expected 'algebra NAME' header", line=lineno)
    name = line[len("algebra"):].strip()
    if not name:
        raise ParseError("algebra name missing", line=lineno)

    line, lineno = next_content()
    parts = line.split() if line else []
    if len(parts) != 2 or parts[0] != "size":
        raise ParseError("expected 'size N'", line=lineno)
    n = _integer_token(parts[1])
    if isinstance(n, str):
        raise ParseError(f"bad size {parts[1]!r}", line=lineno)
    if n < 1:
        raise ParseError("size must be at least 1", line=lineno)

    ops = {}
    tables = {}
    while True:
        line, lineno = next_content()
        if line is None:
            break
        parts = line.split()
        if parts[0] != "op":
            raise ParseError(f"expected 'op SYMBOL ARITY', got {line!r}", line=lineno)
        if len(parts) < 3:
            raise ParseError("op line needs a symbol and an arity", line=lineno)
        sym = parts[1]
        arity = _integer_token(parts[2])
        if isinstance(arity, str):
            raise ParseError(f"bad arity {parts[2]!r}", line=lineno)
        try:
            Signature({sym: arity})
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from None
        if sym in ops:
            raise ParseError(f"duplicate operation {sym!r}", line=lineno)
        need = n**arity
        values = [_entry(tok, n, sym, lineno) for tok in parts[3:]]
        while len(values) < need:
            line, lineno = next_content()
            if line is None:
                raise ParseError(
                    f"table for {sym!r} ended early ({len(values)}/{need} entries)",
                    line=lineno,
                )
            values += [_entry(tok, n, sym, lineno) for tok in line.split()]
        if len(values) > need:
            raise ParseError(f"table for {sym!r} has extra entries", line=lineno)
        ops[sym] = arity
        tables[sym] = tuple(values)

    return FiniteAlgebra(Signature(ops), n, tables, name=name)


def _entry(tok, n, sym, lineno):
    """The table entry that tok spells, read by ``relations._index``; refused with its line."""
    value = _integer_token(tok)
    if isinstance(value, str):
        raise ParseError(f"expected integer, got {tok!r}", line=lineno)
    try:
        return _index(value, n, "entry")
    except ValueError as exc:
        raise ParseError(f"table for {sym!r}: {exc}", line=lineno) from None


def format_algebra(alg):
    """Serialize to the .alg format, one line per row of the last argument axis."""
    out = [f"algebra {alg.name or 'unnamed'}", f"size {alg.n}"]
    for sym, arity in alg.sig:
        out.append(f"op {sym} {arity}")
        # a constant is one row of one entry
        table = np.atleast_1d(alg.table_array(sym))
        out += [" ".join(map(str, row)) for row in table.reshape(-1, table.shape[-1]).tolist()]
    return "\n".join(out) + "\n"


def load_algebra(path):
    return parse_algebra(_read_text(path))


def save_algebra(alg, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_algebra(alg))
