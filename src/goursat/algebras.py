"""Finite algebras as operation tables, with products, quotients and subuniverses.

Elements are 0..n-1.  A table for a k-ary symbol is a flat tuple of length
n**k in row-major order, the last argument varying fastest.  Product
carriers use mixed-radix encoding with the leftmost factor most
significant; the same convention fixes the .alg file layout.
"""

from itertools import product as iproduct

from .errors import ParseError, SignatureMismatchError
from .relations import Partition, require_congruence
from .terms import Signature


class FiniteAlgebra:
    """A finite algebra given by its operation tables.

    An algebra is treated as immutable once built.  Its congruence
    lattice, its quotients and its verbal congruences are memoised per
    instance, so two equal algebras built separately share no results.
    """

    def __init__(self, sig, n, tables, name=""):
        if n < 1:
            raise ValueError("carrier must be nonempty")
        if set(tables) != set(sig.ops):
            raise ValueError("tables must cover exactly the declared symbols")
        clean = {}
        for sym, arity in sig:
            table = tuple(tables[sym])
            if len(table) != n**arity:
                raise ValueError(
                    f"table for {sym!r} has {len(table)} entries, expected {n**arity}"
                )
            for v in table:
                if not 0 <= v < n:
                    raise ValueError(f"table for {sym!r} has out-of-range entry {v}")
            clean[sym] = table
        self.sig = sig
        self.n = n
        self.tables = clean
        self.name = name
        self._memo = {}

    @classmethod
    def from_functions(cls, sig, n, funcs, name=""):
        tables = {}
        for sym, arity in sig:
            fn = funcs[sym]
            tables[sym] = tuple(
                fn(*args) for args in iproduct(range(n), repeat=arity)
            )
        return cls(sig, n, tables, name=name)

    def apply(self, sym, args):
        idx = 0
        for a in args:
            idx = idx * self.n + a
        return self.tables[sym][idx]

    def structure_key(self):
        return (self.n, tuple(sorted((s, a) for s, a in self.sig)),
                tuple(sorted(self.tables.items())))

    def __eq__(self, other):
        return (
            isinstance(other, FiniteAlgebra)
            and self.n == other.n
            and self.sig == other.sig
            and self.tables == other.tables
        )

    def __hash__(self):
        return hash(self.structure_key())

    def __repr__(self):
        label = self.name or "?"
        return f"FiniteAlgebra({label}, n={self.n}, sig={self.sig!r})"


def product_encode(sizes, components):
    x = 0
    for size, c in zip(sizes, components):
        x = x * size + c
    return x


def product_decode(sizes, x):
    out = []
    for size in reversed(sizes):
        out.append(x % size)
        x //= size
    return tuple(reversed(out))


def product(algs, sig=None):
    """Direct product; empty input yields the one-element algebra."""
    if algs:
        sig = algs[0].sig
        for a in algs[1:]:
            if a.sig != sig:
                raise SignatureMismatchError("product factors must share one signature")
    elif sig is None:
        sig = Signature({})
    if not algs:
        tables = {sym: (0,) * (1**arity) for sym, arity in sig}
        return FiniteAlgebra(sig, 1, tables, name="1")
    sizes = [a.n for a in algs]
    n = 1
    for size in sizes:
        n *= size
    tables = {}
    for sym, arity in sig:
        table = []
        for args in iproduct(range(n), repeat=arity):
            decoded = [product_decode(sizes, a) for a in args]
            comps = tuple(
                alg.apply(sym, tuple(d[i] for d in decoded))
                for i, alg in enumerate(algs)
            )
            table.append(product_encode(sizes, comps))
        tables[sym] = tuple(table)
    name = "x".join(a.name or "?" for a in algs)
    return FiniteAlgebra(sig, n, tables, name=name)


class QuotientMap:
    """A surjection onto a quotient, carrying its kernel congruence.

    Every surjective homomorphism factors as a quotient followed by an
    isomorphism, so these canonical maps stand in for all regular
    epimorphisms in the checks that quantify over them.
    """

    def __init__(self, source, kernel, target, mapping):
        mapping = tuple(mapping)
        if len(mapping) != source.n:
            raise ValueError("mapping must be defined on the whole source")
        if set(mapping) != set(range(target.n)):
            raise ValueError("mapping must be onto the target carrier")
        if kernel.n != source.n:
            raise ValueError("kernel must live on the source carrier")
        for a in range(source.n):
            for b in range(a + 1, source.n):
                if (mapping[a] == mapping[b]) != kernel.relates(a, b):
                    raise ValueError("mapping fibers do not match the kernel blocks")
        if source.sig != target.sig:
            raise SignatureMismatchError("source and target signatures differ")
        for sym, arity in source.sig:
            for args in iproduct(range(source.n), repeat=arity):
                image = target.apply(sym, tuple(mapping[a] for a in args))
                if image != mapping[source.apply(sym, args)]:
                    raise ValueError(f"mapping is not a homomorphism at {sym!r}{args}")
        self.source = source
        self.kernel = kernel
        self.target = target
        self.mapping = mapping

    def apply(self, a):
        return self.mapping[a]

    def __repr__(self):
        return f"QuotientMap({self.source!r} -> {self.target!r})"


def quotient(alg, theta):
    """Canonical quotient by a congruence; blocks indexed by ascending minimum.

    Memoised per algebra by the blocks of theta once theta is proved a
    congruence and the map a homomorphism; a non-congruence is refused on
    every call.
    """
    key = ("quotient", theta.blocks)
    hit = alg._memo.get(key)
    if hit is not None:
        return hit
    require_congruence(alg, theta)
    reps = [blk[0] for blk in theta.blocks]
    k = len(reps)
    tables = {}
    for sym, arity in alg.sig:
        tables[sym] = tuple(
            theta.index_of[alg.apply(sym, tuple(reps[b] for b in blocks))]
            for blocks in iproduct(range(k), repeat=arity)
        )
    name = f"{alg.name or '?'}/{theta.to_literal()}"
    target = FiniteAlgebra(alg.sig, k, tables, name=name)
    qm = alg._memo[key] = QuotientMap(alg, theta, target, theta.index_of)
    return qm


def kernel_pair(f):
    """Partition of the source into preimage classes of a quotient map."""
    return Partition.from_labels(f.source.n, f.mapping)


def factor_through(q1, q2):
    """The induced map X/theta1 -> X/theta2 when theta1 refines theta2."""
    if not q1.kernel.refines(q2.kernel):
        raise ValueError("first kernel does not refine the second")
    mapping = tuple(q2.mapping[blk[0]] for blk in q1.kernel.blocks)
    kernel = Partition.from_labels(q1.target.n, mapping)
    return QuotientMap(q1.target, kernel, q2.target, mapping)


def projections(factors):
    """Product of the factors together with its projection quotient maps."""
    prod = product(factors)
    sizes = [a.n for a in factors]
    maps = []
    for i, alg in enumerate(factors):
        mapping = tuple(product_decode(sizes, x)[i] for x in range(prod.n))
        kernel = Partition.from_labels(prod.n, mapping)
        maps.append(QuotientMap(prod, kernel, alg, mapping))
    return prod, maps


def generate_subuniverse(alg, seed):
    """Least subset containing the seed and all nullary values, closed under ops.

    With no nullary operation an empty seed yields the empty set.
    """
    current = set(seed)
    for x in current:
        if not 0 <= x < alg.n:
            raise ValueError(f"seed element {x} out of range")
    for sym, arity in alg.sig:
        if arity == 0:
            current.add(alg.apply(sym, ()))
    changed = True
    while changed:
        changed = False
        for sym, arity in alg.sig:
            if arity == 0:
                continue
            for args in iproduct(sorted(current), repeat=arity):
                v = alg.apply(sym, args)
                if v not in current:
                    current.add(v)
                    changed = True
    return frozenset(current)


def subalgebra(alg, universe):
    """Restrict to a closed subset; returns the subalgebra and its embedding."""
    embed = tuple(sorted(universe))
    back = {x: i for i, x in enumerate(embed)}
    tables = {}
    for sym, arity in alg.sig:
        table = []
        for args in iproduct(embed, repeat=arity):
            v = alg.apply(sym, args)
            if v not in back:
                raise ValueError(f"subset not closed under {sym!r} at {args}")
            table.append(back[v])
        tables[sym] = tuple(table)
    name = f"{alg.name or '?'}|{{{' '.join(map(str, embed))}}}"
    return FiniteAlgebra(alg.sig, len(embed), tables, name=name), embed


def all_subuniverses(alg, exhaustive_limit=10):
    """Distinct nonempty subuniverses, generated exhaustively for small carriers.

    Beyond the limit only subuniverses generated by at most two elements
    are enumerated (enough for the arrow sweeps that use this).
    """
    seeds = []
    if alg.n <= exhaustive_limit:
        seeds.extend(
            [x for x in range(alg.n) if mask >> x & 1] for mask in range(1 << alg.n)
        )
    else:
        seeds.append([])
        seeds.extend([x] for x in range(alg.n))
        seeds.extend([x, y] for x in range(alg.n) for y in range(x + 1, alg.n))
    found = {}
    for seed in seeds:
        sub = generate_subuniverse(alg, seed)
        if sub:
            found.setdefault(tuple(sorted(sub)), sub)
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
    if line is None or not line.startswith("algebra"):
        raise ParseError("expected 'algebra NAME' header", line=lineno)
    name = line[len("algebra"):].strip()
    if not name:
        raise ParseError("algebra name missing", line=lineno)

    line, lineno = next_content()
    parts = line.split() if line else []
    if len(parts) != 2 or parts[0] != "size":
        raise ParseError("expected 'size N'", line=lineno)
    try:
        n = int(parts[1])
    except ValueError:
        raise ParseError(f"bad size {parts[1]!r}", line=lineno) from None
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
        try:
            arity = int(parts[2])
        except ValueError:
            raise ParseError(f"bad arity {parts[2]!r}", line=lineno) from None
        if sym in ops:
            raise ParseError(f"duplicate operation {sym!r}", line=lineno)
        need = n**arity
        values = []
        for tok in parts[3:]:
            values.append(_int_token(tok, lineno))
        while len(values) < need:
            line, lineno = next_content()
            if line is None:
                raise ParseError(
                    f"table for {sym!r} ended early ({len(values)}/{need} entries)",
                    line=lineno,
                )
            for tok in line.split():
                values.append(_int_token(tok, lineno))
        if len(values) > need:
            raise ParseError(f"table for {sym!r} has extra entries", line=lineno)
        ops[sym] = arity
        tables[sym] = tuple(values)

    sig = Signature(ops)
    try:
        return FiniteAlgebra(sig, n, tables, name=name)
    except ValueError as exc:
        raise ParseError(str(exc), line=lineno) from exc


def _int_token(tok, lineno):
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"expected integer, got {tok!r}", line=lineno) from None


def format_algebra(alg):
    """Serialize to the .alg format, tables chunked by the last argument axis."""
    out = [f"algebra {alg.name or 'unnamed'}", f"size {alg.n}"]
    for sym, arity in alg.sig:
        out.append(f"op {sym} {arity}")
        table = alg.tables[sym]
        if arity == 0:
            out.append(str(table[0]))
        else:
            for start in range(0, len(table), alg.n):
                out.append(" ".join(str(v) for v in table[start:start + alg.n]))
    return "\n".join(out) + "\n"


def load_algebra(path):
    with open(path, encoding="utf-8") as fh:
        return parse_algebra(fh.read())


def save_algebra(alg, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_algebra(alg))
