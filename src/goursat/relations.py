"""Binary relations and equivalence relations on finite carriers.

A BinRel is an n-by-n boolean matrix stored as one bitmask per row.  A
Partition is an equivalence relation in canonical block form: elements
ascending within each block, blocks ordered by their minimum.

Relational composition is fixed left-to-right: (x,z) is in compose(r,s)
iff there is a y with (x,y) in r and (y,z) in s.
"""

from itertools import product

from .errors import CarrierBoundError, NotCongruenceError, SizeMismatchError
from .verdict import Verdict


class BinRel:
    __slots__ = ("n", "rows")

    def __init__(self, n, rows):
        if len(rows) != n:
            raise ValueError("row count must equal carrier size")
        mask = (1 << n) - 1
        self.n = n
        self.rows = tuple(r & mask for r in rows)

    @classmethod
    def empty(cls, n):
        return cls(n, (0,) * n)

    @classmethod
    def identity(cls, n):
        return cls(n, tuple(1 << x for x in range(n)))

    @classmethod
    def full(cls, n):
        return cls(n, ((1 << n) - 1,) * n)

    @classmethod
    def from_pairs(cls, n, pairs):
        rows = [0] * n
        for a, b in pairs:
            rows[a] |= 1 << b
        return cls(n, rows)

    def has(self, x, y):
        return bool(self.rows[x] >> y & 1)

    def pairs(self):
        out = []
        for x in range(self.n):
            row = self.rows[x]
            while row:
                low = row & -row
                out.append((x, low.bit_length() - 1))
                row ^= low
        return out

    def count(self):
        return sum(r.bit_count() for r in self.rows)

    def union(self, other):
        self._check(other)
        return BinRel(self.n, tuple(a | b for a, b in zip(self.rows, other.rows)))

    def intersection(self, other):
        self._check(other)
        return BinRel(self.n, tuple(a & b for a, b in zip(self.rows, other.rows)))

    def converse(self):
        rows = [0] * self.n
        for x in range(self.n):
            row = self.rows[x]
            while row:
                low = row & -row
                rows[low.bit_length() - 1] |= 1 << x
                row ^= low
        return BinRel(self.n, rows)

    def compose(self, other):
        self._check(other)
        rows = []
        for x in range(self.n):
            acc = 0
            row = self.rows[x]
            while row:
                low = row & -row
                acc |= other.rows[low.bit_length() - 1]
                row ^= low
            rows.append(acc)
        return BinRel(self.n, rows)

    def is_reflexive(self):
        return all(self.rows[x] >> x & 1 for x in range(self.n))

    def is_symmetric(self):
        return self == self.converse()

    def is_transitive(self):
        comp = self.compose(self)
        return all(c | r == r for c, r in zip(comp.rows, self.rows))

    def is_equivalence(self):
        return self.is_reflexive() and self.is_symmetric() and self.is_transitive()

    def to_partition(self):
        if not self.is_equivalence():
            raise ValueError("relation is not an equivalence relation")
        seen = [False] * self.n
        blocks = []
        for x in range(self.n):
            if not seen[x]:
                row = self.rows[x]
                blk = []
                while row:
                    low = row & -row
                    y = low.bit_length() - 1
                    seen[y] = True
                    blk.append(y)
                    row ^= low
                blocks.append(blk)
        return Partition(self.n, blocks)

    def _check(self, other):
        if self.n != other.n:
            raise SizeMismatchError(f"carrier sizes differ: {self.n} vs {other.n}")

    def __eq__(self, other):
        return isinstance(other, BinRel) and self.n == other.n and self.rows == other.rows

    def __hash__(self):
        return hash((self.n, self.rows))

    def __repr__(self):
        return f"BinRel({self.n}, pairs={self.pairs()})"


def compose(r, s):
    return r.compose(s)


class Partition:
    __slots__ = ("n", "blocks", "index_of")

    def __init__(self, n, blocks):
        blks = sorted(tuple(sorted(b)) for b in blocks if b)
        seen = set()
        for blk in blks:
            for x in blk:
                if x in seen or not 0 <= x < n:
                    raise ValueError(f"bad partition: element {x} repeated or out of range")
                seen.add(x)
        if len(seen) != n:
            raise ValueError("partition does not cover the carrier")
        index = [0] * n
        for i, blk in enumerate(blks):
            for x in blk:
                index[x] = i
        self.n = n
        self.blocks = tuple(blks)
        self.index_of = tuple(index)

    @classmethod
    def discrete(cls, n):
        return cls(n, [[x] for x in range(n)])

    @classmethod
    def full(cls, n):
        return cls(n, [list(range(n))])

    @classmethod
    def from_labels(cls, n, labels):
        groups = {}
        for x in range(n):
            groups.setdefault(labels[x], []).append(x)
        return cls(n, list(groups.values()))

    @classmethod
    def from_pairs(cls, n, pairs):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in pairs:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
        return cls.from_labels(n, [find(x) for x in range(n)])

    @classmethod
    def from_literal(cls, text, n):
        blocks = []
        for chunk in text.split("|"):
            items = chunk.split()
            if not items:
                raise ValueError("empty block in partition literal")
            blocks.append([int(tok) for tok in items])
        return cls(n, blocks)

    def to_literal(self):
        return "|".join(" ".join(str(x) for x in blk) for blk in self.blocks)

    @property
    def num_blocks(self):
        return len(self.blocks)

    def relates(self, a, b):
        return self.index_of[a] == self.index_of[b]

    def block_of(self, x):
        return self.blocks[self.index_of[x]]

    def refines(self, other):
        if self.n != other.n:
            raise SizeMismatchError(f"carrier sizes differ: {self.n} vs {other.n}")
        return all(
            other.index_of[blk[0]] == other.index_of[x] for blk in self.blocks for x in blk
        )

    def meet(self, other):
        if self.n != other.n:
            raise SizeMismatchError(f"carrier sizes differ: {self.n} vs {other.n}")
        labels = [(self.index_of[x], other.index_of[x]) for x in range(self.n)]
        return Partition.from_labels(self.n, labels)

    def as_binrel(self):
        masks = [0] * len(self.blocks)
        for i, blk in enumerate(self.blocks):
            m = 0
            for x in blk:
                m |= 1 << x
            masks[i] = m
        return BinRel(self.n, tuple(masks[self.index_of[x]] for x in range(self.n)))

    def pairs(self):
        return [(a, b) for blk in self.blocks for a in blk for b in blk]

    def generating_pairs(self):
        """One spanning chain per block; generates the same equivalence."""
        return [(blk[0], x) for blk in self.blocks for x in blk[1:]]

    def __eq__(self, other):
        return (
            isinstance(other, Partition) and self.n == other.n and self.blocks == other.blocks
        )

    def __hash__(self):
        return hash((self.n, self.blocks))

    def __repr__(self):
        return f"Partition({self.to_literal()!r})"


def equivalence_closure(r):
    """Least equivalence relation containing a BinRel, as a Partition."""
    return Partition.from_pairs(r.n, r.pairs())


def is_congruence(alg, p):
    """Check compatibility of a partition with every operation table.

    The witness, when present, is (symbol, (args, args')) for the first
    coordinatewise-related argument pair with unrelated images, scanning
    symbols in declaration order and argument tuples lexicographically.
    """
    if p.n != alg.n:
        raise SizeMismatchError(f"partition on {p.n} elements, algebra has {alg.n}")
    for sym, arity in alg.sig:
        if arity == 0:
            continue
        for args_a in product(range(alg.n), repeat=arity):
            va = alg.apply(sym, args_a)
            for args_b in product(*(p.block_of(a) for a in args_a)):
                if not p.relates(va, alg.apply(sym, args_b)):
                    return Verdict(False, witness=(sym, (args_a, args_b)))
    return Verdict(True)


def _compatible(alg, p):
    """Fast congruence test without witness extraction.

    A partition is a congruence exactly when regenerating from its own
    spanning pairs is a fixpoint; the worklist generator makes this much
    cheaper than the witness-grade scan on coarse partitions.
    """
    if p.n != alg.n:
        raise SizeMismatchError(f"partition on {p.n} elements, algebra has {alg.n}")
    return congruence_generated(alg, p.generating_pairs()) == p


def congruence_generated(alg, pairs):
    """Least congruence containing the given pairs.

    Union-find with a worklist: every class merge propagates through all
    single-coordinate substitutions in every operation, to a fixpoint.
    """
    n = alg.n
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    queue = []

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            if ra > rb:
                ra, rb = rb, ra
            parent[rb] = ra
            queue.append((ra, rb))

    for a, b in pairs:
        union(a, b)
    while queue:
        a, b = queue.pop()
        for sym, arity in alg.sig:
            if arity == 0:
                continue
            for pos in range(arity):
                for ctx in product(range(n), repeat=arity - 1):
                    args_a = ctx[:pos] + (a,) + ctx[pos:]
                    args_b = ctx[:pos] + (b,) + ctx[pos:]
                    union(alg.apply(sym, args_a), alg.apply(sym, args_b))
    return Partition.from_labels(n, [find(x) for x in range(n)])


def require_congruence(alg, p):
    """Raise NotCongruenceError (with the witness-grade scan) unless p is compatible."""
    if not _compatible(alg, p):
        raise NotCongruenceError(*is_congruence(alg, p).witness)


def join(alg, r, s):
    """Least upper bound of two congruences in the congruence lattice."""
    require_congruence(alg, r)
    require_congruence(alg, s)
    return congruence_generated(alg, r.generating_pairs() + s.generating_pairs())


def direct_image(f, s):
    """Image of an equivalence relation along a quotient map, closed up.

    Returns the equivalence closure of {(f(a), f(b)) : (a,b) in s}; on
    3-permutable algebras the raw image is already an equivalence (see
    direct_image_raw for the unclosed pair set).
    """
    if s.n != f.source.n:
        raise SizeMismatchError(f"relation on {s.n} elements, source has {f.source.n}")
    mapped = [(f.mapping[a], f.mapping[b]) for a, b in s.generating_pairs()]
    return Partition.from_pairs(f.target.n, mapped)


def direct_image_raw(f, s):
    """Raw image pair set of an equivalence relation, no closure step."""
    if s.n != f.source.n:
        raise SizeMismatchError(f"relation on {s.n} elements, source has {f.source.n}")
    rows = [0] * f.target.n
    for blk in s.blocks:
        mask = 0
        for a in blk:
            mask |= 1 << f.mapping[a]
        for a in blk:
            rows[f.mapping[a]] |= mask
    return BinRel(f.target.n, rows)


def inverse_image(f, s):
    """Pullback of an equivalence relation on the target along a quotient map."""
    if s.n != f.target.n:
        raise SizeMismatchError(f"relation on {s.n} elements, target has {f.target.n}")
    return inverse_image_by_map(f.source.n, f.mapping, s)


def inverse_image_by_map(n_source, mapping, s):
    """Pullback along an arbitrary map given as an element array."""
    return Partition.from_labels(n_source, [s.index_of[mapping[a]] for a in range(n_source)])


class ConLattice:
    """All congruences of one finite algebra with order, meet and join tables.

    Congruences are sorted by (number of blocks, block list); index 0 is
    the full relation, the last index is the discrete one.
    """

    def __init__(self, n, congruences):
        self.n = n
        self.congruences = tuple(congruences)
        self._index = {p.blocks: i for i, p in enumerate(self.congruences)}
        k = len(self.congruences)
        self.leq = tuple(
            tuple(self.congruences[i].refines(self.congruences[j]) for j in range(k))
            for i in range(k)
        )

    def __len__(self):
        return len(self.congruences)

    def index(self, p):
        try:
            return self._index[p.blocks]
        except KeyError:
            raise ValueError(f"{p!r} is not a congruence in this lattice") from None

    @property
    def bottom_index(self):
        return len(self.congruences) - 1

    @property
    def top_index(self):
        return 0

    def finish(self, meet_table, join_table):
        self.meet_table = meet_table
        self.join_table = join_table

    def meet(self, i, j):
        return self.congruences[self.meet_table[i][j]]

    def join(self, i, j):
        return self.congruences[self.join_table[i][j]]

    def covers(self):
        """Covering pairs (i, j) with congruence i covered by congruence j."""
        k = len(self.congruences)
        out = []
        for i in range(k):
            for j in range(k):
                if i == j or not self.leq[i][j]:
                    continue
                if any(
                    m != i and m != j and self.leq[i][m] and self.leq[m][j]
                    for m in range(k)
                ):
                    continue
                out.append((i, j))
        return out


def con_lattice(alg, max_size=64):
    """Enumerate Con(alg): principal congruences closed under binary joins.

    Memoised per algebra; the carrier bound is checked on every call.
    """
    if alg.n > max_size:
        raise CarrierBoundError(alg.n, max_size)
    hit = alg._memo.get("con")
    if hit is not None:
        return hit

    n = alg.n
    found = {Partition.discrete(n).blocks: Partition.discrete(n)}
    for a in range(n):
        for b in range(a + 1, n):
            cg = congruence_generated(alg, [(a, b)])
            found.setdefault(cg.blocks, cg)
    work = list(found.values())
    while work:
        p = work.pop()
        for q in list(found.values()):
            j = congruence_generated(alg, p.generating_pairs() + q.generating_pairs())
            if j.blocks not in found:
                found[j.blocks] = j
                work.append(j)

    ordered = sorted(found.values(), key=lambda p: (p.num_blocks, p.blocks))
    lat = ConLattice(n, ordered)
    k = len(ordered)
    meet_table = tuple(
        tuple(lat.index(ordered[i].meet(ordered[j])) for j in range(k)) for i in range(k)
    )
    join_table = []
    for i in range(k):
        row = []
        for j in range(k):
            if lat.leq[i][j]:
                row.append(j)
            elif lat.leq[j][i]:
                row.append(i)
            else:
                jn = congruence_generated(
                    alg, ordered[i].generating_pairs() + ordered[j].generating_pairs()
                )
                row.append(lat.index(jn))
        join_table.append(tuple(row))
    lat.finish(meet_table, tuple(join_table))
    alg._memo["con"] = lat
    return lat


def is_distributive(lat):
    """Check a meet/join distributive law over all triples of the lattice.

    The witness is the lexicographically least failing (a, b, c) triple.
    """
    k = len(lat.congruences)
    for a in range(k):
        for b in range(k):
            for c in range(k):
                left = lat.meet_table[a][lat.join_table[b][c]]
                right = lat.join_table[lat.meet_table[a][b]][lat.meet_table[a][c]]
                if left != right:
                    return Verdict(
                        False,
                        witness=(
                            lat.congruences[a],
                            lat.congruences[b],
                            lat.congruences[c],
                        ),
                    )
    return Verdict(True)
