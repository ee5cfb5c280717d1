"""Equivalence relations on finite carriers, stored as canonical label vectors.

A Partition is an equivalence relation stored as its canonical label
vector: ``index_of[x]`` numbers x's block, blocks numbered in order of
first occurrence.  Meets, joins, refinement and the direct and inverse
images along maps all work on these vectors.  ``_index`` is the one
element rule: ``Partition(n, blocks)``, ``from_literal``, the
``FiniteAlgebra`` size and tables, ``QuotientMap`` mappings, ``apply``
(and so ``eval_term``), subuniverse seeds, ``subalgebra`` universes,
``congruence_generated`` pairs and the ``max_size`` and ``cap`` bounds
are read through it.  A text token is an integer only as ASCII
``-?[0-9]+`` (``_integer_token``).  Every other way to make a partition
trusts its input and relabels in one pass; operations on two partitions
check only that the carrier sizes agree.

Composites of equivalence relations are read from block incidence and
returned as n-by-n boolean pair matrices by ``composite``.  Relational
composition is fixed left-to-right: (x,z) is in the composite r o s iff
there is a y with (x,y) in r and (y,z) in s.

Four routines are written once, here.  ``_restrict`` reads an
operation table on one point list along every argument axis, the one
way a table is read on points: ``is_congruence`` reads each cell's box
by it, and ``algebras`` its products, quotients, quotient-map checks,
subalgebras and subuniverse closure.  ``_union`` is the one
union-find: ``Partition.join`` ties together the blocks of self that
each block of other meets, and ``congruence_generated`` merges its seed
pairs and each round's fresh image pairs.  ``_orbit_least`` finds the
least point of every orbit of a group given by generators, by pulling
back along each and jumping pointers: ``_pair_orbit_reps`` runs it on
the pairs of A under the bijective basic translations, and
``symmetry._clone_orbits`` on the cells of A^3 under Aut(A).
``_join_closure`` closes the principal members of a lattice under joins
with them: ``con_lattice`` runs it on Con(A), and
``algebras.all_subuniverses`` on Sub(A) of a small carrier.
"""

import operator

import numpy as np

from .errors import CarrierBoundError, NotCongruenceError, SizeMismatchError
from .verdict import Verdict


def _index(value, n=None, what="element"):
    """operator.index(value) if it lies in 0..n-1 (or n is None); else ValueError naming value."""
    try:
        i = operator.index(value)
    except TypeError:
        raise ValueError(f"non-integer {what} {value!r}") from None
    if n is not None and not 0 <= i < n:
        raise ValueError(f"{what} {i} out of range 0..{n - 1}")
    return i


def _collection(values):
    """The items of values as a list; a non-collection is refused by name."""
    try:
        return list(values)
    except TypeError:
        raise ValueError(f"expected a collection, got {values!r}") from None


def _integer_token(tok):
    """int(tok) if tok is ASCII ``-?[0-9]+``, else tok itself, for ``_index`` to refuse by name."""
    return int(tok) if tok.isascii() and tok.removeprefix("-").isdigit() else tok


def _indices(values, n, what="element", size=None):
    """Each of values by ``_index``; a non-collection, or one not of size, is refused by name."""
    items = [_index(v, n, what) for v in _collection(values)]
    if size is not None and len(items) != size:
        raise ValueError(f"expected {size} {what}s, got {values!r}")
    return items


def _union(parent, pairs):
    """Merge the trees of each pair's ends in a union-find forest, pair by pair.

    parent is a list with parent[x] <= x.  Both roots are found by path
    halving, and the greater is linked under the lesser, so each root
    stays the least node of its tree, as ``_number_trees`` needs.
    Returns the (lesser root, greater root) pair of each merge, in order.
    """
    merged = []
    for a, b in pairs:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a != b:
            if a > b:
                a, b = b, a
            parent[b] = a
            merged.append((a, b))
    return merged


def _number_trees(parent):
    """Number the trees of a union-find forest by first occurrence, in place.

    Needs parent[x] <= x for every x, so that each root is the least node
    of its tree: ascending roots are then in first-occurrence order, and
    every other node takes the number already given to its parent.
    Returns the number of trees.
    """
    count = 0
    for x, up in enumerate(parent):
        if up == x:
            parent[x] = count
            count += 1
        else:
            parent[x] = parent[up]
    return count


class Partition:
    """An equivalence relation on {0..n-1}, stored as its canonical label vector.

    ``index_of[x]`` is the number of x's block, blocks numbered in order
    of first occurrence: x = 0 is in block 0, and each element outside
    the blocks met so far opens the next one.  Two partitions are equal
    exactly when their vectors are.  ``num_blocks`` is kept with the
    vector; ``blocks`` is derived on first use and cached: elements
    ascending within a block, blocks ordered by their minimum, so block
    i is the one labelled i.

    ``Partition(n, blocks)`` and ``from_literal`` read each element by
    ``_index``, the one element rule (tables, ``apply``, seeds,
    universes, ``congruence_generated`` pairs and bounds use it too), and
    refuse repeated and uncovering input.  Every other constructor
    relabels in one pass and validates nothing: ``from_labels``,
    ``discrete``, ``full``, ``meet``, ``join``, and the module's
    ``inverse_image_by_map`` and ``direct_image``.  They trust that
    their labels or maps are well-formed on {0..n-1}.
    """

    __slots__ = ("n", "index_of", "num_blocks", "_blocks")

    def __init__(self, n, blocks):
        try:
            blks = [tuple(sorted(_indices(b, n))) for b in _collection(blocks)]
        except ValueError as exc:
            raise ValueError(f"bad partition: {exc}") from None
        blks = sorted(b for b in blks if b)
        index = [None] * n
        for i, blk in enumerate(blks):
            for x in blk:
                if index[x] is not None:
                    raise ValueError(f"bad partition: element {x} repeated")
                index[x] = i
        if None in index:
            raise ValueError("partition does not cover the carrier")
        self._set(n, tuple(index), len(blks), tuple(blks))

    def _set(self, n, index_of, num_blocks, blocks=None):
        self.n = n
        self.index_of = index_of
        self.num_blocks = num_blocks
        self._blocks = blocks

    @classmethod
    def _canonical(cls, n, index_of, num_blocks):
        """Wrap a label vector that is already canonical; no checks."""
        p = cls.__new__(cls)
        p._set(n, index_of, num_blocks)
        return p

    @classmethod
    def discrete(cls, n):
        return cls._canonical(n, tuple(range(n)), n)

    @classmethod
    def full(cls, n):
        return cls._canonical(n, (0,) * n, min(n, 1))

    @classmethod
    def from_labels(cls, n, labels):
        """The partition of {0..n-1} into classes of equal labels[x]; labels has length n."""
        relabel = {lab: i for i, lab in enumerate(dict.fromkeys(labels))}
        return cls._canonical(n, tuple(map(relabel.__getitem__, labels)), len(relabel))

    @classmethod
    def from_literal(cls, text, n):
        """The partition a literal like ``0 1|2 3`` spells; a non-integer token is refused by name."""
        blocks = []
        for chunk in text.split("|"):
            items = chunk.split()
            if not items:
                raise ValueError("empty block in partition literal")
            blocks.append([_integer_token(tok) for tok in items])
        return cls(n, blocks)

    @property
    def blocks(self):
        blks = self._blocks
        if blks is None:
            members = [[] for _ in range(self.num_blocks)]
            for x, i in enumerate(self.index_of):
                members[i].append(x)
            blks = self._blocks = tuple(map(tuple, members))
        return blks

    def to_literal(self):
        return "|".join(" ".join(str(x) for x in blk) for blk in self.blocks)

    def _check(self, other):
        if self.n != other.n:
            raise SizeMismatchError(f"carrier sizes differ: {self.n} vs {other.n}")

    def refines(self, other):
        """Every block of self lies in one block of other."""
        self._check(other)
        return len(set(zip(self.index_of, other.index_of))) == self.num_blocks

    def meet(self, other):
        self._check(other)
        return Partition.from_labels(self.n, list(zip(self.index_of, other.index_of)))

    def join(self, other):
        """Least equivalence relation containing both.

        ``_union`` over the blocks of self: each block of other ties the
        first block of self that it meets to every other one it meets.
        One edge per block of the meet suffices, and when that count
        shows one side refines the other, the other is the join.
        """
        self._check(other)
        edges = set(zip(self.index_of, other.index_of))
        if len(edges) == self.num_blocks:
            return other
        if len(edges) == other.num_blocks:
            return self
        parent = list(range(self.num_blocks))
        first = {}
        _union(parent, ((f, a) for a, b in edges if (f := first.setdefault(b, a)) != a))
        count = _number_trees(parent)
        return Partition._canonical(self.n, tuple(map(parent.__getitem__, self.index_of)), count)

    def __eq__(self, other):
        return (
            isinstance(other, Partition) and self.n == other.n and self.index_of == other.index_of
        )

    def __hash__(self):
        return hash((self.n, self.index_of))

    def __repr__(self):
        return f"Partition({self.to_literal()!r})"


def composite(first, *rest):
    """Pair matrix of first o p2 o ... o pk as an n-by-n boolean array.

    (x, z) is in R o S exactly when the R-block of x meets the S-block
    of z.  So ``reach[b, c]``, "block b of the first partition reaches
    block c of the latest one", advances one partition per step by a
    boolean product with the incidence matrix of the blocks of the
    previous and the next partition; (x, z) is in the composite when the
    first block of x reaches the last block of z.  ``composite(p)`` is
    p's own pair matrix.
    """
    start = labels = np.asarray(first.index_of, dtype=np.intp)
    reach = np.eye(first.num_blocks, dtype=bool)
    for p in rest:
        first._check(p)
        nxt = np.asarray(p.index_of, dtype=np.intp)
        incidence = np.zeros((reach.shape[1], p.num_blocks), dtype=bool)
        incidence[labels, nxt] = True
        reach, labels = reach @ incidence, nxt
    return reach[start[:, None], labels]


def _restrict(table, points):
    """table read on points along every argument axis: entry (i, .., j) is table[points[i], .., points[j]].

    The index is an open mesh: axis i gets points shaped to vary along
    axis i alone, and numpy broadcasts the rest.  A 0-ary table gives
    table[()].
    """
    k = table.ndim
    return table[tuple(points.reshape((-1,) + (1,) * (k - 1 - i)) for i in range(k))]


def is_congruence(alg, p):
    """Check compatibility of a partition with every operation table.

    Related argument tuples form boxes, the products of blocks, and p is
    compatible when each cell's image label is that of its box's first
    cell, the block minima.  The witness is (symbol, (args, args')):
    symbols in declaration order, args the first cell of the least box
    with two labels, args' the first cell of that box, in C order, with
    another label.
    """
    if p.n != alg.n:
        raise SizeMismatchError(f"partition on {p.n} elements, algebra has {alg.n}")
    labels = np.asarray(p.index_of, dtype=np.intp)
    mins = np.asarray([blk[0] for blk in p.blocks], dtype=np.intp)[labels]
    for sym, arity in alg.sig:
        if arity == 0:
            continue
        image = labels[alg.table_array(sym)]
        bad = np.argwhere(image != _restrict(image, mins))
        if len(bad):
            boxes = mins[bad]
            # bad is in C order and lexsort is stable: the least box, then its first cell
            first = np.lexsort(boxes.T[::-1])[0]
            args, args_b = tuple(boxes[first].tolist()), tuple(bad[first].tolist())
            return Verdict(False, witness=(sym, (args, args_b)))
    return Verdict(True)


def _translations(alg):
    """The deduplicated basic translations x -> f(c.., x, ..c) as rows of one array.

    Row t maps x to t[x].  Constant and identity rows relate nothing new
    and are dropped, so an algebra with only nullary operations (or an
    n = 1 carrier) has an empty matrix.  Built once per table family.
    """
    return alg._cached("translations", _basic_translations, alg)


def _basic_translations(alg):
    """The translation matrix, built on a miss of ``_translations``' cache."""
    n = alg.n
    rows = [np.empty((0, n), dtype=np.intp)]
    for sym, arity in alg.sig:
        table = alg.table_array(sym)
        for pos in range(arity):
            rows.append(np.moveaxis(table, pos, -1).reshape(-1, n))
    mat = np.unique(np.concatenate(rows), axis=0)
    keep = (mat != mat[:, :1]).any(axis=1) & (mat != np.arange(n)).any(axis=1)
    return mat[keep]


def congruence_generated(alg, pairs):
    """Least congruence containing the given pairs, recorded as proved.

    ``_union`` over the equivalence generated so far.  Each round maps
    the pairs merged in the previous round through every basic
    translation in one array step, keeps the image pairs the current
    labels do not already relate, and merges those; the result is the
    fixpoint, which by Mal'cev's lemma is a congruence.
    """
    n = alg.n
    mat = _translations(alg)
    parent = list(range(n))
    merged = _union(parent, (_indices(pair, n, size=2) for pair in _collection(pairs)))
    while merged and len(mat):
        left, right = np.array(merged).T
        left, right = mat[:, left].ravel(), mat[:, right].ravel()
        labels = parent[:]
        _number_trees(labels)
        labels = np.array(labels)
        fresh = labels[left] != labels[right]
        merged = _union(parent, zip(left[fresh].tolist(), right[fresh].tolist()))
    count = _number_trees(parent)
    theta = Partition._canonical(n, tuple(parent), count)
    _proved(alg).add(theta.index_of)
    return theta


def _proved(alg):
    """The label vectors proved to be congruences of alg's tables, one set per table family."""
    return alg._cached("proved congruences", set)


def require_congruence(alg, p):
    """Raise NotCongruenceError (with the is_congruence witness) unless p is a congruence.

    Proved once per table family: p is checked unless ``_proved(alg)``
    holds its label vector, and recorded there once it passes.
    """
    if p.index_of not in _proved(alg):
        verdict = is_congruence(alg, p)
        if not verdict.ok:
            raise NotCongruenceError(*verdict.witness)
        _proved(alg).add(p.index_of)


def direct_image(f, s):
    """Image of an equivalence relation along a quotient map, closed up.

    Returns the equivalence closure of {(f(a), f(b)) : (a,b) in s}; on
    3-permutable algebras the raw image pair set is already an
    equivalence, so the closure step adds nothing.  Since f is onto, f(a)
    and f(b) are related in that closure exactly when a and b are
    related by s join ker f, so the image classes are the images of the
    classes of s join ker f.
    """
    if s.n != f.source.n:
        raise SizeMismatchError(f"relation on {s.n} elements, source has {f.source.n}")
    joined = s.join(f.kernel)
    labels = [0] * f.target.n
    for a, lab in zip(f.mapping, joined.index_of):
        labels[a] = lab
    return Partition.from_labels(f.target.n, labels)


def inverse_image(f, s):
    """Pullback of an equivalence relation on the target along a quotient map."""
    if s.n != f.target.n:
        raise SizeMismatchError(f"relation on {s.n} elements, target has {f.target.n}")
    return inverse_image_by_map(f.source.n, f.mapping, s)


def inverse_image_by_map(n_source, mapping, s):
    """Pullback along an arbitrary map given as an element array."""
    index = s.index_of
    return Partition.from_labels(n_source, [index[mapping[a]] for a in range(n_source)])


class ConLattice:
    """All congruences of one finite algebra with order, meet and join tables.

    Congruences are sorted by (number of blocks, block list); index 0 is
    the full relation, the last index is the discrete one.  Membership
    and ``index`` look a partition up by its label vector.  The
    constructor trusts that the list is sorted so and closed under meet
    and join.

    ``leq[i][j]`` says congruence i refines congruence j: j's labels are
    constant on i's blocks, read at each block's first element.  A
    strictly finer congruence has more blocks, so a greater index.  The
    meet of i and j lies strictly above every other common lower bound,
    so it is the common lower bound of least index; dually the join is
    the common upper bound of greatest index.  Both tables are read off
    the order matrix one row i at a time, and all three are kept as
    tuples of tuples of Python bools and ints.
    """

    def __init__(self, congruences):
        cons = self.congruences = tuple(congruences)
        self._index = {p.index_of: i for i, p in enumerate(cons)}
        k = len(cons)
        labels = np.array([p.index_of for p in cons], dtype=np.intp)
        leq = np.empty((k, k), dtype=bool)
        for i, p in enumerate(cons):
            firsts = np.array([blk[0] for blk in p.blocks], dtype=np.intp)[labels[i]]
            leq[i] = (labels == labels[:, firsts]).all(axis=1)
        meet_table = np.empty((k, k), dtype=np.intp)
        join_table = np.empty((k, k), dtype=np.intp)
        for i in range(k):
            meet_table[i] = (leq[:, i, None] & leq).argmax(axis=0)
            join_table[i] = k - 1 - (leq[i, ::-1] & leq[:, ::-1]).argmax(axis=1)
        self.leq = tuple(map(tuple, leq.tolist()))
        self.meet_table = tuple(map(tuple, meet_table.tolist()))
        self.join_table = tuple(map(tuple, join_table.tolist()))

    def __len__(self):
        return len(self.congruences)

    def __contains__(self, p):
        return p.index_of in self._index

    def index(self, p):
        try:
            return self._index[p.index_of]
        except KeyError:
            raise ValueError(f"{p!r} is not a congruence in this lattice") from None

    def covers(self):
        """Covering pairs (i, j) with congruence i covered by congruence j, row by row.

        i < j covers exactly when no m lies strictly between them, that
        is when (i, j) is in the strict order but not in its square.
        """
        strict = np.array(self.leq, dtype=bool)
        np.fill_diagonal(strict, False)
        return list(map(tuple, np.argwhere(strict & ~(strict @ strict)).tolist()))


def _orbit_least(least, gens, act):
    """For each point, the least point of its orbit under the group that gens generate.

    The points are the positions of least, and act(g) is the index array
    that g moves them by.  least starts each point p at a point of its
    orbit no greater than p: p itself, or a code shared by the points
    the caller counts as one.  Each pass pulls least back along every
    generator, least[p] = min(least[p], least[act(g)[p]]), then jumps to
    least[least].  At the fixpoint least is constant on each orbit and
    is its least point.  With no generator least comes back unchanged.
    """
    before = None
    while len(gens) and not np.array_equal(least, before):
        before = least
        for g in gens:
            least = np.minimum(least, least[act(g)])
        least = least[least]
    return least


def _pair_orbit_reps(alg):
    """Codes a * n + b of the pairs a < b least in their orbit under the bijective translations.

    The orbits are those of the group that the bijective rows of
    ``_translations`` generate, acting on unordered pairs: ``_orbit_least``
    runs on the cells (a, b) of A^2, each starting at the pair code
    min * n + max.  The codes come out ascending, that is in
    lexicographic pair order; with no bijective row, every pair is one.
    """
    n = alg.n
    carrier = np.arange(n)
    mat = _translations(alg)
    gens = mat[(np.sort(mat, axis=1) == carrier).all(axis=1)]
    lo, hi = np.minimum.outer(carrier, carrier), np.maximum.outer(carrier, carrier)
    least = _orbit_least((lo * n + hi).ravel(), gens, lambda g: (g[:, None] * n + g).ravel())
    return np.flatnonzero((least == np.arange(n * n)) & (lo < hi).ravel())


def _principal_congruences(alg):
    """The discrete relation, then every principal congruence, keyed by label vector.

    One generation per orbit representative; see ``con_lattice`` for
    why the dict is filled in the order of the sweep over all pairs.
    """
    n = alg.n
    bottom = Partition.discrete(n)
    found = {bottom.index_of: bottom}
    for code in _pair_orbit_reps(alg).tolist():
        cg = congruence_generated(alg, [divmod(code, n)])
        found.setdefault(cg.index_of, cg)
    return found


def _join_closure(found, join, key):
    """Close found, a dict of principal members by key, under joins with them, in place.

    Every member is the join of the principal members below it, so each
    new member is joined with the principal ones only: a worklist pops a
    member, joins it with each principal one, and pushes each join whose
    key is new.  Returns found.
    """
    principal = list(found.values())
    work = list(principal)
    while work:
        p = work.pop()
        for q in principal:
            j = join(p, q)
            k = key(j)
            if k not in found:
                found[k] = j
                work.append(j)
    return found


def con_lattice(alg, max_size=64):
    """Enumerate Con(alg): principal congruences closed under binary joins.

    The discrete relation and the principal congruences are closed by
    ``_join_closure``, keyed by label vector.  Cg(a, b) is generated
    only at the pairs least in their orbit under the bijective basic
    translations.  That loses nothing:

    - orbit equality: a bijective translation t has t^-1 = t^m for some
      m, so Cg(t(a), t(b)) = Cg(a, b), and so along the whole group;
    - first occurrence: a principal congruence is first met, in
      lexicographic pair order, at its least generating pair, and that
      pair is least in its orbit.

    So the principal congruences are found in the order of the sweep
    over all n(n-1)/2 pairs.  Con(A) is a sublattice of Eq(A), so the
    closure uses the plain equivalence join of partitions.  Cached per
    table family, members recorded as proved; the carrier bound is
    checked on every call.
    """
    if alg.n > _index(max_size, what="max_size"):
        raise CarrierBoundError(alg.n, max_size)
    return alg._cached("con", _congruences, alg)


def _congruences(alg):
    """Con(alg), built on a miss of ``con_lattice``'s cache."""
    label_vector = operator.attrgetter("index_of")
    found = _join_closure(_principal_congruences(alg), Partition.join, label_vector)
    _proved(alg).update(found)
    return ConLattice(sorted(found.values(), key=lambda p: (p.num_blocks, p.blocks)))


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
