"""Permutability of congruence pairs and ternary term searches.

Term searches run over the clone generated on three variables: the
breadth-first closure of the three ternary projections under pointwise
application of the algebra's basic operations.  Tables are deduplicated
by content; within a round, new tables get ids in lexicographic table
order, which fixes every witness choice.

The BFS uses three exact symmetries of A.

Orbit representatives.  A term operation t commutes with every
automorphism s of A: t(sx, sy, sz) = s t(x, y, z).  So t is fixed by its
values on one cell of each orbit of a group G of automorphisms acting on
A^3, and the BFS restricts every table to R, the least cell of each
orbit in ascending cell order; application is pointwise, so
f(t1, t2)|R = f(t1|R, t2|R).  The first cell c where two distinct term
tables differ is always in R: were c = s r with r < c its representative,
the tables would agree at r and so at c.  Restricted tables therefore
deduplicate exactly and sort in the same lexicographic order as full
ones, so ids, derivations and the cap cut are unchanged.  The cells
(x,y,y) and (x,x,y) are unions of orbits, so the Maltsev identities are
read on the representatives among them; the representatives (a,a,b) and
(a,b,b) both belong to the pairs (a,b) least in their orbit, so the two
restrictions the Hagemann-Mitschke search joins line up position by
position.  G is Aut(A) when some cell c0 of A^3 generates A with the
constants, and trivial otherwise.  An automorphism is fixed by its
values on a generating set, so Aut(A) is read off c0 in one pass:
c0's derivation of every element is replayed from each candidate image
of its entries, and the maps that are bijective homomorphisms are all
of Aut(A).  c0 is greedy, each entry the least element not generated
so far; when three such entries fall short, the subalgebra pass below
runs over every cell and stops at the least one that generates A, or
finds none.  Witnesses and ``CloneResult`` expand tables back to all
n**3 cells.

Isomorphic subalgebras.  A term operation commutes with every
homomorphism h from a subalgebra of A into A, not only with the
automorphisms: t(hx, hy, hz) = h t(x, y, z).  Let Sg(c) be the
subalgebra generated by the entries of the cell c and the constants.
When ci -> c'i extends to an isomorphism phi: Sg(c) -> Sg(c'), every
term t has t(c) in Sg(c) and t(c') = phi(t(c)).  So the least cells the
orbits keep are merged further, two cells whenever their generated
subalgebras are isomorphic this way, and R becomes the least cell of
each class; ``expand`` fills each merged cell c' as phi(t(c)) from its
representative c before it runs the orbit tree.  The proof above
carries over: were c' the first cell where two term tables differ, with
c < c' its representative, the tables would agree at c and so at c'.
phi is injective and sends each ci to c'i, so merged cells have the
same equal entries, and the cells (x,y,y) and (x,x,y) stay unions of
classes.  (a,b,b) and (a',b',b') merge exactly when (a,a,b) and
(a',a',b') do, since both say that a -> a', b -> b' extends to an
isomorphism Sg(a, b) -> Sg(a', b'); so the representatives of both kinds
still belong to the same pairs (a,b) in the same order, and the Maltsev
masks and the Hagemann-Mitschke pairing are unchanged.
``_pointed_classes`` decides isomorphism by a canonical code per cell,
for all representatives at once.  When a cell generates A, G is all of
Aut(A), and the pass drops a cell that generates A, which is related to
others only by automorphisms, and a cell whose subalgebra grows past a
bound that caps the pass's cost; a cell left unmerged only costs
compression.  When no cell generates A, G is trivial and the pass drops
no cell, so it merges every class.  Whether a cell is dropped depends
only on its code after the labels of its three entries, which (a,b,b)
and (a,a,b) share, so the pairing holds for dropped cells too.

Mirrored pairs.  For a binary operation with a symmetric table, the
pair (j, i) gives the table of (i, j), which comes earlier in the same
round; so only pairs i <= j are evaluated, and i < j when the operation
is also idempotent, since f(t, t) = t is known.  Each table keeps its
first derivation.

A round is evaluated in array blocks.  For each operation, Python loops
only over the leading argument ids; the last argument runs over a
contiguous id range, evaluated a bounded block of rows at a time.  The
head's values times n plus the last argument's values index the
operation's flattened table.  When that table has at most 256 entries,
it is padded to a 256-byte map and a block is one ``bytes.translate`` of
the uint8 index sum: the index is at most n**arity - 1 <= 255, so the
sum cannot overflow.  Larger tables are read by one gather, through a
uint16 index sum when the table has at most 65 536 entries (every binary
table, as n <= 255), else through intp.  Either way the block comes out
as the bytes the rows are keyed by.  Rows are then deduplicated in the
order of their argument tuples, the order of the one-tuple-at-a-time
loop, so each new table keeps the same first derivation, and the order
that fixes witnesses is unchanged.  Each table is stored once: its bytes
are the deduplication key, and its array is a read-only view of those
bytes.

A round is searched before it is numbered.  Ids within a round follow
key order, so the least new key that passes a test is the least id, and
a key is kept under the cap exactly when fewer than the round's room new
keys are smaller.  The Maltsev search tests the new keys in array blocks
and stops at a witness without numbering its round; the
Hagemann-Mitschke search reads its p and q candidates off the same
blocks, keeps them by key, and joins them by a hash of the restriction
they must share.
"""

from dataclasses import dataclass

import numpy as np

from .errors import CarrierBoundError
from .relations import composite, require_congruence
from .terms import _BLOCK_CELLS, App, Var
from .verdict import Verdict

TWO = "two"
THREE = "three"
NEITHER = "neither"

FOUND = "found"
NONE = "none"
INCONCLUSIVE = "inconclusive"

_VARS = ("x", "y", "z")


def permutability_level(alg, r, s):
    """``two`` if r and s permute, ``three`` if the triple composites agree, else ``neither``.

    For equivalences s o r is the transpose of r o s, so the pair
    permutes exactly when r o s is symmetric.
    """
    require_congruence(alg, r)
    require_congruence(alg, s)
    rs = composite(r, s)
    if np.array_equal(rs, rs.T):
        return TWO
    if np.array_equal(composite(r, s, r), composite(s, r, s)):
        return THREE
    return NEITHER


def goursat_join_check(alg, r, s):
    """Confirm r o s o r equals the congruence join, as raw pair sets.

    At level ``two`` or ``three``, r o s o r = s o r o s makes r o s o r
    transitive (its square is r o (s o r o s) o r = r o s o r), and it
    contains r and s, so it equals their join.  A failure therefore
    means a fault in ``composite``; the witness is the least pair on
    which the composite and the join differ.  At level ``neither`` the
    formula does not apply: the verdict is not applicable, with the
    note ``neither``.  Otherwise the note is the level.
    """
    level = permutability_level(alg, r, s)
    if level == NEITHER:
        return Verdict(None, note=NEITHER)
    differ = np.argwhere(composite(r, s, r) != composite(r.join(s)))
    if not len(differ):
        return Verdict(True, note=level)
    return Verdict(False, witness=tuple(differ[0].tolist()), note=level)


@dataclass(frozen=True)
class TermWitness:
    """A ternary operation table and a term realizing it."""

    table: tuple
    term: object


@dataclass(frozen=True)
class SearchOutcome:
    status: str  # found | none | inconclusive
    witness: object = None  # TermWitness, or a (p, q) pair for the two-term search
    explored: int = 0

    def __bool__(self):
        return self.status == FOUND


# -- automorphisms, isomorphic subalgebras and the classes of A^3 ---------------------


def _derivation(alg, cell=None):
    """How a cell's entries and the constants generate alg, or None when they do not.

    Returns steps (e, sym, args) that name every element once, each from
    earlier ones: by an operation, a constant included, or, with sym
    None, as free generator number args.  An entry is a free generator
    when the constants and the entries before it do not generate it.
    With cell None, each entry is the least element not generated so
    far, and None is returned when three entries fall short.
    """
    inside = np.zeros(alg.n, dtype=bool)
    steps = []

    def close():
        grew = True
        while grew:
            grew = False
            members = np.flatnonzero(inside)
            for sym, arity in alg.sig:
                values = alg.table_array(sym)[np.ix_(*(members,) * arity)].reshape(-1)
                fresh, first = np.unique(values, return_index=True)
                for v, at in zip(fresh.tolist(), first.tolist()):
                    if not inside[v]:
                        at = np.unravel_index(at, (len(members),) * arity)
                        steps.append((v, sym, tuple(members[list(at)].tolist())))
                        inside[v] = grew = True

    close()
    free = 0
    for i in range(3):
        g = int(np.argmin(inside) if cell is None else cell[i])
        if not inside[g]:
            inside[g] = True
            steps.append((g, None, free))
            free += 1
            close()
    return steps if inside.all() else None


def _generating_cell(alg):
    """(steps, classes) for a cell whose entries and the constants generate alg; memoised.

    steps is the cell's ``_derivation``, or None when no cell generates
    alg.  The cell is greedy when three greedy entries suffice; else it
    is the least one the unbounded ``_pointed_classes`` over every cell
    meets.  When it meets none, classes is that pass's (source, maps).
    """
    hit = alg._memo.get("generating_cell")
    if hit is None:
        steps, classes = _derivation(alg), None
        if steps is None:
            source, maps, cell = _pointed_classes(alg, np.arange(alg.n**3), bounded=False)
            if cell is None:
                classes = (source, maps)
            else:
                steps = _derivation(alg, np.unravel_index(cell, (alg.n,) * 3))
        hit = alg._memo["generating_cell"] = (steps, classes)
    return hit


def _automorphism_generators(alg):
    """Generators of Aut(alg) when a cell generates alg, else none.

    An automorphism is fixed by its images of the k free generators of
    that cell's derivation.  The derivation is replayed from every image
    tuple in A^k at once, a block at a time, and the bijective
    homomorphisms it yields are all of Aut(alg).  Aut(alg) acts freely on
    these tuples, so a map is kept exactly when its tuple lies outside
    the orbit of the free generators under the maps kept so far.
    """
    steps, _ = _generating_cell(alg)
    free = [e for e, sym, _ in steps or () if sym is None]
    if not free:
        # no cell generates alg, or the constants do, and every automorphism fixes them
        return []
    n = alg.n
    flat = {sym: alg.table_array(sym).reshape(-1) for sym, _ in alg.sig}
    ops = [(flat[sym], arity) for sym, arity in alg.sig if arity > 0]
    # the argument tuples of an operation that share their first argument
    widest = n ** max((arity - 1 for _, arity in ops), default=0)
    shape = (n,) * len(free)
    size = int(np.prod(shape))
    reached = np.zeros(size, dtype=bool)
    reached[np.ravel_multi_index(free, shape)] = True
    gens = []
    rows = max(1, _BLOCK_CELLS // max(n, widest))
    for lo in range(0, size, rows):
        codes = np.arange(lo, min(size, lo + rows))
        images = np.unravel_index(codes, shape)
        # phi[e] holds the image of e under every candidate of the block
        phi = np.empty((n, len(codes)), dtype=np.intp)
        for e, sym, args in steps:
            if sym is None:
                phi[e] = images[args]
            else:
                index = 0
                for a in args:
                    index = index * n + phi[a]
                phi[e] = flat[sym][index]
        seen = np.zeros(phi.shape, dtype=bool)
        seen[phi, np.arange(len(codes))] = True
        keep = seen.all(axis=0)
        # the argument tuples led by x .. x + width - 1: most candidates fail on the
        # first few, so width doubles while the block stays within _BLOCK_CELLS
        x, width = 0, 1
        while x < n and keep.any():
            at = np.flatnonzero(keep)
            sub = phi[:, at]
            for table, arity in ops:
                args = np.indices((min(width, n - x),) + (n,) * (arity - 1)).reshape(arity, -1)
                args[0] += x
                index, image = 0, 0
                for a in args:
                    index, image = index * n + a, image * n + sub[a]
                homomorphic = sub[table[index]] == table[image]
                keep[at[~homomorphic.all(axis=0)]] = False
            x += width
            width = max(1, min(2 * width, _BLOCK_CELLS // (len(at) * widest)))
        for j in np.flatnonzero(keep).tolist():
            if reached[codes[j]]:
                continue
            gens.append(phi[:, j].copy())
            frontier = np.flatnonzero(reached)
            while len(frontier):
                digits = np.array(np.unravel_index(frontier, shape))
                found = np.concatenate([np.ravel_multi_index(g[digits], shape) for g in gens])
                frontier = found[~reached[found]]
                reached[frontier] = True
    return gens


class _Orbits:
    """The orbits on the cells of A^3 of the group generated by gens, automorphisms of A.

    gens are read off a generating cell by ``_automorphism_generators``,
    or are none.  ``reps`` holds the least cell of each orbit, ascending,
    until ``merge_isomorphic`` narrows it to the least cell of each class
    of cells with isomorphic generated subalgebras.  ``expand`` rebuilds
    full tables from their values on reps: a merged cell c takes the
    value phi(t(r)) from its representative r, and then, along a
    breadth-first tree of each orbit, a cell c = s(parent) with s a
    generator takes the value s(t(parent)).
    """

    def __init__(self, n, gens):
        self.n = n
        size = n**3
        self._perms = np.array(gens, dtype=np.uint8).reshape(len(gens), n)
        self._tree = []  # (cells, parents, generator index), parents always earlier
        self._merged = None  # (cells, their representatives in reps, their maps phi)
        if not gens:
            self.reps = np.arange(size)
            return
        cells = np.arange(size)
        digits = (cells // (n * n), (cells // n) % n, cells % n)

        def act(g, c):
            return (g[digits[0][c]] * n + g[digits[1][c]]) * n + g[digits[2][c]]

        # least[c] falls to the least cell of c's orbit: each pass pulls it
        # back along every generator, then jumps to the least of least[c]
        least = cells
        while True:
            before = least
            for g in gens:
                least = np.minimum(least, least[act(g, slice(None))])
            least = least[least]
            if np.array_equal(least, before):
                break
        seen = least == cells
        self.reps = frontier = np.flatnonzero(seen)
        while True:
            reached = []
            for k, g in enumerate(gens):
                image = act(g, frontier)
                new = ~seen[image]
                if new.any():
                    seen[image[new]] = True
                    self._tree.append((image[new], frontier[new], k))
                    reached.append(image[new])
            if not reached:
                break
            frontier = np.concatenate(reached)

    def merge_isomorphic(self, source, maps):
        """Narrow reps to the least cell of each class of ``_pointed_classes`` on reps."""
        merged = source != self.reps
        if merged.any():
            self._merged = (self.reps[merged], source[merged], maps.reshape(-1))
            self.reps = self.reps[~merged]

    def expand(self, rows):
        """Full uint8 tables from tables restricted to reps (the last axis)."""
        full = np.empty(rows.shape[:-1] + (self.n**3,), dtype=np.uint8)
        full[..., self.reps] = rows
        if self._merged is not None:
            cells, sources, maps = self._merged
            # phi(t(r)), with the phi of cells[k] at k * n in maps
            full[..., cells] = maps[full[..., sources] + np.arange(0, maps.size, self.n)]
        for cells, parents, k in self._tree:
            full[..., cells] = self._perms[k][full[..., parents]]
        return full


def _level_tuples(arity, level):
    """The label tuples whose largest label is level, lexicographic, one row per argument."""
    grid = np.indices((level + 1,) * arity).reshape(arity, -1)
    return grid[:, grid.max(axis=0) == level]


def _pointed_classes(alg, cells, bounded):
    """Merge cells c, c' whose ci -> c'i extends to an isomorphism Sg(c) -> Sg(c').

    A cell's code labels its entries and then the constants 0, 1, ... in
    order of first occurrence, then closes: level L applies each
    operation to the label tuples whose largest label is L, in order,
    labels the new results in order of first occurrence, and records the
    label of every result.  The code ends at the level equal to the
    label count, so two cells have one code exactly when the labelling
    extends to such an isomorphism.  A cell is dropped from the pass, and
    left alone, once its label count passes ``most``: n - 1 when not
    bounded, so only a cell that generates A is dropped, and when
    bounded the count the BFS can know after its first round, if that
    is less.  Cells are coded in blocks whose label arrays, and the
    results of any one level, hold at most _BLOCK_CELLS cells.

    cells ascend.  Returns (source, maps, generating): source[i] is the
    least cell whose code is that of cells[i]; for each i with source[i]
    != cells[i], in order, a row of maps is phi, sending an element of
    Sg(source[i]) to the element of Sg(cells[i]) with its label.
    generating is None unless the pass, not bounded, meets a cell that
    generates A: it then stops after that block, and returns its least.
    """
    n = alg.n
    ops = [(alg.table_array(sym).reshape(-1), arity) for sym, arity in alg.sig if arity > 0]
    consts = [int(alg.table_array(sym)[()]) for sym, arity in alg.sig if arity == 0]

    def end(count):
        """The length of a code with count labels."""
        return 3 + len(consts) + sum(count**arity for _, arity in ops)

    most = n - 1
    if bounded:
        # no more labels than the BFS can know after its first round, so a cell's
        # code reads no more table entries than the first two rounds can read on it
        most = min(most, 3 + len(consts) + sum(3**arity for _, arity in ops))
    # rows per block: the label arrays are n wide, the widest level end(most) - end(most - 1)
    rows = max(1, _BLOCK_CELLS // max(n, end(most) - end(most - 1)))
    levels = []  # per level, the label tuples of each arity, built as the pass reaches it
    known = {}  # code -> (least cell, its elements in label order)
    source, maps = cells.copy(), []
    for lo in range(0, len(cells), rows):
        block = cells[lo : lo + rows]
        m = len(block)
        # row i's label of element e at i * n + e, and its element of label l at i * n + l:
        # the elements in label order, then the first entry (label 0) repeated
        label = np.full(m * n, -1, dtype=np.intp)
        elem = np.repeat(block // (n * n), n)
        count = np.zeros(m, dtype=np.intp)
        codes = []

        def name(active, values):
            """The labels of values (a row per active cell), labelling new ones first."""
            base = (active * n)[:, None]
            labels = label[base + values]
            r, t = np.nonzero(labels < 0)
            if len(r):
                v = values[r, t]
                first = np.sort(np.unique(r * n + v, return_index=True)[1])
                r, v = active[r[first]], v[first]
                new = count[r] + np.arange(len(r)) - np.searchsorted(r, r)
                label[r * n + v] = new
                elem[r * n + new] = v
                count[:] += np.bincount(r, minlength=m)
                labels = label[base + values]
            column = np.full((m, values.shape[1]), 255, dtype=np.uint8)
            column[active] = labels
            codes.append(column)

        everyone = np.arange(m)
        start = [block // (n * n), (block // n) % n, block % n] + [np.full(m, k) for k in consts]
        name(everyone, np.stack(start, axis=1))
        # without operations every cell is closed at once
        active = everyone[count <= most] if ops else everyone[:0]
        level = 0
        while len(active):
            if level == len(levels):
                levels.append({arity: _level_tuples(arity, level) for _, arity in ops})
            base, index = (active * n)[:, None], {}
            for arity, args in levels[level].items():
                index[arity] = 0
                for pos in args:
                    index[arity] = index[arity] * n + elem[base + pos]
            name(active, np.hstack([table[index[arity]] for table, arity in ops]))
            level += 1
            active = active[(count[active] > level) & (count[active] <= most)]
        if not bounded and (count > most).any():
            return None, None, int(block[np.argmax(count > most)])
        closed = np.flatnonzero(count <= most)
        if not len(closed):
            continue
        # past its end a code is padded with 255, which no label reaches
        codes = np.hstack(codes)[closed]
        _, first, inverse = np.unique(
            codes.view(np.dtype((np.void, codes.shape[1]))).reshape(-1),
            return_index=True, return_inverse=True,
        )
        least = []
        for i in first.tolist():
            row = closed[i]
            code = codes[i, : end(count[row])].tobytes()
            if code not in known:
                known[code] = (block[row], elem[row * n : row * n + n].copy())
            least.append(known[code])
        least_cells = np.array([cell for cell, _ in least])[inverse.reshape(-1)]
        at = np.flatnonzero(least_cells != block[closed])
        if len(at):
            source[lo + closed[at]] = least_cells[at]
            least_elem = np.array([e for _, e in least])[inverse.reshape(-1)[at]]
            phi = np.zeros((len(at), n), dtype=np.uint8)
            # both rows repeat their label 0 past the count, so the repeats agree
            phi[np.arange(len(at))[:, None], least_elem] = elem.reshape(m, n)[closed[at]]
            maps.append(phi)
    return source, np.concatenate(maps) if maps else np.zeros((0, n), dtype=np.uint8), None


def _clone_orbits(alg):
    """The cells of A^3 up to Aut(alg) and isomorphisms of generated subalgebras; memoised.

    When a cell generates alg, the orbits are those of Aut(alg), read off
    that cell, and their least cells are then merged by the bounded
    ``_pointed_classes``.  Otherwise there is no automorphism, and the
    classes are those of the unbounded pass that looked for such a cell.
    ``reps`` holds the least cell of each class, and ``expand`` fills
    the rest.
    """
    if alg.n > 255:
        raise CarrierBoundError(alg.n, 255)
    hit = alg._memo.get("clone_orbits")
    if hit is None:
        hit = alg._memo["clone_orbits"] = _Orbits(alg.n, _automorphism_generators(alg))
        steps, classes = _generating_cell(alg)
        if steps is not None:
            classes = _pointed_classes(alg, hit.reps, bounded=True)[:2]
        hit.merge_isomorphic(*classes)
    return hit


class CloneResult:
    """Ternary term operations generated so far, with their derivations.

    Tables are held restricted to the representatives of
    ``_clone_orbits``: one cell per class of the orbits of Aut(A) and the
    isomorphisms between the subalgebras the cells generate.  ``table``
    and ``contains`` speak of full n**3 tables.
    """

    def __init__(self, orbits, arrays, index, derivations, complete):
        self.n = orbits.n
        self._orbits = orbits
        self._arrays = arrays
        self._index = index
        self.derivations = derivations
        self.complete = complete

    def __len__(self):
        return len(self._arrays)

    def table(self, i):
        return tuple(self._orbits.expand(self._arrays[i]).tolist())

    def contains(self, table):
        values = np.asarray(table)
        if values.shape != (self.n**3,) or ((values < 0) | (values >= self.n)).any():
            return False
        i = self._index.get(values.astype(np.uint8)[self._orbits.reps].tobytes())
        return i is not None and np.array_equal(self._orbits.expand(self._arrays[i]), values)

    def term(self, i):
        return _reconstruct(self.derivations, i)


def _reconstruct(derivations, i, memo=None):
    if memo is None:
        memo = {}
    if i not in memo:
        memo[i] = _term(derivations, derivations[i], memo)
    return memo[i]


def _term(derivations, deriv, memo):
    """The term of a derivation whose arguments are ids numbered in derivations."""
    kind, payload = deriv
    if kind == "var":
        return Var(_VARS[payload])
    return App(kind, tuple(_reconstruct(derivations, c, memo) for c in payload))


def _heads(stack, n, start, width):
    """Every tuple of ``width`` argument ids over the rows of stack, in lexicographic order.

    Yields (ids, offset, old): offset is the flat-table index of the
    head's values times n, so adding the last argument's values completes
    the index; old tells whether every id in the head is below start.
    """
    if width == 0:
        yield (), np.zeros(stack.shape[1], dtype=np.intp), True
        return
    for ids, offset, old in _heads(stack, n, start, width - 1):
        for i in range(len(stack)):
            yield ids + (i,), (offset + stack[i]) * n, old and i < start


def _evaluate(kernel, offset, args):
    """The bytes of one operation's values on a block of argument rows.

    Row r's index into the flattened table is offset + args[r].  A bytes
    kernel is a table of at most 256 entries padded to 256 bytes, with
    offset in uint8; an array kernel is the flattened table itself, with
    offset in uint16 when it has at most 65 536 entries, else in intp.
    """
    if type(kernel) is bytes:
        return (args + offset).tobytes().translate(kernel)
    return kernel.take(offset + args).tobytes()


def _clone_rounds(alg, cap):
    """Drive the BFS one round at a time, yielding each round before it is numbered.

    Yields (arrays, index, derivations, fresh, room) once a round is
    evaluated: arrays, index (each table's bytes to its id) and
    derivations hold the tables of the rounds before, fresh maps the
    bytes of each table the round found new to its derivation, in the
    order of the argument tuples, and room is cap - len(arrays).  The
    first round is the three projections.  When the generator resumes,
    the room least keys of fresh are numbered in key order, and the BFS
    stops after a round with no fresh table (the fixpoint) or with more
    than room (the cap); a consumer that stops at a round leaves it
    unnumbered.  Tables are restricted to the representatives of
    ``_clone_orbits(alg)``.
    """
    n = alg.n
    reps = _clone_orbits(alg).reps
    if cap < 3:
        raise ValueError("cap must allow at least the three projections")
    size = len(reps)
    # one row per table, so a block is one row once a row exceeds _BLOCK_CELLS
    rows = max(1, _BLOCK_CELLS // size)
    kernels, offsets, mirrored = {}, {}, {}
    for sym, arity in alg.sig:
        if arity > 0:
            table = alg.table_array(sym)
            flat = table.astype(np.uint8).reshape(-1)
            if flat.size <= 256:
                kernels[sym], offsets[sym] = flat.tobytes().ljust(256, b"\0"), np.uint8
            else:
                kernels[sym] = flat
                offsets[sym] = np.uint16 if flat.size <= 1 << 16 else np.intp
            if arity == 2 and np.array_equal(table, table.T):
                # the least last argument of a pair with head i is i, or i + 1
                # when f(t, t) = t
                mirrored[sym] = int(np.array_equal(np.diagonal(table), np.arange(n)))

    arrays, derivations = [], []
    known = {}
    fresh = {}
    # the projections' keys ascend, x < y < z, so key order is variable order
    for i, values in enumerate((reps // (n * n), (reps // n) % n, reps % n)):
        fresh.setdefault(values.astype(np.uint8).tobytes(), ("var", i))
    depth = 0
    while True:
        room = cap - len(arrays)
        yield arrays, known, derivations, fresh, room
        frontier_start = len(arrays)
        for key in sorted(fresh)[:room]:
            known[key] = len(arrays)
            arrays.append(np.frombuffer(key, dtype=np.uint8))
            derivations.append(fresh[key])
        if not fresh or len(fresh) > room:
            return
        depth += 1
        total = len(arrays)
        stack = np.frombuffer(b"".join(known), dtype=np.uint8).reshape(total, size)
        fresh = {}
        for sym, arity in alg.sig:
            if arity == 0:
                if depth == 1:
                    key = bytes([alg.table_array(sym)[()]]) * size
                    if key not in known and key not in fresh:
                        fresh[key] = (sym, ())
                continue
            kernel = kernels[sym]
            for head, offset, old in _heads(stack, n, frontier_start, arity - 1):
                first = frontier_start if old else 0
                if sym in mirrored:
                    first = max(first, head[0] + mirrored[sym])
                offset = offset.astype(offsets[sym], copy=False)
                for lo in range(first, total, rows):
                    block = _evaluate(kernel, offset, stack[lo : lo + rows])
                    for last, at in enumerate(range(0, len(block), size), lo):
                        key = block[at : at + size]
                        if key not in known and key not in fresh:
                            fresh[key] = (sym, head + (last,))


def generate_clone3(alg, cap=200_000):
    """Run the clone BFS to its fixpoint (or the table cap).

    The cap bounds the tables kept, not the work: the round that crosses
    it is still evaluated in full before the tables past the cap are
    dropped.
    """
    for arrays, index, derivations, fresh, _room in _clone_rounds(alg, cap):
        pass
    return CloneResult(_clone_orbits(alg), arrays, index, derivations, complete=not fresh)


def _maltsev_masks(alg):
    """Where a restricted table holds p(x,y,y) and p(x,x,y), and the values a Maltsev term has there.

    Both lists run over the pairs (x, y) least in their class under
    ``_clone_orbits``, ascending, so position k of each belongs to the
    same pair.
    """
    n = alg.n
    reps = _clone_orbits(alg).reps
    x, y, z = reps // (n * n), (reps // n) % n, reps % n
    i_xyy, i_xxy = np.flatnonzero(y == z), np.flatnonzero(x == y)
    return i_xyy, i_xxy, x[i_xyy].astype(np.uint8), z[i_xxy].astype(np.uint8)


def _fresh_blocks(fresh):
    """The keys of fresh in blocks of at most _BLOCK_CELLS cells, each with its 2-D array.

    Row r of a block's array is the table of its r-th key.
    """
    keys = list(fresh)
    if not keys:
        return
    rows = max(1, _BLOCK_CELLS // len(keys[0]))
    for lo in range(0, len(keys), rows):
        chunk = keys[lo : lo + rows]
        yield chunk, np.frombuffer(b"".join(chunk), dtype=np.uint8).reshape(len(chunk), -1)


def _admitted(fresh, room):
    """Whether a key of fresh is numbered: all are when they fit, else the room least."""
    if len(fresh) <= room:
        return lambda key: True
    if not room:
        return lambda key: False
    last = sorted(fresh)[room - 1]
    return lambda key: key <= last


def _witness(alg, index, derivations, fresh, key, memo):
    """The TermWitness of a table's bytes, numbered in index or new in fresh."""
    deriv = fresh[key] if key in fresh else derivations[index[key]]
    table = tuple(_clone_orbits(alg).expand(np.frombuffer(key, dtype=np.uint8)).tolist())
    return TermWitness(table, _term(derivations, deriv, memo))


def find_maltsev_term(alg, cap=200_000):
    """Search the clone for a table with p(x,y,y)=x and p(x,x,y)=y.

    Returns the first witness in (depth, lexicographic table) order; a
    definitive ``none`` only at clone fixpoint, ``inconclusive`` at cap.
    Each round is tested before it is numbered: ids within a round
    follow key order, so the witness is the least key that passes, and
    when the round crosses the cap it is kept only if fewer than room
    new keys are smaller.  A round with a witness is never numbered.
    The cap bounds the tables kept, as in generate_clone3: the round
    that crosses it is still evaluated in full.
    """
    i_xyy, i_xxy, want_x, want_y = _maltsev_masks(alg)
    for arrays, index, derivations, fresh, room in _clone_rounds(alg, cap):
        explored = len(arrays) + min(len(fresh), room)
        hits = []
        for keys, block in _fresh_blocks(fresh):
            passed = (block[:, i_xyy] == want_x).all(axis=1) & (block[:, i_xxy] == want_y).all(axis=1)
            hits.extend(keys[r] for r in np.flatnonzero(passed).tolist())
        least = min(hits, default=None)
        if least is not None and _admitted(fresh, room)(least):
            witness = _witness(alg, index, derivations, fresh, least, {})
            return SearchOutcome(FOUND, witness, explored=explored)
        if not fresh or len(fresh) > room:
            return SearchOutcome(NONE if not fresh else INCONCLUSIVE, explored=explored)
    raise AssertionError("clone stream ended without a final round")


def find_hm_terms(alg, cap=200_000):
    """Search for tables p, q with p(x,y,y)=x, q(x,x,y)=y and p(x,x,y)=q(x,y,y).

    The returned pair is the one minimizing (p id, q id) at the first
    BFS depth admitting any valid pair.  Candidates are read off each
    round before it is numbered, and kept by key: ids within a round
    follow key order, and the round's keys past the cap are dropped.
    The cap bounds the tables kept, as in generate_clone3: the round
    that crosses it is still evaluated in full.
    """
    i_xyy, i_xxy, want_x, want_y = _maltsev_masks(alg)
    p_keys = []  # (key, p(x,x,y) bytes) of every table with p(x,y,y)=x, in id order
    q_least = {}  # q(x,y,y) bytes -> key of the least table with q(x,x,y)=y and those values
    for arrays, index, derivations, fresh, room in _clone_rounds(alg, cap):
        admitted = _admitted(fresh, room)
        new_p, new_q = [], []
        for keys, block in _fresh_blocks(fresh):
            xyy, xxy = block[:, i_xyy], block[:, i_xxy]
            for r in np.flatnonzero((xyy == want_x).all(axis=1)).tolist():
                if admitted(keys[r]):
                    new_p.append((keys[r], xxy[r].tobytes()))
            for r in np.flatnonzero((xxy == want_y).all(axis=1)).tolist():
                if admitted(keys[r]):
                    new_q.append((keys[r], xyy[r].tobytes()))
        p_keys.extend(sorted(new_p))
        for key, xyy in sorted(new_q):
            q_least.setdefault(xyy, key)
        # the least p with a partner, then its least partner: the lex-least pair
        best = next(((p, q_least[xxy]) for p, xxy in p_keys if xxy in q_least), None)
        explored = len(arrays) + min(len(fresh), room)
        if best is not None:
            memo = {}
            witness = tuple(_witness(alg, index, derivations, fresh, key, memo) for key in best)
            return SearchOutcome(FOUND, witness, explored=explored)
        if not fresh or len(fresh) > room:
            return SearchOutcome(NONE if not fresh else INCONCLUSIVE, explored=explored)
    raise AssertionError("clone stream ended without a final round")


def maltsev_identities_hold(n, table):
    """Plain re-check of the two defining identities, independent of the search."""
    for x in range(n):
        for y in range(n):
            if table[(x * n + y) * n + y] != x:
                return False
            if table[(x * n + x) * n + y] != y:
                return False
    return True


def hm_identities_hold(n, p_table, q_table):
    """Plain re-check of the three two-term identities."""
    for x in range(n):
        for y in range(n):
            if p_table[(x * n + y) * n + y] != x:
                return False
            if q_table[(x * n + x) * n + y] != y:
                return False
            if p_table[(x * n + x) * n + y] != q_table[(x * n + y) * n + y]:
                return False
    return True
