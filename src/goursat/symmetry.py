"""The symmetries of A^3 that the clone BFS restricts its tables by.

A term operation on three variables is fixed by its values on one cell
of each class of two exact symmetries of A^3: the automorphisms of A,
and the isomorphisms between the subalgebras that the cells generate.
``_clone_orbits`` finds the classes along one path.  When the greedy
cell c0 (below) generates A, Aut(A) is read off it, and the least cells
of its orbits are merged by the bounded subalgebra pass; otherwise no
automorphism is used, and the unbounded pass codes every cell to its
closure.  Only the representatives are kept: a full table is never
rebuilt from them, but read off its term on all of A^3 (``permutability``).

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
position.  Let c0 be the greedy cell, each entry the least element not
generated so far by the constants and the entries before it.  G is
Aut(A) when c0 generates A, and trivial otherwise.  An automorphism is
fixed by its values on a generating set, so Aut(A) is read off c0 in
one pass: c0's derivation of every element is replayed from each
candidate image of its entries, and the maps that are bijective
homomorphisms are all of Aut(A).  The derivation is read off the
subpower engine, ``subpower._rounds`` run on c0's entries as rows of
length one: the one closure with derivations, which the term searches
run on the projections.  R is read off the generators by
``relations._orbit_least``, the one orbit fixpoint, which also finds
the pairs that ``con_lattice`` generates principal congruences at.

Isomorphic subalgebras.  A term operation commutes with every
homomorphism h from a subalgebra of A into A, not only with the
automorphisms: t(hx, hy, hz) = h t(x, y, z).  Let Sg(c) be the
subalgebra generated by the entries of the cell c and the constants.
When ci -> c'i extends to an isomorphism phi: Sg(c) -> Sg(c'), every
term t has t(c) in Sg(c) and t(c') = phi(t(c)).  So the least cells the
orbits keep are merged further, two cells whenever their generated
subalgebras are isomorphic this way, and R becomes the least cell of
each class.  The proof above
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
for all representatives at once.  When c0 generates A, G is all of
Aut(A), and the pass drops a cell that generates A, which is related to
others only by automorphisms, and a cell whose subalgebra grows past a
bound that caps the pass's cost; a cell left unmerged only costs
compression.  When c0 falls short, G is trivial and the pass codes
every cell to its closure, so it merges every class: two cells that
generate A merge exactly when an automorphism relates them.  Whether a
cell is dropped depends only on its code after the labels of its three
entries, which (a,b,b) and (a,a,b) share, so the pairing holds for
dropped cells too.
"""

import numpy as np

from . import terms
from .algebras import generate_subuniverse
from .relations import _orbit_least
from .subpower import _ENGINE_LIMIT, _rounds


def _derivation(alg):
    """How the greedy cell's entries and the constants generate alg, or None when they do not.

    Each entry of the greedy cell is the least element outside the
    subuniverse that the entries before it generate; None is returned
    when three entries fall short.  Otherwise returns steps (e, sym,
    args) that name every element once, each from earlier ones: by an
    operation, a constant included, or, with sym None, as free generator
    number args.  The steps are those of ``subpower._rounds`` run on the
    entries as rows of length one, so an element's row is its value.
    When the constants alone generate alg there is nothing to replay,
    and the steps are empty.
    """
    entries, inside = [], generate_subuniverse(alg, ())
    while len(inside) < alg.n and len(entries) < 3:
        entries.append(min(set(range(alg.n)) - inside))
        inside = generate_subuniverse(alg, entries)
    if len(inside) < alg.n:
        return None
    for index, derivations, *_ in _rounds(alg, np.array(entries, dtype=np.uint8)[:, None], alg.n):
        pass
    elems = [key[0] for key in index]
    return [(e, kind, args if kind is None else tuple(elems[a] for a in args))
            for e, (kind, args) in zip(elems, derivations)]


def _automorphism_generators(alg, steps):
    """Generators of Aut(alg), read off steps, the greedy cell's ``_derivation``.

    An automorphism is fixed by its images of the k free generators of
    the derivation.  The derivation is replayed from every image tuple
    in A^k at once, a block at a time, and the bijective homomorphisms
    it yields are all of Aut(alg).  Aut(alg) acts freely on these
    tuples, so a map is kept exactly when its tuple lies outside the
    orbit of the free generators under the maps kept so far.
    """
    free = [e for e, sym, _ in steps if sym is None]
    if not free:
        # the constants generate alg, and every automorphism fixes them
        return []
    n = alg.n
    ops = [(alg.table_array(sym), arity) for sym, arity in alg.sig if arity > 0]
    # the argument tuples of an operation that share their first argument
    widest = n ** max((arity - 1 for _, arity in ops), default=0)
    shape = (n,) * len(free)
    size = int(np.prod(shape))
    reached = np.zeros(size, dtype=bool)
    reached[np.ravel_multi_index(free, shape)] = True
    gens = []
    rows = max(1, terms._BLOCK_CELLS // max(n, widest))
    for lo in range(0, size, rows):
        codes = np.arange(lo, min(size, lo + rows))
        images = np.unravel_index(codes, shape)
        # phi[e] holds the image of e under every candidate of the block
        phi = np.empty((n, len(codes)), dtype=np.intp)
        for e, sym, args in steps:
            if sym is None:
                phi[e] = images[args]
            else:
                phi[e] = alg.table_array(sym)[tuple(phi[a] for a in args)]
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
                homomorphic = sub[table[tuple(args)]] == table[tuple(sub[a] for a in args)]
                keep[at[~homomorphic.all(axis=0)]] = False
            x += width
            width = max(1, min(2 * width, terms._BLOCK_CELLS // (len(at) * widest)))
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
    extends to such an isomorphism.  When bounded, a cell is dropped
    from the pass, and left alone, once its label count passes ``most``:
    n - 1, so that a cell that generates A is dropped, or the count the
    BFS can know after its first round, if that is less.  When not
    bounded, ``most`` is n and every cell is coded to its closure.
    Cells are coded in blocks whose label arrays, and the results of any
    one level, hold at most _BLOCK_CELLS cells.

    cells ascend.  Returns source: source[i] is the least cell whose
    code is that of cells[i].
    """
    n = alg.n
    ops = [(alg.table_array(sym), arity) for sym, arity in alg.sig if arity > 0]
    consts = [int(alg.table_array(sym)[()]) for sym, arity in alg.sig if arity == 0]

    def end(count):
        """The length of a code with count labels."""
        return 3 + len(consts) + sum(count**arity for _, arity in ops)

    most = n
    if bounded:
        # no more labels than the BFS can know after its first round, so a cell's
        # code reads no more table entries than the first two rounds can read on it
        most = min(n - 1, 3 + len(consts) + sum(3**arity for _, arity in ops))
    # rows per block: the label arrays are n wide, the widest level end(most) - end(most - 1)
    rows = max(1, terms._BLOCK_CELLS // max(n, end(most) - end(most - 1)))
    levels = []  # per level, the label tuples of each arity, built as the pass reaches it
    known = {}  # code -> its least cell
    source = cells.copy()
    for lo in range(0, len(cells), rows):
        block = cells[lo : lo + rows]
        m = len(block)
        # row i's label of element e at i * n + e, and its element of label l at i * n + l
        label = np.full(m * n, -1, dtype=np.intp)
        elem = np.zeros(m * n, dtype=np.intp)
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
            column = np.full((m, values.shape[1]), _ENGINE_LIMIT, dtype=np.uint8)
            column[active] = labels
            codes.append(column)

        everyone = np.arange(m)
        start = [*_projections(n, block)] + [np.full(m, k) for k in consts]
        name(everyone, np.stack(start, axis=1))
        # without operations every cell is closed at once
        active = everyone[count <= most] if ops else everyone[:0]
        level = 0
        while len(active):
            if level == len(levels):
                levels.append({arity: _level_tuples(arity, level) for _, arity in ops})
            base = (active * n)[:, None]
            # one coordinate tuple per arity, shared by the operations of that arity
            coords = {arity: tuple(elem[base + pos] for pos in args)
                      for arity, args in levels[level].items()}
            name(active, np.hstack([table[coords[arity]] for table, arity in ops]))
            level += 1
            active = active[(count[active] > level) & (count[active] <= most)]
        closed = np.flatnonzero(count <= most)
        if not len(closed):
            continue
        # past its end a code is padded with _ENGINE_LIMIT: labels are below n, which
        # the engine bounds by it, so no label reaches the pad
        codes = np.hstack(codes)[closed]
        _, first, inverse = np.unique(
            codes.view(np.dtype((np.void, codes.shape[1]))).reshape(-1),
            return_index=True, return_inverse=True,
        )
        least = [known.setdefault(codes[i, : end(count[closed[i]])].tobytes(), block[closed[i]])
                 for i in first.tolist()]
        source[lo + closed] = np.array(least)[inverse.reshape(-1)]
    return source


def _projections(n, cells):
    """The rows of x, y and z on cells of A^3, each cell coded (x * n + y) * n + z.

    The one decoding of cell codes; the rows are uint8, as the subpower
    engine takes them, so n is at most ``subpower._ENGINE_LIMIT``.
    """
    return np.stack([cells // (n * n), (cells // n) % n, cells % n]).astype(np.uint8)


def _clone_orbits(alg):
    """The least cells, ascending, of the classes of A^3 under Aut(alg) and subalgebra isomorphisms; memoised.

    When the greedy cell generates alg, the orbits are those of
    Aut(alg), read off that cell; ``_orbit_least`` finds their least
    cells, acting on each cell's entries, and these are merged by
    the bounded ``_pointed_classes``.  Otherwise no automorphism is
    used, and the unbounded pass codes each cell to its closure, so the
    cells that generate alg merge by their full codes.
    """
    return alg._cached("clone_orbits", _least_cells, alg)


def _least_cells(alg):
    """The least cells, built on a miss of ``_clone_orbits``' cache."""
    n, steps = alg.n, _derivation(alg)
    cells = np.arange(n**3)
    x, y, z = _projections(n, cells)
    gens = [] if steps is None else _automorphism_generators(alg, steps)
    least = _orbit_least(cells, gens, lambda g: (g[x] * n + g[y]) * n + g[z])
    reps = np.flatnonzero(least == cells)
    source = _pointed_classes(alg, reps, bounded=steps is not None)
    return reps[source == reps]
