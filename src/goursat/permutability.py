"""Permutability of congruence pairs and ternary term searches.

Term searches run over the clone generated on three variables: the
breadth-first closure of the three ternary projections under pointwise
application of the algebra's basic operations.  Tables are deduplicated
by content; within a round, new tables get ids in lexicographic table
order, which fixes every witness choice.

The BFS uses two exact symmetries of A.

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
position.  G is found by backtracking over the images of a generating
sequence of A, pruned by colour refinement and by the orbits of the
automorphisms already found, and the search stops after n**3 candidate
images, the cells of one full table.  Any group gives an exact
reduction, so a search cut short only costs compression.  Witnesses and
``CloneResult`` expand tables back to all n**3 cells.

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
sum cannot overflow.  Larger tables are read by one intp gather.  Either
way the block comes out as the bytes the rows are keyed by.  Rows are
then deduplicated in the order of their argument tuples, the order of the
one-tuple-at-a-time loop, so each new table keeps the same first
derivation, and the order that fixes witnesses is unchanged.  Each
table is stored once: its bytes are the deduplication key, and its
array is a read-only view of those bytes.  The Maltsev search tests new
tables in array blocks; the Hagemann-Mitschke search joins p and q
candidates by a hash of the restriction they must share.
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


# -- automorphisms and the orbits of A^3 -------------------------------------------


def _compact(codes):
    """Codes renumbered 0, 1, ... in ascending order, same shape."""
    return np.unique(codes, return_inverse=True)[1].reshape(codes.shape)


def _colours(alg):
    """An automorphism-invariant colouring of the carrier, by colour refinement.

    Each constant starts in a colour of its own.  A round splits colours
    by, for each operation and argument position, the sorted codes of the
    (arguments, result) tuples an element occurs in at that position: a
    tuple's code is its colours and which of its entries are equal.
    """
    n = alg.n
    colour = np.zeros(n, dtype=np.intp)
    for i, (sym, arity) in enumerate(alg.sig, 1):
        if arity == 0 and not colour[alg.table_array(sym)[()]]:
            colour[alg.table_array(sym)[()]] = i
    colour = _compact(colour)
    entries, equal = {}, {}
    for sym, arity in alg.sig:
        if arity > 0:
            entries[sym] = list(np.ix_(*(np.arange(n),) * arity)) + [alg.table_array(sym)]
            equal[sym] = 0
            for i in range(arity + 1):
                for j in range(i + 1, arity + 1):
                    equal[sym] = equal[sym] * 2 + (entries[sym][i] == entries[sym][j])
    while True:
        parts = [colour[:, None]]
        for sym, arity in alg.sig:
            if arity == 0:
                continue
            code = equal[sym]
            for values in entries[sym]:
                code = _compact(code * n + colour[values])
            for axis in range(arity):
                parts.append(np.sort(np.moveaxis(code, axis, 0).reshape(n, -1), axis=1))
        refined = np.unique(np.hstack(parts), axis=0, return_inverse=True)[1].reshape(-1)
        if refined.max() == colour.max():
            return colour
        colour = refined


def _generating_sequence(alg):
    """A generating sequence of alg and the order in which it generates the carrier.

    Returns (base, levels): base is the subuniverse generated by the
    constants, ascending.  Level j is (g, steps, domain): g is the least
    element not yet generated; steps derive the rest of what g adds as
    (element, sym, args), each from elements generated before it; domain
    is the subuniverse generated so far, ascending.
    """
    inside = np.zeros(alg.n, dtype=bool)

    def close():
        steps, grew = [], True
        while grew:
            grew = False
            members = np.flatnonzero(inside)
            for sym, arity in alg.sig:
                if arity == 0 or not len(members):
                    continue
                values = alg.table_array(sym)[np.ix_(*(members,) * arity)].reshape(-1)
                fresh, first = np.unique(values, return_index=True)
                for v, at in zip(fresh.tolist(), first.tolist()):
                    if not inside[v]:
                        at = np.unravel_index(at, (len(members),) * arity)
                        steps.append((v, sym, tuple(members[list(at)].tolist())))
                        inside[v] = grew = True
        return steps

    for sym, arity in alg.sig:
        if arity == 0:
            inside[alg.table_array(sym)[()]] = True
    close()
    base = np.flatnonzero(inside)
    levels = []
    while not inside.all():
        g = int(np.argmin(inside))
        inside[g] = True
        steps = close()
        levels.append((g, steps, np.flatnonzero(inside)))
    return base, levels


def _point_orbit(x, gens):
    """The orbit of the point x under the group generated by gens."""
    orbit, frontier = {x}, [x]
    while frontier:
        frontier = [int(g[p]) for p in frontier for g in gens if int(g[p]) not in orbit]
        orbit.update(frontier)
    return orbit


def _automorphism_generators(alg):
    """Generators of a group of automorphisms of alg: all of Aut(alg) unless cut short.

    An automorphism is fixed by its images of a generating sequence
    g_0..g_k-1.  For j from k-1 down to 0, and each v of g_j's colour not
    yet in the orbit of g_j under the generators found so far, the search
    looks for one automorphism fixing g_0..g_j-1 and sending g_j to v, by
    backtracking over the images of g_j+1..g_k-1.  Each image is extended
    along the derivations of the subuniverse it generates, and that part
    is checked to be a colour-preserving, injective homomorphism.  The
    generators found at levels >= j then generate the stabiliser of
    g_0..g_j-1, so at level 0 they generate Aut(alg).  The search stops
    after n**3 candidate images, keeping the generators found.
    """
    n = alg.n
    colour = _colours(alg)
    base, levels = _generating_sequence(alg)
    tables = {sym: alg.table_array(sym) for sym, _ in alg.sig}
    ops = [(tables[sym], arity) for sym, arity in alg.sig if arity > 0]
    candidates = [np.flatnonzero(colour == colour[g]).tolist() for g, _, _ in levels]
    budget = n**3

    def search(phi, j, v):
        """An automorphism agreeing with phi below level j and sending g_j to v, or None."""
        nonlocal budget
        if budget == 0:
            return None
        budget -= 1
        g, steps, domain = levels[j]
        phi = phi.copy()
        phi[g] = v
        for e, sym, args in steps:
            phi[e] = tables[sym][tuple(phi[list(args)])]
        image = phi[domain]
        if (colour[image] != colour[domain]).any() or len(np.unique(image)) < len(domain):
            return None
        for table, arity in ops:
            if not np.array_equal(phi[table[np.ix_(*(domain,) * arity)]],
                                  table[np.ix_(*(image,) * arity)]):
                return None
        if j + 1 == len(levels):
            return phi
        for w in candidates[j + 1]:
            found = search(phi, j + 1, w)
            if found is not None:
                return found
        return None

    gens = []
    for j in reversed(range(len(levels))):
        g = levels[j][0]
        fixed = levels[j - 1][2] if j else base
        prefix = np.full(n, -1, dtype=np.intp)
        prefix[fixed] = fixed
        orbit = _point_orbit(g, gens)
        for v in candidates[j]:
            if v not in orbit:
                aut = search(prefix, j, v)
                if aut is not None:
                    gens.append(aut)
                    orbit = _point_orbit(g, gens)
    return gens


class _Orbits:
    """The orbits of the group generated by gens, automorphisms of A, on the cells of A^3.

    ``reps`` holds the least cell of each orbit, ascending.  ``expand``
    rebuilds full tables from their values on reps along a breadth-first
    tree of each orbit: a cell c = s(parent) with s a generator takes the
    value s(t(parent)).
    """

    def __init__(self, n, gens):
        self.n = n
        size = n**3
        self._perms = np.array(gens, dtype=np.uint8).reshape(len(gens), n)
        self._tree = []  # (cells, parents, generator index), parents always earlier
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

    def expand(self, rows):
        """Full uint8 tables from tables restricted to reps (the last axis)."""
        full = np.empty(rows.shape[:-1] + (self.n**3,), dtype=np.uint8)
        full[..., self.reps] = rows
        for cells, parents, k in self._tree:
            full[..., cells] = self._perms[k][full[..., parents]]
        return full


def _clone_orbits(alg):
    """The orbits of Aut(alg), or of the part the search found, on A^3; memoised."""
    if alg.n > 255:
        raise CarrierBoundError(alg.n, 255)
    hit = alg._memo.get("clone_orbits")
    if hit is None:
        hit = alg._memo["clone_orbits"] = _Orbits(alg.n, _automorphism_generators(alg))
    return hit


class CloneResult:
    """Ternary term operations generated so far, with their derivations.

    Tables are held restricted to the orbit representatives; ``table``
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
    if i in memo:
        return memo[i]
    kind, payload = derivations[i]
    if kind == "var":
        t = Var(_VARS[payload])
    else:
        t = App(kind, tuple(_reconstruct(derivations, c, memo) for c in payload))
    memo[i] = t
    return t


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
    offset in uint8; an array kernel is the flattened table itself.
    """
    if type(kernel) is bytes:
        return (args + offset).tobytes().translate(kernel)
    return kernel[offset + args].tobytes()


def _clone_rounds(alg, cap):
    """Drive the BFS one round at a time.

    Yields (arrays, index, derivations, new_ids, done, complete) after
    every round, index mapping each table's bytes to its id; stops after
    the fixpoint round or once cap tables exist.  Tables are restricted
    to the representatives of ``_clone_orbits(alg)``.
    """
    n = alg.n
    reps = _clone_orbits(alg).reps
    if cap < 3:
        raise ValueError("cap must allow at least the three projections")
    size = len(reps)
    # one row per table, so a block is one row once a row exceeds _BLOCK_CELLS
    rows = max(1, _BLOCK_CELLS // size)
    projections = [reps // (n * n), (reps // n) % n, reps % n]
    kernels, mirrored = {}, {}
    for sym, arity in alg.sig:
        if arity > 0:
            table = alg.table_array(sym)
            flat = table.astype(np.uint8).reshape(-1)
            kernels[sym] = flat.tobytes().ljust(256, b"\0") if flat.size <= 256 else flat
            if arity == 2 and np.array_equal(table, table.T):
                # the least last argument of a pair with head i is i, or i + 1
                # when f(t, t) = t
                mirrored[sym] = int(np.array_equal(np.diagonal(table), np.arange(n)))

    arrays, derivations = [], []
    known = {}
    for i, values in enumerate(projections):
        key = values.astype(np.uint8).tobytes()
        if key not in known:
            known[key] = len(arrays)
            arrays.append(np.frombuffer(key, dtype=np.uint8))
            derivations.append(("var", i))
    new_ids = list(range(len(arrays)))
    yield arrays, known, derivations, new_ids, False, False

    depth = 0
    frontier_start = 0
    while True:
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
                if type(kernel) is bytes:
                    offset = offset.astype(np.uint8)
                for lo in range(first, total, rows):
                    block = _evaluate(kernel, offset, stack[lo : lo + rows])
                    for last, at in enumerate(range(0, len(block), size), lo):
                        key = block[at : at + size]
                        if key not in known and key not in fresh:
                            fresh[key] = (sym, head + (last,))
        if not fresh:
            yield arrays, known, derivations, [], True, True
            return
        ordered = sorted(fresh.items())
        room = cap - len(arrays)
        capped = len(ordered) > room
        if capped:
            ordered = ordered[:room]
        new_ids = []
        for key, deriv in ordered:
            known[key] = len(arrays)
            new_ids.append(len(arrays))
            arrays.append(np.frombuffer(key, dtype=np.uint8))
            derivations.append(deriv)
        if capped:
            yield arrays, known, derivations, new_ids, True, False
            return
        frontier_start = total
        yield arrays, known, derivations, new_ids, False, False


def generate_clone3(alg, cap=200_000):
    """Run the clone BFS to its fixpoint (or the table cap).

    The cap bounds the tables kept, not the work: the round that crosses
    it is still evaluated in full before the tables past the cap are
    dropped.
    """
    for arrays, index, derivations, _new, done, complete in _clone_rounds(alg, cap):
        if done:
            return CloneResult(_clone_orbits(alg), arrays, index, derivations, complete)
    raise AssertionError("clone stream ended without a final round")


def _maltsev_masks(alg):
    """Where a restricted table holds p(x,y,y) and p(x,x,y), and the values a Maltsev term has there.

    Both lists run over the pairs (x, y) least in their orbit, ascending,
    so position k of each belongs to the same pair.
    """
    n = alg.n
    reps = _clone_orbits(alg).reps
    x, y, z = reps // (n * n), (reps // n) % n, reps % n
    i_xyy, i_xxy = np.flatnonzero(y == z), np.flatnonzero(x == y)
    return i_xyy, i_xxy, x[i_xyy].astype(np.uint8), z[i_xxy].astype(np.uint8)


def _full_witness(alg, arrays, derivations, i, memo=None):
    table = tuple(_clone_orbits(alg).expand(arrays[i]).tolist())
    return TermWitness(table, _reconstruct(derivations, i, memo))


def _new_blocks(arrays, new_ids):
    """The new tables as 2-D blocks of at most _BLOCK_CELLS cells, each with the id of its first row.

    new_ids is an ascending run of consecutive ids, so row r of a block
    is table first + r.
    """
    if not new_ids:
        return
    rows = max(1, _BLOCK_CELLS // arrays[new_ids[0]].size)
    for lo in range(0, len(new_ids), rows):
        chunk = new_ids[lo : lo + rows]
        yield chunk[0], np.stack([arrays[i] for i in chunk])


def find_maltsev_term(alg, cap=200_000):
    """Search the clone for a table with p(x,y,y)=x and p(x,x,y)=y.

    Returns the first witness in (depth, lexicographic table) order; a
    definitive ``none`` only at clone fixpoint, ``inconclusive`` at cap.
    The cap bounds the tables kept, as in generate_clone3: the round that
    crosses it is still evaluated in full.
    """
    i_xyy, i_xxy, want_x, want_y = _maltsev_masks(alg)
    for arrays, _index, derivations, new_ids, done, complete in _clone_rounds(alg, cap):
        for first, block in _new_blocks(arrays, new_ids):
            hits = (block[:, i_xyy] == want_x).all(axis=1) & (block[:, i_xxy] == want_y).all(axis=1)
            if hits.any():
                witness = _full_witness(alg, arrays, derivations, first + int(hits.argmax()))
                return SearchOutcome(FOUND, witness, explored=len(arrays))
        if done:
            status = NONE if complete else INCONCLUSIVE
            return SearchOutcome(status, explored=len(arrays))
    raise AssertionError("clone stream ended without a final round")


def find_hm_terms(alg, cap=200_000):
    """Search for tables p, q with p(x,y,y)=x, q(x,x,y)=y and p(x,x,y)=q(x,y,y).

    The returned pair is the one minimizing (p id, q id) at the first
    BFS depth admitting any valid pair.  The cap bounds the tables kept,
    as in generate_clone3: the round that crosses it is still evaluated
    in full.
    """
    i_xyy, i_xxy, want_x, want_y = _maltsev_masks(alg)
    p_keys = []  # (id, p(x,x,y) bytes) of every table with p(x,y,y)=x, ids ascending
    q_least = {}  # q(x,y,y) bytes -> least id of a table with q(x,x,y)=y and those values
    for arrays, _index, derivations, new_ids, done, complete in _clone_rounds(alg, cap):
        for first, block in _new_blocks(arrays, new_ids):
            xyy, xxy = block[:, i_xyy], block[:, i_xxy]
            for r in np.flatnonzero((xyy == want_x).all(axis=1)):
                p_keys.append((first + int(r), xxy[r].tobytes()))
            for r in np.flatnonzero((xxy == want_y).all(axis=1)):
                q_least.setdefault(xyy[r].tobytes(), first + int(r))
        # the least p with a partner, then its least partner: the lex-least pair
        best = next(((pi, q_least[key]) for pi, key in p_keys if key in q_least), None)
        if best is not None:
            pi, qi = best
            memo = {}
            witness = tuple(_full_witness(alg, arrays, derivations, i, memo) for i in (pi, qi))
            return SearchOutcome(FOUND, witness, explored=len(arrays))
        if done:
            status = NONE if complete else INCONCLUSIVE
            return SearchOutcome(status, explored=len(arrays))
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
