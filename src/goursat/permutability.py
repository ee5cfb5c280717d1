"""Permutability of congruence pairs and ternary term searches.

Term searches run over the clone generated on three variables: the
breadth-first closure of the three ternary projections under pointwise
application of the algebra's basic operations.  Tables are deduplicated
by content; within a round, new tables get ids in lexicographic table
order, which fixes every witness choice.

The BFS uses three exact symmetries of A.  The first two, the
automorphisms of A and the isomorphisms between the subalgebras that
the cells of A^3 generate, live in ``symmetry``: every table is held
restricted to the representatives of ``_clone_orbits``, one cell per
class, and ``symmetry`` proves that this keeps ids, derivations,
witnesses and the cap cut unchanged.  A witness's full n**3 table is its
term evaluated on all of A^3, so it does not rest on those proofs.

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
that fixes witnesses is unchanged.  Each table is stored once, as its
bytes, the deduplication key.

A round is searched before it is numbered.  Ids within a round follow
key order, so the least new key that passes a test is the least id, and
a key is kept under the cap exactly when fewer than the round's room new
keys are smaller.  Both searches run through one round loop, ``_search``,
which reads the new keys in array blocks, stops at a witness without
numbering its round, and owns the count and the three endings.  The
Maltsev test takes the least key that passes both identities; the
Hagemann-Mitschke test reads its p and q candidates off the same
blocks, keeps them by key, and joins them by a hash of the restriction
they must share.
"""

from dataclasses import dataclass

import numpy as np

from .relations import _index, composite, require_congruence
from .symmetry import _clone_orbits
from .terms import _BLOCK_CELLS, App, Var, _eval_array
from .verdict import Verdict

TWO = "two"
THREE = "three"
NEITHER = "neither"

FOUND = "found"
NONE = "none"
INCONCLUSIVE = "inconclusive"

_VARS = ("x", "y", "z")


def _level(alg, r, s):
    """permutability_level's answer, and r o s o r when it was built (None at ``two``)."""
    require_congruence(alg, r)
    require_congruence(alg, s)
    rs = composite(r, s)
    if np.array_equal(rs, rs.T):
        return TWO, None
    rsr = composite(r, s, r)
    return (THREE if np.array_equal(rsr, composite(s, r, s)) else NEITHER), rsr


def permutability_level(alg, r, s):
    """``two`` if r and s permute, ``three`` if the triple composites agree, else ``neither``.

    For equivalences s o r is the transpose of r o s, so the pair
    permutes exactly when r o s is symmetric.
    """
    return _level(alg, r, s)[0]


def _join(alg, r, s):
    """r join s, built once per pair and instance (``_own``); closure_goursat reuses it."""
    key = ("join", r.index_of, s.index_of)
    if key not in alg._own:
        alg._own[key] = r.join(s)
    return alg._own[key]


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
    level, rsr = _level(alg, r, s)
    if level == NEITHER:
        return Verdict(None, note=NEITHER)
    rsr = composite(r, s, r) if rsr is None else rsr
    differ = np.argwhere(rsr != composite(_join(alg, r, s)))
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


def _full_table(alg, t):
    """The n**3 table of the term t in x, y, z, evaluated on all of A^3 at once."""
    n = alg.n
    axis = np.arange(n)
    env = {"x": axis[:, None, None], "y": axis[None, :, None], "z": axis[None, None, :]}
    return np.broadcast_to(_eval_array(alg, t, env), (n, n, n)).reshape(-1)


def _reconstruct(derivations, i, memo):
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

    Yields (index, derivations, fresh, room) once a round is evaluated:
    index (each table's bytes to its id, in id order) and derivations
    hold the tables of the rounds before, fresh maps the bytes of each
    table the round found new to its derivation, in the order of the
    argument tuples, and room is cap - len(derivations).  The
    first round is the three projections.  When the generator resumes,
    the room least keys of fresh are numbered in key order, and the BFS
    stops after a round with no fresh table (the fixpoint) or with more
    than room (the cap); a consumer that stops at a round leaves it
    unnumbered.  Tables are restricted to the representatives of
    ``_clone_orbits(alg)``.
    """
    if cap < 3:
        raise ValueError("cap must allow at least the three projections")
    n = alg.n
    reps = _clone_orbits(alg)
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

    derivations = []
    known = {}
    fresh = {}
    # the projections' keys ascend, x < y < z, so key order is variable order
    for i, values in enumerate((reps // (n * n), (reps // n) % n, reps % n)):
        fresh.setdefault(values.astype(np.uint8).tobytes(), ("var", i))
    depth = 0
    while True:
        room = cap - len(derivations)
        yield known, derivations, fresh, room
        frontier_start = len(derivations)
        for key in sorted(fresh)[:room]:
            known[key] = len(derivations)
            derivations.append(fresh[key])
        if not fresh or len(fresh) > room:
            return
        depth += 1
        total = len(derivations)
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


def _maltsev_masks(alg):
    """Where a restricted table holds p(x,y,y) and p(x,x,y), and the values a Maltsev term has there.

    Both lists run over the pairs (x, y) least in their class under
    ``_clone_orbits``, ascending, so position k of each belongs to the
    same pair.
    """
    n = alg.n
    reps = _clone_orbits(alg)
    x, y, z = reps // (n * n), (reps // n) % n, reps % n
    i_xyy, i_xxy = np.flatnonzero(y == z), np.flatnonzero(x == y)
    return i_xyy, i_xxy, x[i_xyy].astype(np.uint8), z[i_xxy].astype(np.uint8)


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
    term = _term(derivations, deriv, memo)
    return TermWitness(tuple(_full_table(alg, term).tolist()), term)


def _search(alg, cap, pick):
    """Run a term search over the clone BFS to a witness, the fixpoint or the cap.

    pick(blocks, admitted) tests one round before it is numbered.
    blocks yields the round's new keys in blocks of at most _BLOCK_CELLS
    cells, each as (keys, xyy, xxy, is_p, is_q): row r of xyy and xxy
    holds the r-th key's values where ``_maltsev_masks`` reads p(x,y,y)
    and p(x,x,y), and is_p and is_q mark the rows with p(x,y,y)=x and
    with p(x,x,y)=y.  admitted tells whether a key is numbered.  pick
    returns the keys of the witness's tables, or None.  The outcome is
    ``found`` with the first witness, else ``none`` at the clone
    fixpoint and ``inconclusive`` at the cap; explored counts the tables
    numbered and admitted up to the round tested last.  The cap bounds
    the tables kept, not the work: the round that crosses it is still
    evaluated in full.  cap is read by ``relations._index``.
    """
    cap = _index(cap, what="cap")
    if cap < 3:
        raise ValueError("cap must allow at least the three projections")
    i_xyy, i_xxy, want_x, want_y = _maltsev_masks(alg)

    def blocks(fresh):
        keys = list(fresh)
        rows = max(1, _BLOCK_CELLS // len(keys[0])) if keys else 1
        for lo in range(0, len(keys), rows):
            chunk = keys[lo : lo + rows]
            block = np.frombuffer(b"".join(chunk), dtype=np.uint8).reshape(len(chunk), -1)
            xyy, xxy = block[:, i_xyy], block[:, i_xxy]
            yield chunk, xyy, xxy, (xyy == want_x).all(axis=1), (xxy == want_y).all(axis=1)

    for index, derivations, fresh, room in _clone_rounds(alg, cap):
        explored = len(derivations) + min(len(fresh), room)
        keys = pick(blocks(fresh), _admitted(fresh, room))
        if keys is not None:
            memo = {}
            witness = tuple(_witness(alg, index, derivations, fresh, key, memo) for key in keys)
            return SearchOutcome(FOUND, witness if len(witness) > 1 else witness[0], explored)
        if not fresh or len(fresh) > room:
            return SearchOutcome(NONE if not fresh else INCONCLUSIVE, explored=explored)
    raise AssertionError("clone stream ended without a final round")


def _maltsev_pick(blocks, admitted):
    """The least new key with p(x,y,y)=x and p(x,x,y)=y, if it is numbered."""
    least = min((keys[r] for keys, _, _, is_p, is_q in blocks
                 for r in np.flatnonzero(is_p & is_q).tolist()), default=None)
    return None if least is None or not admitted(least) else (least,)


def find_maltsev_term(alg, cap=200_000):
    """Search the clone for a table with p(x,y,y)=x and p(x,x,y)=y.

    Returns the first witness in (depth, lexicographic table) order; a
    definitive ``none`` only at clone fixpoint, ``inconclusive`` at cap.
    Each round is tested before it is numbered: ids within a round
    follow key order, so the witness is the least key that passes, and
    when the round crosses the cap it is kept only if fewer than room
    new keys are smaller.  A round with a witness is never numbered.
    """
    return _search(alg, cap, _maltsev_pick)


def find_hm_terms(alg, cap=200_000):
    """Search for tables p, q with p(x,y,y)=x, q(x,x,y)=y and p(x,x,y)=q(x,y,y).

    The returned pair is the one minimizing (p id, q id) at the first
    BFS depth admitting any valid pair.  Candidates are read off each
    round before it is numbered, and kept by key: ids within a round
    follow key order, and the round's keys past the cap are dropped.
    """
    p_keys = []  # (key, p(x,x,y) bytes) of every table with p(x,y,y)=x, in id order
    q_least = {}  # q(x,y,y) bytes -> key of the least table with q(x,x,y)=y and those values

    def pick(blocks, admitted):
        new_p, new_q = [], []
        for keys, xyy, xxy, is_p, is_q in blocks:
            new_p += [(keys[r], xxy[r].tobytes())
                      for r in np.flatnonzero(is_p).tolist() if admitted(keys[r])]
            new_q += [(keys[r], xyy[r].tobytes())
                      for r in np.flatnonzero(is_q).tolist() if admitted(keys[r])]
        p_keys.extend(sorted(new_p))
        for key, values in sorted(new_q):
            q_least.setdefault(values, key)
        # the least p with a partner, then its least partner: the lex-least pair
        return next(((p, q_least[xxy]) for p, xxy in p_keys if xxy in q_least), None)

    return _search(alg, cap, pick)


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
