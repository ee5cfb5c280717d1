"""Permutability of congruence pairs and ternary term searches.

Term searches run over the clone generated on three variables: the
breadth-first closure of the three ternary projections under pointwise
application of the algebra's basic operations.  Tables are deduplicated
by content; within a round, new tables get ids in lexicographic table
order, which fixes every witness choice.

A round is evaluated in array blocks.  For each operation, Python loops
only over the leading argument ids; the last argument runs over a
contiguous id range, evaluated a bounded block of rows at a time by one
gather through the operation's flattened table.  Rows are then
deduplicated in the order of their argument tuples, the order of the
one-tuple-at-a-time loop, so each new table keeps the same first
derivation, and the order that fixes witnesses is unchanged.  Each
table is stored once: its bytes are the deduplication key, and its
array is a read-only view of those bytes.  The Maltsev search tests new
tables in array blocks; the Hagemann-Mitschke search joins p and q
candidates by a hash of the restriction they must share.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NotPermutableError
from .relations import require_congruence
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
    """``two`` if r and s permute, ``three`` if the triple composites agree, else ``neither``."""
    require_congruence(alg, r)
    require_congruence(alg, s)
    rb, sb = r.as_binrel(), s.as_binrel()
    rs = rb.compose(sb)
    sr = sb.compose(rb)
    if rs == sr:
        return TWO
    if rs.compose(rb) == sr.compose(sb):
        return THREE
    return NEITHER


def goursat_join_check(alg, r, s):
    """Confirm r o s o r equals the congruence join, as raw pair sets."""
    level = permutability_level(alg, r, s)
    if level == NEITHER:
        raise NotPermutableError(
            "pair is not 3-permutable, the composite join formula does not apply", r, s
        )
    rb, sb = r.as_binrel(), s.as_binrel()
    composite = rb.compose(sb).compose(rb)
    joined = r.join(s).as_binrel()
    if composite == joined:
        return Verdict(True, note=level)
    diff = sorted(set(joined.pairs()) ^ set(composite.pairs()))
    return Verdict(False, witness=diff[0], note=level)


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


class CloneResult:
    """Ternary term operations generated so far, with their derivations."""

    def __init__(self, n, arrays, index, derivations, complete):
        self.n = n
        self._arrays = arrays
        self._index = index
        self.derivations = derivations
        self.complete = complete

    def __len__(self):
        return len(self._arrays)

    def table(self, i):
        return tuple(int(v) for v in self._arrays[i])

    def contains(self, table):
        return bytes(bytearray(table)) in self._index

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


def _clone_rounds(alg, cap):
    """Drive the BFS one round at a time.

    Yields (arrays, index, derivations, new_ids, done, complete) after
    every round, index mapping each table's bytes to its id; stops after
    the fixpoint round or once cap tables exist.
    """
    n = alg.n
    if n > 255:
        raise ValueError("clone generation supports carriers up to 255 elements")
    if cap < 3:
        raise ValueError("cap must allow at least the three projections")
    size = n**3
    # one n**3-cell table per row, so above n = 64 a block is one row
    rows = max(1, _BLOCK_CELLS // size)
    span = np.arange(size)
    projections = [span // (n * n), (span // n) % n, span % n]
    flat_tables = {
        sym: alg.table_array(sym).astype(np.uint8).reshape(-1)
        for sym, arity in alg.sig
        if arity > 0
    }

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
                    key = bytes([alg.tables[sym][0]]) * size
                    if key not in known and key not in fresh:
                        fresh[key] = (sym, ())
                continue
            flat = flat_tables[sym]
            for head, offset, old in _heads(stack, n, frontier_start, arity - 1):
                for lo in range(frontier_start if old else 0, total, rows):
                    block = flat[offset + stack[lo : lo + rows]].tobytes()
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
    """Run the clone BFS to its fixpoint (or the table cap)."""
    for arrays, index, derivations, _new, done, complete in _clone_rounds(alg, cap):
        if done:
            return CloneResult(alg.n, arrays, index, derivations, complete)
    raise AssertionError("clone stream ended without a final round")


def _maltsev_masks(n):
    pairs = [(x, y) for x in range(n) for y in range(n)]
    i_xyy = np.array([(x * n + y) * n + y for x, y in pairs])
    i_xxy = np.array([(x * n + x) * n + y for x, y in pairs])
    want_x = np.array([x for x, _ in pairs], dtype=np.uint8)
    want_y = np.array([y for _, y in pairs], dtype=np.uint8)
    return i_xyy, i_xxy, want_x, want_y


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
    """
    i_xyy, i_xxy, want_x, want_y = _maltsev_masks(alg.n)
    for arrays, _index, derivations, new_ids, done, complete in _clone_rounds(alg, cap):
        for first, block in _new_blocks(arrays, new_ids):
            hits = (block[:, i_xyy] == want_x).all(axis=1) & (block[:, i_xxy] == want_y).all(axis=1)
            if hits.any():
                i = first + int(hits.argmax())
                table = tuple(int(v) for v in arrays[i])
                witness = TermWitness(table, _reconstruct(derivations, i))
                return SearchOutcome(FOUND, witness, explored=len(arrays))
        if done:
            status = NONE if complete else INCONCLUSIVE
            return SearchOutcome(status, explored=len(arrays))
    raise AssertionError("clone stream ended without a final round")


def find_hm_terms(alg, cap=200_000):
    """Search for tables p, q with p(x,y,y)=x, q(x,x,y)=y and p(x,x,y)=q(x,y,y).

    The returned pair is the one minimizing (p id, q id) at the first
    BFS depth admitting any valid pair.
    """
    i_xyy, i_xxy, want_x, want_y = _maltsev_masks(alg.n)
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
            witness = tuple(
                TermWitness(tuple(int(v) for v in arrays[i]), _reconstruct(derivations, i, memo))
                for i in (pi, qi)
            )
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
