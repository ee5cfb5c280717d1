"""Permutability of congruence pairs and ternary term searches.

Term searches run over the clone generated on three variables: the
breadth-first closure of the three ternary projections under pointwise
application of the algebra's basic operations.  Tables are deduplicated
by content; within a round, new tables get ids in lexicographic table
order, which fixes every witness choice.
"""

from dataclasses import dataclass
from itertools import product as iproduct
from typing import Optional

import numpy as np

from .errors import NotPermutableError
from .relations import join, require_congruence
from .terms import App, Var
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
    joined = join(alg, r, s).as_binrel()
    if composite == joined:
        return Verdict(True, note=level)
    diff = sorted(set(joined.pairs()) ^ set(composite.pairs()))
    return Verdict(False, witness=diff[0], note=level)


@dataclass(frozen=True)
class TermWitness:
    """A ternary operation table, with a term realizing it when reconstructed."""

    table: tuple
    term: Optional[object] = None


@dataclass(frozen=True)
class SearchOutcome:
    status: str  # found | none | inconclusive
    witness: object = None  # TermWitness, or a (p, q) pair for the two-term search
    explored: int = 0

    def __bool__(self):
        return self.status == FOUND


class CloneResult:
    """Ternary term operations generated so far, with their derivations."""

    def __init__(self, n, arrays, derivations, complete):
        self.n = n
        self._arrays = arrays
        self.derivations = derivations
        self.complete = complete
        self._index = {arr.tobytes(): i for i, arr in enumerate(arrays)}

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


def _new_arg_tuples(total, start, arity):
    """Lexicographic tuples over range(total)^arity with at least one id >= start."""
    if arity == 1:
        for i in range(start, total):
            yield (i,)
        return
    for i in range(total):
        head = (i,)
        if i >= start:
            for rest in iproduct(range(total), repeat=arity - 1):
                yield head + rest
        else:
            for rest in _new_arg_tuples(total, start, arity - 1):
                yield head + rest


def _clone_rounds(alg, cap):
    """Drive the BFS one round at a time.

    Yields (arrays, derivations, new_ids, done, complete) after
    every round; stops after the fixpoint round or once cap tables exist.
    """
    n = alg.n
    if n > 255:
        raise ValueError("clone generation supports carriers up to 255 elements")
    if cap < 3:
        raise ValueError("cap must allow at least the three projections")
    size = n**3
    span = np.arange(size)
    projections = [
        (span // (n * n)).astype(np.uint8),
        ((span // n) % n).astype(np.uint8),
        (span % n).astype(np.uint8),
    ]
    op_arrays = {
        sym: np.asarray(alg.tables[sym], dtype=np.uint8).reshape((n,) * arity)
        for sym, arity in alg.sig
        if arity > 0
    }

    arrays, derivations = [], []
    known = {}
    for i, arr in enumerate(projections):
        key = arr.tobytes()
        if key not in known:
            known[key] = len(arrays)
            arrays.append(arr)
            derivations.append(("var", i))
    new_ids = list(range(len(arrays)))
    yield arrays, derivations, new_ids, False, False

    depth = 0
    frontier_start = 0
    while True:
        depth += 1
        total = len(arrays)
        fresh = {}
        for sym, arity in alg.sig:
            if arity == 0:
                if depth == 1:
                    arr = np.full(size, alg.tables[sym][0], dtype=np.uint8)
                    key = arr.tobytes()
                    if key not in known and key not in fresh:
                        fresh[key] = (arr, (sym, ()))
                continue
            table = op_arrays[sym]
            for ids in _new_arg_tuples(total, frontier_start, arity):
                arr = table[tuple(arrays[i] for i in ids)]
                key = arr.tobytes()
                if key not in known and key not in fresh:
                    fresh[key] = (arr, (sym, ids))
        if not fresh:
            yield arrays, derivations, [], True, True
            return
        ordered = sorted(fresh.items())
        room = cap - len(arrays)
        capped = len(ordered) > room
        if capped:
            ordered = ordered[:room]
        new_ids = []
        for key, (arr, deriv) in ordered:
            known[key] = len(arrays)
            new_ids.append(len(arrays))
            arrays.append(arr)
            derivations.append(deriv)
        if capped:
            yield arrays, derivations, new_ids, True, False
            return
        frontier_start = total
        yield arrays, derivations, new_ids, False, False


def generate_clone3(alg, cap=200_000):
    """Run the clone BFS to its fixpoint (or the table cap)."""
    for arrays, derivations, _new, done, complete in _clone_rounds(alg, cap):
        if done:
            return CloneResult(alg.n, arrays, derivations, complete)
    raise AssertionError("clone stream ended without a final round")


def _maltsev_masks(n):
    pairs = [(x, y) for x in range(n) for y in range(n)]
    i_xyy = np.array([(x * n + y) * n + y for x, y in pairs])
    i_xxy = np.array([(x * n + x) * n + y for x, y in pairs])
    want_x = np.array([x for x, _ in pairs], dtype=np.uint8)
    want_y = np.array([y for _, y in pairs], dtype=np.uint8)
    return i_xyy, i_xxy, want_x, want_y


def find_maltsev_term(alg, cap=200_000, reconstruct=True):
    """Search the clone for a table with p(x,y,y)=x and p(x,x,y)=y.

    Returns the first witness in (depth, lexicographic table) order; a
    definitive ``none`` only at clone fixpoint, ``inconclusive`` at cap.
    """
    n = alg.n
    i_xyy, i_xxy, want_x, want_y = _maltsev_masks(n)
    for arrays, derivations, new_ids, done, complete in _clone_rounds(alg, cap):
        for i in new_ids:
            arr = arrays[i]
            if np.array_equal(arr[i_xyy], want_x) and np.array_equal(arr[i_xxy], want_y):
                term = _reconstruct(derivations, i) if reconstruct else None
                witness = TermWitness(tuple(int(v) for v in arr), term)
                return SearchOutcome(FOUND, witness, explored=len(arrays))
        if done:
            status = NONE if complete else INCONCLUSIVE
            return SearchOutcome(status, explored=len(arrays))
    raise AssertionError("clone stream ended without a final round")


def find_hm_terms(alg, cap=200_000, reconstruct=True):
    """Search for tables p, q with p(x,y,y)=x, q(x,x,y)=y and p(x,x,y)=q(x,y,y).

    The returned pair is the one minimizing (p id, q id) at the first
    BFS depth admitting any valid pair.
    """
    n = alg.n
    i_xyy, i_xxy, want_x, want_y = _maltsev_masks(n)
    p_ids, q_ids = [], []
    for arrays, derivations, new_ids, done, complete in _clone_rounds(alg, cap):
        for i in new_ids:
            arr = arrays[i]
            if np.array_equal(arr[i_xyy], want_x):
                p_ids.append(i)
            if np.array_equal(arr[i_xxy], want_y):
                q_ids.append(i)
        best = None
        for pi in p_ids:
            left = arrays[pi][i_xxy]
            for qi in q_ids:
                if np.array_equal(left, arrays[qi][i_xyy]):
                    best = (pi, qi)
                    break
            if best is not None:
                break  # ids ascend, so the first hit is the lex-least pair
        if best is not None:
            pi, qi = best
            memo = {}
            witness = (
                TermWitness(
                    tuple(int(v) for v in arrays[pi]),
                    _reconstruct(derivations, pi, memo) if reconstruct else None,
                ),
                TermWitness(
                    tuple(int(v) for v in arrays[qi]),
                    _reconstruct(derivations, qi, memo) if reconstruct else None,
                ),
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
