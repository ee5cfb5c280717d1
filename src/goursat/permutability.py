"""Permutability of congruence pairs and ternary term searches.

Term searches run over the clone generated on three variables: the
subpower that the three ternary projections generate, computed breadth
first by ``subpower._rounds``.  Tables are deduplicated by content;
within a round, new tables get ids in lexicographic table order, which
fixes every witness choice.

The BFS uses three exact symmetries of A.  The engine's mirrored pairs
are one (``subpower``).  The other two, the automorphisms of A and the
isomorphisms between the subalgebras that the cells of A^3 generate,
live in ``symmetry``: ``_search`` builds the projections on the
representatives of ``_clone_orbits``, one cell per class, so every table
is held restricted to them, and ``symmetry`` proves that this keeps ids,
derivations, witnesses and the cap cut unchanged.  A witness's full
n**3 table is its term evaluated on all of A^3, so it does not rest on
those proofs.  ``_search`` refuses a cap below 3 and a carrier past 255
elements before any of this work.

A round is searched before it is numbered, as ``subpower`` yields it,
already cut at the cap.  Ids within a round follow key order, so the
least new key that passes a test is the least id.  Both searches run
through one round loop, ``_search``, which reads the new keys in array
blocks, stops at a witness without numbering its round, and owns the
count and the three endings.  The Maltsev test takes the least key that
passes both identities; the Hagemann-Mitschke test reads its p and q
candidates off the same blocks, keeps them by key, and joins them by a
hash of the restriction they must share.  ``hm_chain_check`` re-checks
either witness as a chain of terms, by the per-cell evaluator alone.
"""

from dataclasses import dataclass

import numpy as np

from . import terms
from .errors import CarrierBoundError
from .relations import _index, composite, require_congruence
from .subpower import _rounds
from .symmetry import _clone_orbits, _projections
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
    """r join s, built once per pair and instance; closure_goursat reuses it."""
    return alg._cached(("join", r.index_of, s.index_of), r.join, s, own=True)


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
    return np.broadcast_to(terms._eval_array(alg, t, env), (n, n, n)).reshape(-1)


def _reconstruct(derivations, i, memo):
    if i not in memo:
        memo[i] = _term(derivations, derivations[i], memo)
    return memo[i]


def _term(derivations, deriv, memo):
    """The term of a derivation whose arguments are ids numbered in derivations."""
    kind, payload = deriv
    if kind is None:
        return terms.Var(_VARS[payload])
    return terms.App(kind, tuple(_reconstruct(derivations, c, memo) for c in payload))


def _maltsev_masks(x, y, z):
    """The positions of the cells (x,y,y) and (x,x,y) among the cells of the projection rows x, y, z, and a Maltsev term's values there.

    On the representatives of ``_clone_orbits`` both lists run over the
    pairs (x, y) least in their class, ascending, so position k of each
    belongs to the same pair.
    """
    i_xyy, i_xxy = np.flatnonzero(y == z), np.flatnonzero(x == y)
    return i_xyy, i_xxy, x[i_xyy], z[i_xxy]


def _witness(alg, index, derivations, fresh, key, memo):
    """The TermWitness of a table's bytes, numbered in index or new in fresh."""
    deriv = fresh[key] if key in fresh else derivations[index[key]]
    term = _term(derivations, deriv, memo)
    return TermWitness(tuple(_full_table(alg, term).tolist()), term)


def _search(alg, cap, pick):
    """Run a term search over the clone BFS to a witness, the fixpoint or the cap.

    pick(blocks) tests one round before it is numbered.  blocks yields
    the round's new keys in blocks of at most _BLOCK_CELLS cells, each
    as (keys, xyy, xxy, is_p, is_q): row r of xyy and xxy holds the r-th
    key's values where ``_maltsev_masks`` reads p(x,y,y) and p(x,x,y),
    and is_p and is_q mark the rows with p(x,y,y)=x and with
    p(x,x,y)=y.  pick returns the keys of the witness's tables, or None.
    The outcome is ``found`` with the first witness, else ``none`` at
    the clone fixpoint and ``inconclusive`` at the cap; explored counts
    the tables of every round up to the one tested last.  The cap bounds the tables
    kept, not the work: the round that crosses it is still evaluated in
    full.  cap is read by ``relations._index``.
    """
    cap = _index(cap, what="cap")
    if cap < 3:
        raise ValueError("cap must allow at least the three projections")
    if alg.n > 255:
        raise CarrierBoundError(alg.n, 255)
    gens = _projections(alg.n, _clone_orbits(alg))
    i_xyy, i_xxy, want_x, want_y = _maltsev_masks(*gens)

    def blocks(fresh):
        keys = list(fresh)
        rows = max(1, terms._BLOCK_CELLS // len(keys[0])) if keys else 1
        for lo in range(0, len(keys), rows):
            chunk = keys[lo : lo + rows]
            block = np.frombuffer(b"".join(chunk), dtype=np.uint8).reshape(len(chunk), -1)
            xyy, xxy = block[:, i_xyy], block[:, i_xxy]
            yield chunk, xyy, xxy, (xyy == want_x).all(axis=1), (xxy == want_y).all(axis=1)

    for index, derivations, fresh, crossed in _rounds(alg, gens, cap):
        explored = len(derivations) + len(fresh)
        keys = pick(blocks(fresh))
        if keys is not None:
            memo = {}
            witness = tuple(_witness(alg, index, derivations, fresh, key, memo) for key in keys)
            return SearchOutcome(FOUND, witness if len(witness) > 1 else witness[0], explored)
        if crossed or not fresh:
            return SearchOutcome(INCONCLUSIVE if crossed else NONE, explored=explored)
    raise AssertionError("clone stream ended without a final round")


def _maltsev_pick(blocks):
    """The least new key with p(x,y,y)=x and p(x,x,y)=y."""
    least = min((keys[r] for keys, _, _, is_p, is_q in blocks
                 for r in np.flatnonzero(is_p & is_q).tolist()), default=None)
    return None if least is None else (least,)


def find_maltsev_term(alg, cap=200_000):
    """Search the clone for a table with p(x,y,y)=x and p(x,x,y)=y.

    Returns the first witness in (depth, lexicographic table) order; a
    definitive ``none`` only at clone fixpoint, ``inconclusive`` at cap.
    Each round is tested before it is numbered: ids within a round
    follow key order, so the witness is the least key that passes.  A
    round with a witness is never numbered.
    """
    return _search(alg, cap, _maltsev_pick)


def find_hm_terms(alg, cap=200_000):
    """Search for tables p, q with p(x,y,y)=x, q(x,x,y)=y and p(x,x,y)=q(x,y,y).

    The returned pair is the one minimizing (p id, q id) at the first
    BFS depth admitting any valid pair.  Candidates are read off each
    round before it is numbered, and kept by key: ids within a round
    follow key order.
    """
    p_keys = []  # (key, p(x,x,y) bytes) of every table with p(x,y,y)=x, in id order
    q_least = {}  # q(x,y,y) bytes -> key of the least table with q(x,x,y)=y and those values

    def pick(blocks):
        new_p, new_q = [], []
        for keys, xyy, xxy, is_p, is_q in blocks:
            new_p += [(keys[r], xxy[r].tobytes()) for r in np.flatnonzero(is_p).tolist()]
            new_q += [(keys[r], xyy[r].tobytes()) for r in np.flatnonzero(is_q).tolist()]
        p_keys.extend(sorted(new_p))
        for key, values in sorted(new_q):
            q_least.setdefault(values, key)
        # the least p with a partner, then its least partner: the lex-least pair
        return next(((p, q_least[xxy]) for p, xxy in p_keys if xxy in q_least), None)

    return _search(alg, cap, pick)


def hm_chain_check(alg, chain):
    """Re-check a Hagemann-Mitschke chain x = p0, p1, ..., pk+1 = z on every (x, y).

    chain holds the terms p1..pk between the projections: ``(m,)`` for a
    Maltsev term, ``(p, q)`` for a Hagemann-Mitschke pair.  Link i joins
    pi and pi+1 and holds when pi(x,x,y) = pi+1(x,y,y).  Every value is
    read by ``terms.eval_term``, the per-cell reference evaluator, not by
    the array evaluator that built the witness tables, so the re-check
    is independent of the search and of its tables.  A failure's witness
    is the first failing (link, x, y), in that order.
    """
    path = (terms.Var("x"), *chain, terms.Var("z"))
    for link, (left, right) in enumerate(zip(path, path[1:])):
        for x in range(alg.n):
            for y in range(alg.n):
                xxy, xyy = {"x": x, "y": x, "z": y}, {"x": x, "y": y, "z": y}
                if terms.eval_term(alg, left, xxy) != terms.eval_term(alg, right, xyy):
                    return Verdict(False, witness=(link, x, y))
    return Verdict(True)
