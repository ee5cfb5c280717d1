"""Subpowers with derivations: the closure of k rows of A^m under the basic operations.

``_rounds(alg, gens, cap)`` computes Sg(gens) <= A^m breadth first, for
k generator rows of length m.  Each round applies every basic operation,
pointwise, to the argument tuples of known rows that hold at least one
row of the round before; the constants enter in the first round after
the generators.  Rows are deduplicated by content, and each keeps the
derivation it was first found by: (None, i) for generator number i,
since None is no operation symbol, or an operation and the ids of its
arguments.  Within a round, new rows get ids in
lexicographic row order, which fixes every witness choice.  The term
searches of ``permutability`` run it on the three projections, restricted
to cells of A^3 (a row is then a ternary term operation), and
``symmetry._derivation`` on elements of A, as rows of length one.

Mirrored pairs.  For a binary operation with a symmetric table, the
pair (j, i) gives the row of (i, j), which comes earlier in the same
round; so only pairs i <= j are evaluated, and i < j when the operation
is also idempotent, since f(t, t) = t is known.  Each row keeps its
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
table, as n <= ``_ENGINE_LIMIT``), else through intp.  Either way the
block comes out as the bytes the rows are keyed by.  Rows are then
deduplicated in the order of their argument tuples, the order of the
one-tuple-at-a-time loop, so each new row keeps the same first
derivation, and the order that fixes witnesses is unchanged.  Each row is stored once, as its
bytes, the deduplication key.

The cap.  At most cap rows are numbered.  The room of a round is cap
minus the rows numbered before it; a round that finds more new rows
than its room crosses the cap, and only its room least keys are kept,
each with its first derivation.  This is the one place the cut is made.
A round is yielded before it is numbered, already cut, so a caller
reads every row it is given as one that is numbered on resume.  Ids
within a round follow key order, so a caller that tests the round's new
keys finds the least id as the least key that passes.  A caller that
stops at a round leaves it unnumbered.
"""

import numpy as np

from . import terms

# The largest carrier the engine takes: rows are uint8, and
# symmetry._pointed_classes pads its codes with this value, which no label
# reaches.  The term searches and the corpus refuse a larger carrier.
_ENGINE_LIMIT = 255


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


def _rounds(alg, gens, cap):
    """Drive the BFS for Sg(gens) one round at a time, yielding each round before it is numbered.

    gens is a k x m uint8 array of elements of alg (n <= _ENGINE_LIMIT), one
    generator row per line; row i has the derivation (None, i), unless
    it equals an earlier row, which keeps its own.  Yields (index,
    derivations, fresh, crossed) once a round is evaluated: index (each
    row's bytes to its id, in id order) and derivations hold the rows of
    the rounds before, and fresh maps the bytes of each row the round
    found new to its derivation, in the order of the argument tuples.
    crossed tells whether the round crossed the cap; fresh then holds
    only its cap - len(derivations) least keys, in key order.  The first round is the
    generators.  When the generator resumes, fresh is numbered in key
    order, and the BFS stops after a round that crossed the cap or found
    no new row (the fixpoint).
    """
    n = alg.n
    size = gens.shape[1]
    # one row per block once a row exceeds _BLOCK_CELLS
    rows = max(1, terms._BLOCK_CELLS // size)
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
    for i, row in enumerate(gens):
        fresh.setdefault(row.tobytes(), (None, i))
    while True:
        room = cap - len(derivations)
        crossed = len(fresh) > room
        if crossed:
            fresh = {key: fresh[key] for key in sorted(fresh)[:room]}
        yield known, derivations, fresh, crossed
        frontier_start = len(derivations)
        for key in sorted(fresh):
            known[key] = len(derivations)
            derivations.append(fresh[key])
        if crossed or not fresh:
            return
        total = len(derivations)
        stack = np.frombuffer(b"".join(known), dtype=np.uint8).reshape(total, size)
        fresh = {}
        for sym, arity in alg.sig:
            if arity == 0:
                # the constants enter in the round after the generators
                if frontier_start == 0:
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
