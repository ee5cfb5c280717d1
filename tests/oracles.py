"""Independent brute-force oracles used to validate the fast implementations.

Everything here is deliberately naive: set-based relational composition,
equivalence joins, raw and closed images and pull-backs on explicit pair
sets, axiom 3's instances along one arrow as pair sets, the order, meet
and join tables of a lattice of equivalences on pair sets and its
covering pairs by a triple loop, the pair set of a boolean matrix,
enumeration of all partitions via restricted growth strings, a
from-the-definition compatibility check, the automorphisms as the
permutations that commute with every table, the scalar congruence
witness scan, a scalar subuniverse closure, the subuniverses as closures
of every small seed, subalgebra tables built one table entry per
argument tuple, the least pair of each orbit under the bijective basic
translations by breadth-first search, mixed-radix product coordinates,
block membership in a partition, a clone BFS that applies an operation
to one argument tuple at a time, and identities evaluated one
assignment at a time by the recursive reference ``terms.eval_term``.
Cells are read from the raw flat tables, ``alg.tables``, in row-major
order.  None of it shares code with the package internals it validates.
"""

from itertools import permutations, product

import numpy as np

from goursat.terms import eval_term


def cell(alg, sym, args):
    """The entry of sym's flat table at args, row-major: the last argument varies fastest."""
    index = 0
    for a in args:
        index = index * alg.n + a
    return alg.tables[sym][index]


def compose_pairs(r_pairs, s_pairs):
    """Triple-loop relational composition on explicit pair sets."""
    return {(x, z) for x, y in r_pairs for y2, z in s_pairs if y == y2}


def equivalence_closure_pairs(n, pairs):
    """Least equivalence relation on {0..n-1} containing a pair set, by squaring to a fixpoint."""
    rel = set(pairs) | {(b, a) for a, b in pairs} | {(x, x) for x in range(n)}
    while True:
        bigger = rel | compose_pairs(rel, rel)
        if bigger == rel:
            return rel
        rel = bigger


def label_pairs(labels):
    """The pair set of the equivalence "equal labels"."""
    n = len(labels)
    return {(a, b) for a in range(n) for b in range(n) if labels[a] == labels[b]}


def join_pairs(n, r_pairs, s_pairs):
    """Equivalence join as the closure of the union of two pair sets."""
    return equivalence_closure_pairs(n, r_pairs | s_pairs)


def lattice_tables(labels_list):
    """Order, meet and join tables of a list of equivalences closed under both, pair by pair.

    leq[i][j] is the inclusion of pair sets; the meet and the join of i
    and j are looked up by the pair sets of the intersection and of the
    equivalence closure of the union.  This is the pairwise
    refines/meet/join construction, on pair sets instead of partitions.
    """
    n = len(labels_list[0])
    pairs = [frozenset(label_pairs(labels)) for labels in labels_list]
    where = {p: i for i, p in enumerate(pairs)}
    k = len(pairs)
    leq = tuple(tuple(pairs[i] <= pairs[j] for j in range(k)) for i in range(k))
    meet = tuple(tuple(where[pairs[i] & pairs[j]] for j in range(k)) for i in range(k))
    join = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            join[i][j] = join[j][i] = where[frozenset(join_pairs(n, pairs[i], pairs[j]))]
    return leq, meet, tuple(map(tuple, join))


def covering_pairs(leq):
    """The covering pairs (i, j) of an order matrix by the triple loop, i ascending, then j."""
    k = len(leq)
    return [
        (i, j)
        for i in range(k)
        for j in range(k)
        if i != j and leq[i][j]
        and not any(m != i and m != j and leq[i][m] and leq[m][j] for m in range(k))
    ]


def image_pairs(n_target, mapping, s_pairs):
    """Closure of the image pair set {(m(a), m(b)) : (a, b) in s}."""
    return equivalence_closure_pairs(n_target, {(mapping[a], mapping[b]) for a, b in s_pairs})


def raw_image_pairs(mapping, s_pairs):
    """The image pair set {(m(a), m(b)) : (a, b) in s}, with no closure step."""
    return {(mapping[a], mapping[b]) for a, b in s_pairs}


def matrix_pairs(mat):
    """The pair set {(x, z) : mat[x][z]} of a square boolean matrix."""
    return {(x, z) for x, row in enumerate(mat) for z, hit in enumerate(row) if hit}


def pullback_pairs(mapping, t_pairs):
    """{(a, b) : (m(a), m(b)) in t} over the domain of the map."""
    n = len(mapping)
    return {(a, b) for a in range(n) for b in range(n) if (mapping[a], mapping[b]) in t_pairs}


def pull_back_instances(mapping, targets, close_source, close_target):
    """Axiom 3 along one arrow m, one instance per target relation t, in order.

    Each instance is the pair (closure of m^-1 t, m^-1 of the closure of t),
    every relation a pair set; ``close_source`` and ``close_target`` close a
    pair set on the arrow's source and on its target.
    """
    return [
        (close_source(pullback_pairs(mapping, t)), pullback_pairs(mapping, close_target(t)))
        for t in targets
    ]


def naive_subuniverse(alg, seed):
    """Closure of a seed and the nullary values, one table entry per argument tuple."""
    current = set(seed)
    for sym, arity in alg.sig:
        if arity == 0:
            current.add(cell(alg, sym, ()))
    changed = True
    while changed:
        changed = False
        for sym, arity in alg.sig:
            if arity == 0:
                continue
            for args in product(sorted(current), repeat=arity):
                v = cell(alg, sym, args)
                if v not in current:
                    current.add(v)
                    changed = True
    return frozenset(current)


def automorphisms(alg):
    """Every permutation of the carrier that commutes with every table, for n <= 6."""
    assert alg.n <= 6
    tables = [(alg.table_array(sym), arity) for sym, arity in alg.sig]
    return [perm for perm in permutations(range(alg.n))
            if all((np.array(perm)[table] == table[np.ix_(*(perm,) * arity)]).all()
                   for table, arity in tables)]


class _Square:
    """A x A with the pair (a, b) coded a * n + b, each table built coordinatewise."""

    def __init__(self, alg):
        n = alg.n
        self.sig, self.n = alg.sig, n * n
        self.tables = {
            sym: tuple(cell(alg, sym, [a // n for a in args]) * n + cell(alg, sym, [a % n for a in args])
                       for args in product(range(n * n), repeat=arity))
            for sym, arity in alg.sig
        }


def pointed_iso_classes(alg):
    """The cells of A^3 up to an isomorphism Sg(c) -> Sg(c') sending each ci to c'i.

    Such an isomorphism exists exactly when the subuniverse of A x A
    generated by the three pairs (ci, c'i) is the graph of a bijection.
    A cell is compared only with the least cell of each class found so
    far that shares its invariants: its equality pattern and the sizes
    of the subuniverses generated by each nonempty subset of its
    entries, which such an isomorphism maps onto each other.  Returns
    the classes as ascending cell lists, ordered by their least cells.
    """
    n = alg.n
    square = _Square(alg)
    subsets = [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]
    classes = {}  # invariants -> the classes with them, each a cell list
    for cell, c in enumerate(product(range(n), repeat=3)):
        key = (tuple(c.index(x) for x in c),
               tuple(len(naive_subuniverse(alg, [c[i] for i in s])) for s in subsets))
        for cells in classes.setdefault(key, []):
            r = product_decode((n, n, n), cells[0])
            graph = naive_subuniverse(square, [a * n + b for a, b in zip(r, c)])
            if len({g // n for g in graph}) == len({g % n for g in graph}) == len(graph):
                cells.append(cell)
                break
        else:
            classes[key].append([cell])
    return sorted((cells for group in classes.values() for cells in group), key=min)


def naive_subalgebra_tables(alg, universe):
    """Tables of the subalgebra on a subset, one table entry per argument tuple.

    Raises ValueError naming the first symbol (declaration order) and
    argument tuple (lexicographic over the sorted subset) whose value
    leaves the subset.
    """
    embed = sorted(universe)
    back = {x: i for i, x in enumerate(embed)}
    tables = {}
    for sym, arity in alg.sig:
        table = []
        for args in product(embed, repeat=arity):
            v = cell(alg, sym, args)
            if v not in back:
                raise ValueError(f"subset not closed under {sym!r} at {args}")
            table.append(back[v])
        tables[sym] = tuple(table)
    return tables


def product_encode(sizes, components):
    """The product element with these components, the leftmost factor most significant."""
    x = 0
    for size, c in zip(sizes, components):
        x = x * size + c
    return x


def product_decode(sizes, x):
    """The components of a product element, inverse to product_encode."""
    out = []
    for size in reversed(sizes):
        out.append(x % size)
        x //= size
    return tuple(reversed(out))


def relates(p, a, b):
    """Do a and b lie in one block of the partition p?"""
    return p.index_of[a] == p.index_of[b]


def block_of(p, x):
    """The block of the partition p that contains x."""
    return p.blocks[p.index_of[x]]


def subuniverse_seeds(n):
    """Every subset of a carrier of at most ten elements, else the subsets of at most two."""
    if n <= 10:
        return [[x for x in range(n) if mask >> x & 1] for mask in range(1 << n)]
    return ([[]] + [[x] for x in range(n)]
            + [[x, y] for x in range(n) for y in range(x + 1, n)])


def seeded_subuniverses(alg):
    """Distinct nonempty scalar closures of every seed, sorted by size, then elements."""
    found = {tuple(sorted(naive_subuniverse(alg, seed))) for seed in subuniverse_seeds(alg.n)}
    return [frozenset(t) for t in sorted(found, key=lambda t: (len(t), t)) if t]


def all_partitions(n):
    """Every partition of {0..n-1} as a block list, via restricted growth strings."""
    if n == 0:
        yield []
        return
    labels = [0] * n

    def rec(i, maxlabel):
        if i == n:
            blocks = {}
            for x, lab in enumerate(labels):
                blocks.setdefault(lab, []).append(x)
            yield [blocks[k] for k in sorted(blocks)]
            return
        for lab in range(maxlabel + 2):
            labels[i] = lab
            yield from rec(i + 1, max(maxlabel, lab))

    yield from rec(1, 0)


def compatible(alg, blocks):
    """From-the-definition congruence test on a block list."""
    label = {}
    for i, blk in enumerate(blocks):
        for x in blk:
            label[x] = i
    for sym, arity in alg.sig:
        if arity == 0:
            continue
        # the argument tuples in row-major order, beside the table entries
        cells = list(zip(product(range(alg.n), repeat=arity), alg.tables[sym]))
        for args_a, value_a in cells:
            for args_b, value_b in cells:
                if all(label[a] == label[b] for a, b in zip(args_a, args_b)):
                    if label[value_a] != label[value_b]:
                        return False
    return True


def congruence_witness(alg, blocks):
    """The scalar congruence scan: the first related argument pair with unrelated images.

    Returns (symbol, (args, args')) or None: symbols in declaration
    order, args lexicographically over all argument tuples, and args'
    lexicographically over the product of the blocks of args.
    """
    label, peers = {}, {}
    for i, blk in enumerate(blocks):
        for x in blk:
            label[x] = i
            peers[x] = sorted(blk)
    for sym, arity in alg.sig:
        if arity == 0:
            continue
        for args, entry in zip(product(range(alg.n), repeat=arity), alg.tables[sym]):
            value = label[entry]
            for args_b in product(*(peers[a] for a in args)):
                if label[cell(alg, sym, args_b)] != value:
                    return sym, (args, args_b)
    return None


def brute_force_congruences(alg):
    """All congruences as canonical block tuples, by filtering all partitions."""
    out = []
    for blocks in all_partitions(alg.n):
        if compatible(alg, blocks):
            out.append(tuple(tuple(sorted(b)) for b in sorted(blocks, key=min)))
    return out


def pair_orbit_reps(alg):
    """Codes a * n + b of the least pair a < b of each orbit under the bijective basic translations.

    The basic translations x -> f(c.., x, ..c) are read off the tables
    one position and one tuple of constants at a time; those that are
    permutations generate the group.  Pairs are scanned ascending, and
    each one not yet reached starts a breadth-first search of its orbit
    of unordered pairs, so it is the orbit's least pair.
    """
    n = alg.n
    perms = set()
    for sym, arity in alg.sig:
        for pos in range(arity):
            for consts in product(range(n), repeat=arity - 1):
                row = tuple(cell(alg, sym, consts[:pos] + (x,) + consts[pos:]) for x in range(n))
                if sorted(row) == list(range(n)):
                    perms.add(row)
    reached, reps = set(), []
    for a in range(n):
        for b in range(a + 1, n):
            if (a, b) in reached:
                continue
            reps.append(a * n + b)
            reached.add((a, b))
            frontier = [(a, b)]
            while frontier:
                step = []
                for x, y in frontier:
                    for p in perms:
                        image = (min(p[x], p[y]), max(p[x], p[y]))
                        if image not in reached:
                            reached.add(image)
                            step.append(image)
                frontier = step
    return reps


def meet_blocks(n, blocks_a, blocks_b):
    """Common refinement of two block lists, canonical form."""
    la, lb = {}, {}
    for i, blk in enumerate(blocks_a):
        for x in blk:
            la[x] = i
    for i, blk in enumerate(blocks_b):
        for x in blk:
            lb[x] = i
    groups = {}
    for x in range(n):
        groups.setdefault((la[x], lb[x]), []).append(x)
    return tuple(tuple(sorted(b)) for b in sorted(groups.values(), key=min))


def _new_arg_tuples(total, start, arity):
    """Lexicographic tuples over range(total)^arity with at least one id >= start."""
    if arity == 1:
        for i in range(start, total):
            yield (i,)
        return
    for i in range(total):
        head = (i,)
        if i >= start:
            for rest in product(range(total), repeat=arity - 1):
                yield head + rest
        else:
            for rest in _new_arg_tuples(total, start, arity - 1):
                yield head + rest


def naive_clone_rounds(alg, gens, cap):
    """The subpower BFS over the rows gens, with one fancy-index call per argument tuple.

    Same contract as ``subpower._rounds``: yields (index, derivations,
    fresh, crossed) once each round is evaluated, where index maps each
    row's bytes to its id, in id order, and fresh maps each new row's
    bytes to its derivation in the order of the argument tuples.  A
    round with more new rows than cap - len(derivations) crosses the
    cap: crossed is set and fresh is cut here, independently of the
    engine, to that many least keys.  The round is numbered on resume.
    The rows are kept in an id-indexed list of arrays, for the gathers.
    """
    n = alg.n
    if n > 255:
        raise ValueError("clone generation supports carriers up to 255 elements")
    size = gens.shape[1]
    op_arrays = {
        sym: np.asarray(alg.tables[sym], dtype=np.uint8).reshape((n,) * arity)
        for sym, arity in alg.sig
        if arity > 0
    }

    arrays, derivations = [], []
    known = {}
    fresh = {}
    for i, row in enumerate(gens):
        key = np.asarray(row, dtype=np.uint8).tobytes()
        if key not in fresh:
            fresh[key] = (None, i)
    depth = 0
    while True:
        room = cap - len(arrays)
        crossed = len(fresh) > room
        if crossed:
            fresh = dict(sorted(fresh.items())[:room])
        yield known, derivations, fresh, crossed
        frontier_start = len(arrays)
        for key, deriv in sorted(fresh.items()):
            known[key] = len(arrays)
            arrays.append(np.frombuffer(key, dtype=np.uint8))
            derivations.append(deriv)
        if crossed or not fresh:
            return
        depth += 1
        total = len(arrays)
        fresh = {}
        for sym, arity in alg.sig:
            if arity == 0:
                if depth == 1:
                    key = np.full(size, alg.tables[sym][0], dtype=np.uint8).tobytes()
                    if key not in known and key not in fresh:
                        fresh[key] = (sym, ())
                continue
            table = op_arrays[sym]
            for ids in _new_arg_tuples(total, frontier_start, arity):
                key = table[tuple(arrays[i] for i in ids)].tobytes()
                if key not in known and key not in fresh:
                    fresh[key] = (sym, ids)


def naive_satisfies(alg, ident):
    """(holds, least falsifying assignment or None), one assignment at a time."""
    for values in product(range(alg.n), repeat=len(ident.vars)):
        env = dict(zip(ident.vars, values))
        if eval_term(alg, ident.lhs, env) != eval_term(alg, ident.rhs, env):
            return False, env
    return True, None


def naive_verbal_pairs(alg, spec):
    """The (lhs, rhs) values that differ, identity by identity, assignments in product order."""
    pairs = []
    for ident in spec.identities:
        for values in product(range(alg.n), repeat=len(ident.vars)):
            env = dict(zip(ident.vars, values))
            left = eval_term(alg, ident.lhs, env)
            right = eval_term(alg, ident.rhs, env)
            if left != right:
                pairs.append((left, right))
    return pairs
