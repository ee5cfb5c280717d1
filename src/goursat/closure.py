"""Closure operators on congruences induced by equationally defined subvarieties.

The closed diagonal D of an algebra A is its verbal congruence
(birkhoff_congruence), built in one pass from the values the identities
take on A; A/D is the reflection into the subvariety.  Two closure
constructions are implemented and cross-checked: pulling D of A/S back
along q: A -> A/S (closure_effective) and the composite formula
closure(S) = D o S o D = S o D o S (closure_goursat, valid on
3-permutable algebras), which is the join formula that
permutability.goursat_join_check tests for the pair (D, S).  Both return
a ClosureResult holding only the input and its closure.  The closed
congruences are the fixed points of the closure map, so roundtrip_check
reads the bijection with reflections off the closure map of each quotient.

check_axioms verifies the closure-operator axiom suite exhaustively on
finite input; its docstring names the arrows and the witnesses.  One
sweep per algebra (_sweep, read by dist_report too) gives the closure as
an index map c on Con(A), built by closure_effective, and per theta the
direct images along q: A -> A/theta as an index map from Con(A) to
Con(A/theta) and the target's own closure map, computed on A/theta and
not derived through A (which would make axiom 5 a tautology).  Every
axiom but 6prime, which compares verbal congruences, reads these maps
against the lattice tables.  Con(A/theta) is the interval [theta, 1] of
Con(A), and it is read off that interval once per theta
(``relations._interval_lattice``): each psi >= theta labels element i of
A/theta as it labels the least element of theta's block i.  It is not
built through direct_image, so an injected direct_image fault cannot
corrupt the lattice that fault is checked against.  Axioms 3 and 5
along q read c at the index of each pull-back, found by inverse_image
and not by inverting the image map (a faulty direct_image fails
image_join alone).  A subalgebra or product, whose
Con is never enumerated, pulls each congruence of A or of a factor back
and closes it once.  A quotient (A/theta)/phi has the tables of A/psi
for psi the pull-back of phi and shares its memo (the family rule of
algebras.FiniteAlgebra), so the target's closure_effective calls reuse
the Con, translations and verbal congruences found on A.  They still
run, through the target's own quotients and inverse images, so axiom 5
compares two computations, and an injected closure_effective or
birkhoff_congruence fault reaches both, since neither is memoised here.
"""

from dataclasses import dataclass, field
from functools import partial, reduce

from .algebras import all_subuniverses, projections, quotient, subalgebra
from .errors import GoursatHypothesisError, SignatureMismatchError
from .permutability import _join, goursat_join_check
from .relations import (
    _CARRIER_BOUND,
    Partition,
    _index,
    _interval_lattice,
    _proved,
    con_lattice,
    congruence_generated,
    direct_image,
    inverse_image,
    inverse_image_by_map,
    is_distributive,
)
from .terms import eval_identity, validate_term
from .verdict import Verdict


@dataclass(frozen=True)
class SubvarietySpec:
    """A finite set of identities cutting out an equational subcategory."""

    sig: object
    identities: tuple
    name: str = ""

    def __post_init__(self):
        for ident in self.identities:
            validate_term(ident.lhs, self.sig)
            validate_term(ident.rhs, self.sig)
        object.__setattr__(self, "_key", (self.sig.key(), tuple(i.key() for i in self.identities)))

    def key(self):
        return self._key


def birkhoff_congruence(alg, spec):
    """Least congruence whose quotient satisfies every identity of the spec.

    This is the verbal congruence: the congruence generated by the pairs
    (lhs value, rhs value) of every identity under every assignment in
    alg.  One pass suffices.  For a congruence theta with quotient map
    q: alg -> alg/theta, q is surjective, so every assignment in
    alg/theta is q applied to an assignment e in alg, and q is a
    homomorphism, so each side of an identity evaluates there to q of
    its value under e.  Hence alg/theta satisfies the identities exactly
    when theta contains all these pairs.  The identities are evaluated
    as arrays by eval_identity; the differing pairs are listed in
    ``itertools.product`` order of the assignments, identity by identity.
    Cached per table family (see FiniteAlgebra) by the spec's key.
    """
    if alg.sig != spec.sig:
        raise SignatureMismatchError("algebra and subvariety spec use different signatures")
    return alg._cached(("birkhoff", spec.key()), _verbal_congruence, alg, spec)


def _verbal_congruence(alg, spec):
    """The verbal congruence, built on a miss of ``birkhoff_congruence``'s cache."""
    pairs = []
    for ident in spec.identities:
        for _start, lhs, rhs in eval_identity(alg, ident):
            differ = lhs != rhs
            pairs.extend(zip(lhs[differ].tolist(), rhs[differ].tolist()))
    return congruence_generated(alg, pairs)


def reflect(alg, spec):
    """Quotient by the verbal congruence; the target satisfies the spec."""
    return quotient(alg, birkhoff_congruence(alg, spec))


@dataclass(frozen=True)
class ClosureResult:
    """A congruence and its closure; ``closed`` and ``dense`` are read off them.

    For the verbal congruence call ``birkhoff_congruence(alg, spec)``, and
    for the reflection by the closure ``quotient(alg, res.closure)``.
    """

    input: Partition
    closure: Partition

    @property
    def closed(self):
        return self.closure == self.input

    @property
    def dense(self):
        return self.closure.num_blocks == 1


def closure_effective(alg, s, spec):
    """Closure via the quotient: pull the verbal congruence of alg/s back along q."""
    qm = quotient(alg, s)
    return ClosureResult(s, inverse_image(qm, birkhoff_congruence(qm.target, spec)))


def closure_goursat(alg, s, spec):
    """Closure by the composite formula D o S o D = S o D o S, no closure step.

    This is the 3-permutable join formula r o s o r = r join s for the
    pair (D, S), so the composite test is ``goursat_join_check``'s.  When
    the pair 3-permutes and D o S o D equals D join S, that join is the
    closure.  It is not compared with closure_effective here; the CLI
    and the acceptance suite do that.  Raises GoursatHypothesisError when
    the pair does not 3-permute (the composites disagree), which refutes
    3-permutability for this algebra, or when D o S o D is not the join,
    which means a fault in ``composite``.  s is validated once, by
    ``goursat_join_check``: a partition that is not a congruence raises
    NotCongruenceError; D was proved as it was generated, and D join S is
    the one ``goursat_join_check`` built.
    """
    diag = birkhoff_congruence(alg, spec)
    verdict = goursat_join_check(alg, diag, s)
    if verdict.ok is None:
        raise GoursatHypothesisError(
            "composite closures disagree: D o S o D differs from S o D o S"
        )
    if not verdict.ok:
        raise GoursatHypothesisError("composite D o S o D is not an equivalence relation")
    return ClosureResult(s, _join(alg, diag, s))


AXIOM_KEYS = ("1", "2", "3", "4", "5", "6", "6prime", "7", "additivity", "image_join")

AXIOM_DESCRIPTIONS = {
    "1": "extensivity: S <= closure(S)",
    "2": "monotonicity: S <= T implies closure(S) <= closure(T)",
    "3": "closure(f^-1(S)) <= f^-1(closure(S)) for every available arrow f",
    "4": "idempotence: closure(closure(S)) = closure(S)",
    "5": "closure(f^-1(S)) = f^-1(closure(S)) for quotient maps f",
    "6": "f(closure(S)) = closure(f(S)) for quotient maps f",
    "6prime": "f(closure(diagonal)) = closure(diagonal) on the target",
    "7": "f(closure(R meet S)) = closure(f(R)) meet closure(f(S))",
    "additivity": "closure(R join S) = closure(R) join closure(S)",
    "image_join": "f(R join S) = f(R) join f(S) for quotient maps f",
}

@dataclass
class AxiomReport:
    entries: dict
    notes: list = field(default_factory=list)

    @property
    def ok(self):
        return not any(st.failed for st in self.entries.values())


class _AxiomTracker:
    """Which axioms were checked, and the first failure of each as its witness."""

    def __init__(self):
        self.checked = set()
        self.failures = {}

    def record(self, key, ok, **fields):
        self.checked.add(key)
        if not ok and key not in self.failures:
            self.failures[key] = {
                name: value.to_literal() if isinstance(value, Partition) else value
                for name, value in fields.items()
            }

    def statuses(self, skipped_all):
        out = {}
        for key in AXIOM_KEYS:
            if key in self.failures:
                out[key] = Verdict(False, witness=self.failures[key])
            elif key in self.checked:
                out[key] = Verdict(True)
            elif skipped_all:
                out[key] = Verdict(None, note="carrier bound exceeded")
            elif key == "7":
                out[key] = Verdict(None, note="no input has a distributive congruence lattice")
            else:
                out[key] = Verdict(None, note="nothing to check")
        return out


def _closure_map(alg, lat, spec):
    """The closure map of alg on lat = Con(alg): entry i indexes the closure of congruence i."""
    return [lat.index(closure_effective(alg, p, spec).closure) for p in lat.congruences]


def _sweep(alg, spec, max_size):
    """Con(alg), its closure map c and, per theta in lattice order, (qm, Con(alg/theta), img, tc).

    c[i] indexes the closure of congruence i and img[i] its image under qm;
    Con(alg/theta) is read off [theta, 1], and tc is the closure map of
    alg/theta, computed on alg/theta itself.
    """
    lat = con_lattice(alg, max_size=max_size)
    c = _closure_map(alg, lat, spec)
    quotients = []
    for theta in lat.congruences:
        qm = quotient(alg, theta)
        tlat = _interval_lattice(lat, qm)
        img = [tlat.index(direct_image(qm, p)) for p in lat.congruences]
        quotients.append((qm, tlat, img, _closure_map(qm.target, tlat, spec)))
    return lat, c, quotients


def check_axioms(algs, spec, max_size=_CARRIER_BOUND):
    """Exhaustive axiom sweep over congruence lattices and quotient maps.

    Axiom 3 is additionally quantified over non-epi arrows: every proper
    subalgebra inclusion of each supplied algebra composed with every
    quotient map, and both projections of A x B for every pair A, B of
    supplied algebras (A = B included) whose product has at most
    ``max_size`` elements.  Along a quotient both sides of axioms 3 and 5
    are read off Con(A) by index; a subalgebra or a product closes each
    congruence it pulls back once, for every arrow through it.  Axiom 7
    characterizes congruence distributivity, so it is checked only on
    inputs whose congruence lattice is distributive; each other input is
    named in ``notes``, and axiom 7 is not applicable when no checked
    input qualifies.  Algebras and products larger than ``max_size`` are
    skipped and named in ``notes``.

    Witnesses are the first violation in enumeration order, so reports
    are deterministic.  Each names the algebra and then:

    - 1: s, closure; 4: s, closure, reclosure; 2: s, t (s below t);
    - 3: quotient (or subuniverse, quotient; or projection on the
      product), s on the target, lhs, rhs;
    - 5 and 6: quotient, s, lhs, rhs; 6prime: quotient, lhs, rhs;
    - 7 and image_join: quotient, r, s, lhs, rhs; additivity: r, s, lhs, rhs.
    """
    max_size = _index(max_size, what="max_size")
    tracker = _AxiomTracker()
    notes = []
    checked = []

    def pull_back(source, arrow, lat):
        """Pull every congruence of lat back along arrow and close each once on source."""
        pulled = [inverse_image_by_map(source.n, arrow, t) for t in lat.congruences]
        # arrow is a homomorphism, so the preimage of a congruence is a congruence
        _proved(source).update(p.index_of for p in pulled)
        return pulled, [closure_effective(source, p, spec).closure for p in pulled]

    for ai, alg in enumerate(algs):
        if alg.sig != spec.sig:
            raise SignatureMismatchError(
                f"algebra #{ai} does not match the spec's signature"
            )
        label = alg.name or f"#{ai}"
        if alg.n > max_size:
            notes.append(f"skipped {label}: carrier {alg.n} exceeds bound {max_size}")
            continue
        lat, c, quotients = _sweep(alg, spec, max_size)
        checked.append((alg, lat, c, label))
        cons, leq, meet, join = lat.congruences, lat.leq, lat.meet_table, lat.join_table
        record = partial(tracker.record, algebra=label)

        for i, s in enumerate(cons):
            ci = c[i]
            record("1", leq[i][ci], s=s, closure=cons[ci])
            record("4", c[ci] == ci, s=s, closure=cons[ci], reclosure=cons[c[ci]])
            for j, t in enumerate(cons):
                if i != j and leq[i][j]:
                    record("2", leq[ci][c[j]], s=s, t=t)
                if j >= i:
                    lhs, rhs = c[join[i][j]], join[ci][c[j]]
                    record("additivity", lhs == rhs, r=s, s=t, lhs=cons[lhs], rhs=cons[rhs])

        distributive = is_distributive(lat).ok
        if not distributive:
            notes.append(
                f"axiom 7 not checked on {label}: congruence lattice is not distributive"
            )

        delta_bar = birkhoff_congruence(alg, spec)
        ups = []
        for qm, tlat, img, tc in quotients:
            tcons, tmeet, tjoin = tlat.congruences, tlat.meet_table, tlat.join_table
            on_q = partial(record, quotient=qm.kernel)
            up = [lat.index(inverse_image(qm, t)) for t in tcons]
            ups.append(up)
            for t, u, v in zip(tcons, up, tc):
                lhs, rhs = c[u], up[v]
                on_q("3", leq[lhs][rhs], s=t, lhs=cons[lhs], rhs=cons[rhs])
                on_q("5", lhs == rhs, s=t, lhs=cons[lhs], rhs=cons[rhs])
            for s, ci, x in zip(cons, c, img):
                on_q("6", img[ci] == tc[x], s=s, lhs=tcons[img[ci]], rhs=tcons[tc[x]])
            lhs, rhs = direct_image(qm, delta_bar), birkhoff_congruence(qm.target, spec)
            on_q("6prime", lhs == rhs, lhs=lhs, rhs=rhs)
            for i, r in enumerate(cons):
                for j in range(i, len(cons)):
                    lhs, rhs = img[join[i][j]], tjoin[img[i]][img[j]]
                    on_q("image_join", lhs == rhs, r=r, s=cons[j], lhs=tcons[lhs], rhs=tcons[rhs])
                    if distributive:
                        lhs, rhs = img[c[meet[i][j]]], tmeet[tc[img[i]]][tc[img[j]]]
                        on_q("7", lhs == rhs, r=r, s=cons[j], lhs=tcons[lhs], rhs=tcons[rhs])

        # Non-surjective arrows: subalgebra inclusions composed with quotients.
        for universe in all_subuniverses(alg):
            if len(universe) == alg.n:
                continue
            sub, embed = subalgebra(alg, universe)
            on_sub = partial(record, subuniverse=" ".join(map(str, sorted(universe))))
            pulled, closed = pull_back(sub, embed, lat)
            for (qm, tlat, _img, tc), up in zip(quotients, ups):
                for t, u, v in zip(tlat.congruences, up, tc):
                    lhs, rhs = closed[u], pulled[up[v]]
                    on_sub("3", lhs.refines(rhs), quotient=qm.kernel, s=t, lhs=lhs, rhs=rhs)

    # Product projections: read each factor's congruences against its sweep's closure map.
    for ai, (first, flat, fc, flabel) in enumerate(checked):
        for second, slat, sc, slabel in checked[ai:]:
            if first.n * second.n > max_size:
                notes.append(f"skipped the projections of {flabel}x{slabel}: "
                             f"carrier {first.n * second.n} exceeds bound {max_size}")
                continue
            prod, pmaps = projections([first, second])
            for side, (pm, tlat, tc) in enumerate(zip(pmaps, (flat, slat), (fc, sc))):
                pulled, closed = pull_back(prod, pm.mapping, tlat)
                for t, lhs, v in zip(tlat.congruences, closed, tc):
                    tracker.record("3", lhs.refines(pulled[v]), algebra=prod.name,
                                   projection=str(side), s=t, lhs=lhs, rhs=pulled[v])

    entries = tracker.statuses(skipped_all=bool(algs) and not checked)
    return AxiomReport(entries=entries, notes=notes)


def roundtrip_check(alg, spec):
    """Verify the reflection/closure round trip on one algebra.

    (a) the reflection target has a closed diagonal; (b) for every
    congruence s, the verbal congruence of alg/s rederived from the
    membership predicate "diagonal closed" is one of the congruences it
    was derived from and agrees with the direct construction.  A
    congruence t of alg/s has a closed diagonal on (alg/s)/t exactly
    when t is a fixed point of the closure map of alg/s, so (b) builds
    that map once per s and derives the meet of its fixed points.
    """
    target = reflect(alg, spec).target
    if birkhoff_congruence(target, spec) != Partition.discrete(target.n):
        return Verdict(
            False,
            witness={"part": "a", "detail": "reflection target has a non-closed diagonal"},
        )

    lat = con_lattice(alg)
    for s in lat.congruences:
        qm = quotient(alg, s)
        tlat = _interval_lattice(lat, qm)
        tc = _closure_map(qm.target, tlat, spec)
        closed = [t for t, u in enumerate(tc) if u == t]
        derived = reduce(lambda a, b: tlat.meet_table[a][b], closed)
        direct = birkhoff_congruence(qm.target, spec)
        if tc[derived] != derived or tlat.congruences[derived] != direct:
            return Verdict(
                False,
                witness={
                    "part": "b",
                    "s": s.to_literal(),
                    "derived": tlat.congruences[derived].to_literal(),
                    "direct": direct.to_literal(),
                },
            )
    return Verdict(True)
