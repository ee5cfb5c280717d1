"""Closure operators on congruences induced by equationally defined subvarieties.

Two constructions are implemented and cross-checked: pulling back the
verbal congruence of the quotient (closure_effective) and the composite
formula closure(S) = D o S o D = S o D o S where D is the closure of the
diagonal (closure_goursat, valid on 3-permutable algebras).  check_axioms
verifies the closure-operator axiom suite exhaustively on finite input;
the closed-meet axiom (7) is checked on the inputs whose congruence
lattice is distributive, and every other input is named in the notes.
"""

from dataclasses import dataclass, field
from itertools import product as iproduct

from .algebras import all_subuniverses, projections, quotient, subalgebra
from .errors import (
    GoursatHypothesisError,
    NotPermutableError,
    SignatureMismatchError,
)
from .relations import (
    Partition,
    con_lattice,
    congruence_generated,
    direct_image,
    inverse_image,
    inverse_image_by_map,
    is_distributive,
    join,
    require_congruence,
)
from .terms import eval_term, validate_term
from .verdict import FAIL, NOT_APPLICABLE, PASS, CheckStatus, Verdict


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

    def key(self):
        return (self.sig.key(), tuple(ident.key() for ident in self.identities))


def birkhoff_congruence(alg, spec):
    """Least congruence whose quotient satisfies every identity of the spec.

    Generates the pairs (lhs value, rhs value) over all assignments, then
    re-checks on the quotient and re-seeds until no violation remains.
    Memoised per algebra by the spec's key.
    """
    if alg.sig != spec.sig:
        raise SignatureMismatchError("algebra and subvariety spec use different signatures")
    key = ("birkhoff", spec.key())
    hit = alg._memo.get(key)
    if hit is not None:
        return hit

    theta = Partition.discrete(alg.n)
    while True:
        qm = quotient(alg, theta)
        target = qm.target
        violations = []
        for ident in spec.identities:
            for values in iproduct(range(target.n), repeat=len(ident.vars)):
                env = dict(zip(ident.vars, values))
                left = eval_term(target, ident.lhs, env)
                right = eval_term(target, ident.rhs, env)
                if left != right:
                    violations.append((left, right))
        if not violations:
            alg._memo[key] = theta
            return theta
        reps = [blk[0] for blk in theta.blocks]
        lifted = [(reps[a], reps[b]) for a, b in violations]
        theta = congruence_generated(alg, theta.generating_pairs() + lifted)


def reflect(alg, spec):
    """Quotient by the verbal congruence; the target satisfies the spec."""
    return quotient(alg, birkhoff_congruence(alg, spec))


@dataclass(frozen=True)
class ClosureResult:
    input: Partition
    closure: Partition
    delta_bar: Partition
    reflection: object  # QuotientMap with kernel == closure
    closed: bool
    dense: bool


def _bundle(alg, s, cl, spec):
    return ClosureResult(
        input=s,
        closure=cl,
        delta_bar=birkhoff_congruence(alg, spec),
        reflection=quotient(alg, cl),
        closed=(cl == s),
        dense=(cl.num_blocks == 1),
    )


def closure_effective(alg, s, spec):
    """Closure via the quotient: pull the verbal congruence of alg/s back along q."""
    qm = quotient(alg, s)
    cl = inverse_image(qm, birkhoff_congruence(qm.target, spec))
    return _bundle(alg, s, cl, spec)


def closure_goursat(alg, s, spec):
    """Closure via raw composites D o S o D = S o D o S, no closure step.

    Raises GoursatHypothesisError when the composites disagree or fail to
    be an equivalence relation, which refutes 3-permutability for this
    algebra.
    """
    require_congruence(alg, s)
    diag = birkhoff_congruence(alg, spec).as_binrel()
    sb = s.as_binrel()
    left = diag.compose(sb).compose(diag)
    right = sb.compose(diag).compose(sb)
    if left != right:
        raise GoursatHypothesisError(
            "composite closures disagree: D o S o D differs from S o D o S",
            detail={"input": s.to_literal()},
        )
    if not left.is_equivalence():
        raise GoursatHypothesisError(
            "composite D o S o D is not an equivalence relation",
            detail={"input": s.to_literal()},
        )
    return _bundle(alg, s, left.to_partition(), spec)


def closure_by_component(alg, s, r_comp):
    """Closure as the raw composite s o r for a 2-permuting pair.

    The second argument plays the role of a designated congruence whose
    join with s is the closure; the formula only applies when the pair
    permutes, so non-permuting input is refused.
    """
    require_congruence(alg, s)
    require_congruence(alg, r_comp)
    sb, rb = s.as_binrel(), r_comp.as_binrel()
    raw = sb.compose(rb)
    if raw != rb.compose(sb):
        raise NotPermutableError(
            "pair does not 2-permute, the composite formula does not apply", s, r_comp
        )
    joined = join(alg, s, r_comp)
    if raw != joined.as_binrel():
        raise GoursatHypothesisError(
            "permuting composite failed to equal the join",
            detail={"s": s.to_literal(), "r": r_comp.to_literal()},
        )
    return raw.to_partition()


@dataclass(frozen=True)
class Bounds:
    max_carrier: int = 64
    subuniverse_exhaustive_limit: int = 10


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
    bounds: Bounds
    notes: list = field(default_factory=list)

    @property
    def ok(self):
        return not any(st.failed for st in self.entries.values())


class _AxiomTracker:
    def __init__(self):
        self.checked = {k: False for k in AXIOM_KEYS}
        self.failures = {}

    def record(self, key, ok, witness_fn):
        self.checked[key] = True
        if not ok and key not in self.failures:
            self.failures[key] = witness_fn()

    def statuses(self, skipped_all):
        out = {}
        for key in AXIOM_KEYS:
            if key in self.failures:
                out[key] = CheckStatus(FAIL, witness=self.failures[key])
            elif self.checked[key]:
                out[key] = CheckStatus(PASS)
            elif skipped_all:
                out[key] = CheckStatus(NOT_APPLICABLE, note="carrier bound exceeded")
            elif key == "7":
                out[key] = CheckStatus(
                    NOT_APPLICABLE, note="no input has a distributive congruence lattice"
                )
            else:
                out[key] = CheckStatus(NOT_APPLICABLE, note="nothing to check")
        return out


def check_axioms(algs, spec, bounds=None):
    """Exhaustive axiom sweep over congruence lattices and quotient maps.

    Axiom 3 is additionally quantified over non-epi arrows: every
    subalgebra inclusion of each supplied algebra composed with every
    quotient map.  Axiom 7 characterizes congruence distributivity, so it
    is checked only on inputs whose congruence lattice is distributive;
    each other input is named in ``notes``, and axiom 7 is not applicable
    when no checked input qualifies.  Witnesses are the first violation
    in enumeration order, so reports are deterministic.
    """
    bounds = bounds or Bounds()
    tracker = _AxiomTracker()
    notes = []
    any_checked = False

    for ai, alg in enumerate(algs):
        if alg.sig != spec.sig:
            raise SignatureMismatchError(
                f"algebra #{ai} does not match the spec's signature"
            )
        label = alg.name or f"#{ai}"
        if alg.n > bounds.max_carrier:
            notes.append(f"skipped {label}: carrier {alg.n} exceeds bound {bounds.max_carrier}")
            continue
        any_checked = True
        lat = con_lattice(alg, max_size=bounds.max_carrier)
        cons = lat.congruences
        closures = [closure_effective(alg, p, spec).closure for p in cons]
        closure_idx = [lat.index(c) for c in closures]
        delta_bar = birkhoff_congruence(alg, spec)

        def wit(**kw):
            data = {"algebra": label}
            data.update(kw)
            return data

        for i, p in enumerate(cons):
            tracker.record(
                "1",
                p.refines(closures[i]),
                lambda i=i, p=p: wit(s=p.to_literal(), closure=closures[i].to_literal()),
            )
            tracker.record(
                "4",
                closures[closure_idx[i]] == closures[i],
                lambda i=i, p=p: wit(
                    s=p.to_literal(),
                    closure=closures[i].to_literal(),
                    reclosure=closures[closure_idx[i]].to_literal(),
                ),
            )
        for i in range(len(cons)):
            for j in range(len(cons)):
                if i != j and lat.leq[i][j]:
                    tracker.record(
                        "2",
                        closures[i].refines(closures[j]),
                        lambda i=i, j=j: wit(
                            s=cons[i].to_literal(), t=cons[j].to_literal()
                        ),
                    )

        distributive = is_distributive(lat).ok
        if not distributive:
            notes.append(
                f"axiom 7 not checked on {label}: congruence lattice is not distributive"
            )

        quotients = [quotient(alg, p) for p in cons]
        target_lattices = []
        target_closures = []
        for qi, qm in enumerate(quotients):
            tlat = con_lattice(qm.target, max_size=bounds.max_carrier)
            tclosures = [closure_effective(qm.target, t, spec).closure for t in tlat.congruences]
            target_lattices.append(tlat)
            target_closures.append(tclosures)
            for ti, t in enumerate(tlat.congruences):
                pulled = inverse_image(qm, t)
                lhs = closures[lat.index(pulled)]
                rhs = inverse_image(qm, tclosures[ti])
                common = dict(
                    quotient=cons[qi].to_literal(),
                    s=t.to_literal(),
                    lhs=lhs.to_literal(),
                    rhs=rhs.to_literal(),
                )
                tracker.record("3", lhs.refines(rhs), lambda c=common: wit(**c))
                tracker.record("5", lhs == rhs, lambda c=common: wit(**c))
            images = [direct_image(qm, p) for p in cons]
            closed_images = [tclosures[tlat.index(image)] for image in images]
            image_closures = [direct_image(qm, c) for c in closures]
            for si in range(len(cons)):
                lhs = image_closures[si]
                rhs = closed_images[si]
                tracker.record(
                    "6",
                    lhs == rhs,
                    lambda qi=qi, si=si, lhs=lhs, rhs=rhs: wit(
                        quotient=cons[qi].to_literal(),
                        s=cons[si].to_literal(),
                        lhs=lhs.to_literal(),
                        rhs=rhs.to_literal(),
                    ),
                )
            image_diag = direct_image(qm, delta_bar)
            target_diag = birkhoff_congruence(qm.target, spec)
            tracker.record(
                "6prime",
                image_diag == target_diag,
                lambda qi=qi, a=image_diag, b=target_diag: wit(
                    quotient=cons[qi].to_literal(),
                    lhs=a.to_literal(),
                    rhs=b.to_literal(),
                ),
            )
            for i in range(len(cons)):
                for j in range(i, len(cons)):
                    lhs = images[lat.join_table[i][j]]
                    rhs = join(qm.target, images[i], images[j])
                    tracker.record(
                        "image_join",
                        lhs == rhs,
                        lambda qi=qi, i=i, j=j, lhs=lhs, rhs=rhs: wit(
                            quotient=cons[qi].to_literal(),
                            r=cons[i].to_literal(),
                            s=cons[j].to_literal(),
                            lhs=lhs.to_literal(),
                            rhs=rhs.to_literal(),
                        ),
                    )
            if distributive:
                for i in range(len(cons)):
                    for j in range(i, len(cons)):
                        lhs = image_closures[lat.meet_table[i][j]]
                        rhs = closed_images[i].meet(closed_images[j])
                        tracker.record(
                            "7",
                            lhs == rhs,
                            lambda qi=qi, i=i, j=j, lhs=lhs, rhs=rhs: wit(
                                quotient=cons[qi].to_literal(),
                                r=cons[i].to_literal(),
                                s=cons[j].to_literal(),
                                lhs=lhs.to_literal(),
                                rhs=rhs.to_literal(),
                            ),
                        )

        for i in range(len(cons)):
            for j in range(i, len(cons)):
                lhs = closures[lat.index(lat.join(i, j))]
                rhs = join(alg, closures[i], closures[j])
                tracker.record(
                    "additivity",
                    lhs == rhs,
                    lambda i=i, j=j, lhs=lhs, rhs=rhs: wit(
                        r=cons[i].to_literal(),
                        s=cons[j].to_literal(),
                        lhs=lhs.to_literal(),
                        rhs=rhs.to_literal(),
                    ),
                )

        # Non-surjective arrows for axiom 3: subalgebra inclusions composed
        # with quotients.
        for universe in all_subuniverses(alg, bounds.subuniverse_exhaustive_limit):
            if len(universe) == alg.n:
                continue
            sub, embed = subalgebra(alg, universe)
            for qi, qm in enumerate(quotients):
                arrow = tuple(qm.mapping[e] for e in embed)
                for t, tclosure in zip(target_lattices[qi].congruences, target_closures[qi]):
                    pulled = inverse_image_by_map(sub.n, arrow, t)
                    lhs = closure_effective(sub, pulled, spec).closure
                    rhs = inverse_image_by_map(sub.n, arrow, tclosure)
                    tracker.record(
                        "3",
                        lhs.refines(rhs),
                        lambda u=universe, qi=qi, t=t, lhs=lhs, rhs=rhs: wit(
                            subuniverse=" ".join(map(str, sorted(u))),
                            quotient=cons[qi].to_literal(),
                            s=t.to_literal(),
                            lhs=lhs.to_literal(),
                            rhs=rhs.to_literal(),
                        ),
                    )

    # Product projections over pairs from the supplied list feed axiom 3 as
    # well: pull congruences of a factor back along the projection and
    # compare closures on the product.
    eligible = [a for a in algs if a.n <= bounds.max_carrier]
    for ai in range(len(eligible)):
        for bi in range(ai, len(eligible)):
            first, second = eligible[ai], eligible[bi]
            if first.n * second.n > bounds.max_carrier:
                continue
            prod, pmaps = projections([first, second])
            for side, pm in enumerate(pmaps):
                factor = pm.target
                flat = con_lattice(factor, max_size=bounds.max_carrier)
                for t in flat.congruences:
                    pulled = inverse_image(pm, t)
                    lhs = closure_effective(prod, pulled, spec).closure
                    rhs = inverse_image(pm, closure_effective(factor, t, spec).closure)
                    tracker.record(
                        "3",
                        lhs.refines(rhs),
                        lambda prod=prod, side=side, t=t, lhs=lhs, rhs=rhs: {
                            "algebra": prod.name,
                            "projection": str(side),
                            "s": t.to_literal(),
                            "lhs": lhs.to_literal(),
                            "rhs": rhs.to_literal(),
                        },
                    )

    entries = tracker.statuses(skipped_all=not any_checked)
    return AxiomReport(entries=entries, bounds=bounds, notes=notes)


def roundtrip_check(alg, spec):
    """Verify the reflection/closure round trip on one algebra.

    (a) the reflection target has a closed diagonal; (b) for every
    congruence s, the closure rederived from the membership predicate
    "diagonal closed" agrees with the direct construction.
    """
    target = reflect(alg, spec).target
    if birkhoff_congruence(target, spec) != Partition.discrete(target.n):
        return Verdict(
            False,
            witness={"part": "a", "detail": "reflection target has a non-closed diagonal"},
        )

    for s in con_lattice(alg).congruences:
        qm = quotient(alg, s)
        direct = birkhoff_congruence(qm.target, spec)
        qualifying = []
        for t in con_lattice(qm.target).congruences:
            image = quotient(qm.target, t).target
            if birkhoff_congruence(image, spec) == Partition.discrete(image.n):
                qualifying.append(t)
        derived = qualifying[0]
        for t in qualifying[1:]:
            derived = derived.meet(t)
        if derived not in qualifying or derived != direct:
            return Verdict(
                False,
                witness={
                    "part": "b",
                    "s": s.to_literal(),
                    "derived": derived.to_literal(),
                    "direct": direct.to_literal(),
                },
            )
        pulled = inverse_image(qm, direct)
        straight = closure_effective(alg, s, spec).closure
        if pulled != straight:
            return Verdict(
                False,
                witness={
                    "part": "b",
                    "s": s.to_literal(),
                    "pulled": pulled.to_literal(),
                    "closure": straight.to_literal(),
                },
            )
    return Verdict(True)
