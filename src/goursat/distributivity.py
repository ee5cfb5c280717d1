"""Congruence distributivity and its image-meet and closure characterizations.

Three checks that must agree on any finite input from a 3-permutable
variety: distributivity of the congruence lattice, preservation of
binary meets by regular images, and the closed-meet axiom for the
closure operator of an equational subcategory.
"""

from dataclasses import dataclass
from typing import Optional

from .algebras import quotient
from .closure import SubvarietySpec, closure_effective
from .relations import con_lattice, direct_image, is_distributive
from .verdict import FAIL, NOT_APPLICABLE, PASS, CheckStatus, Verdict


def image_meet_check(alg, max_size=64):
    """Does every quotient map preserve binary meets of congruences?

    Scans (r, s, quotient) in lexicographic index order, the quotient
    index varying fastest, and reports the first failure.
    """
    lat = con_lattice(alg, max_size=max_size)
    cons = lat.congruences
    quotients = [quotient(alg, p) for p in cons]
    for ri, r in enumerate(cons):
        for si, s in enumerate(cons):
            met = lat.meet(ri, si)
            for qm in quotients:
                lhs = direct_image(qm, met)
                rhs = direct_image(qm, r).meet(direct_image(qm, s))
                if lhs != rhs:
                    return Verdict(False, witness=(qm, r, s))
    return Verdict(True)


def check_axiom7(alg, spec, max_size=64):
    """f(closure(r meet s)) = closure(f(r)) meet closure(f(s)) over all sweeps."""
    lat = con_lattice(alg, max_size=max_size)
    cons = lat.congruences
    quotients = [quotient(alg, p) for p in cons]
    closures = [closure_effective(alg, p, spec).closure for p in cons]
    closed_images = [
        [closure_effective(qm.target, direct_image(qm, p), spec).closure for p in cons]
        for qm in quotients
    ]
    for ri, r in enumerate(cons):
        for si, s in enumerate(cons):
            closed_meet = closures[lat.meet_table[ri][si]]
            for qi, qm in enumerate(quotients):
                lhs = direct_image(qm, closed_meet)
                rhs = closed_images[qi][ri].meet(closed_images[qi][si])
                if lhs != rhs:
                    return Verdict(False, witness=(qm, r, s))
    return Verdict(True)


def closure_meet_identity_check(alg, spec, max_size=64):
    """closure(r) meet closure(s) = closure(r meet s), on distributive lattices only."""
    lat = con_lattice(alg, max_size=max_size)
    if not is_distributive(lat):
        return CheckStatus(NOT_APPLICABLE, note="congruence lattice is not distributive")
    cons = lat.congruences
    closures = [closure_effective(alg, p, spec).closure for p in cons]
    for ri in range(len(cons)):
        for si in range(len(cons)):
            lhs = closures[ri].meet(closures[si])
            rhs = closures[lat.meet_table[ri][si]]
            if lhs != rhs:
                return CheckStatus(FAIL, witness=(cons[ri], cons[si]))
    return CheckStatus(PASS)


@dataclass(frozen=True)
class DistReport:
    lattice_distributive: Verdict
    image_meet: Verdict
    axiom7: Verdict
    spec_name: str
    closure_meet: Optional[CheckStatus] = None

    @property
    def agree(self):
        return (
            self.lattice_distributive.ok
            == self.image_meet.ok
            == self.axiom7.ok
        )

    @property
    def ok(self):
        return self.lattice_distributive.ok and self.image_meet.ok and self.axiom7.ok


def dist_report(alg, spec=None, max_size=64):
    """Bundle the three distributivity verdicts for one algebra.

    Without a spec the whole category is used (empty identity list), so
    the closure in axiom 7 is the identity operator.
    """
    if spec is None:
        spec = SubvarietySpec(alg.sig, (), name="all")
    lattice = is_distributive(con_lattice(alg, max_size=max_size))
    image = image_meet_check(alg, max_size=max_size)
    axiom7 = check_axiom7(alg, spec, max_size=max_size)
    closure_meet = closure_meet_identity_check(alg, spec, max_size=max_size)
    return DistReport(
        lattice_distributive=lattice,
        image_meet=image,
        axiom7=axiom7,
        spec_name=spec.name or "all",
        closure_meet=closure_meet,
    )
