"""Congruence distributivity and its image-meet and closure characterizations.

Three checks on one finite algebra: distributivity of the congruence
lattice, preservation of binary meets by regular images, and the
closed-meet axiom (7) for the closure operator of an equational
subcategory.  The characterisation quantifies over the closure: for the
spec ``all`` (no identities) the closure is the identity, so axiom 7
reduces to image-meet preservation, and the three verdicts must agree.
Direct images are closed, so through Con(A/theta) = [theta, 1]
image-meet preservation is the law (r meet s) join theta = (r join
theta) meet (s join theta) for all r, s, theta, which holds exactly when
Con(A) is distributive.  For any other spec axiom 7 speaks of one
closure only and can pass on a non-distributive Con(A): under
``trivial`` (x = y) every closure is the full relation, so klein4, whose
Con is M3, passes axiom 7 and fails the other two.

dist_report builds Con(A), the closure map of A and, per quotient, the
image map and the target's closure map once (closure._sweep) and runs
one scan (_meet_scan) on them twice: for axiom 7 with the closure maps,
and for image-meet with identity maps, so image-meet is the axiom-7 scan
of the identity closure and never calls a closure construction.  The
closed-meet scan (_closed_meet_scan) reads the same closure map of A.
"""

from dataclasses import dataclass

from .closure import SubvarietySpec, _sweep
from .relations import _CARRIER_BOUND, is_distributive
from .verdict import Verdict


def _meet_scan(lat, c, quotients):
    """First (quotient f, r, s) with f(c(r meet s)) != c(f(r)) meet c(f(s)), else a pass.

    ``lat`` is Con(alg), ``c`` the closure map on it and ``quotients`` the
    (qm, Con(target), img, tc) of closure._sweep, tc being c on the target.
    The scan runs in (r, s, quotient) index order, the quotient fastest.
    """
    for ri, r in enumerate(lat.congruences):
        for si, s in enumerate(lat.congruences):
            met = c[lat.meet_table[ri][si]]
            for qm, tlat, img, tc in quotients:
                if img[met] != tlat.meet_table[tc[img[ri]]][tc[img[si]]]:
                    return Verdict(False, witness=(qm, r, s))
    return Verdict(True)


def _closed_meet_scan(lat, c):
    """First (r, s) with c(r) meet c(s) != c(r meet s), else a pass."""
    meet = lat.meet_table
    for ri, r in enumerate(lat.congruences):
        for si, s in enumerate(lat.congruences):
            if meet[c[ri]][c[si]] != c[meet[ri][si]]:
                return Verdict(False, witness=(r, s))
    return Verdict(True)


_NOT_DISTRIBUTIVE = Verdict(None, note="congruence lattice is not distributive")


@dataclass(frozen=True)
class DistReport:
    lattice_distributive: Verdict
    image_meet: Verdict
    axiom7: Verdict
    spec_name: str
    closure_meet: Verdict

    @property
    def agree(self):
        """The three verdicts coincide.

        They must for the spec ``all``, where axiom 7 is image-meet
        preservation; under another spec a False value need not be a fault.
        """
        return (
            self.lattice_distributive.ok
            == self.image_meet.ok
            == self.axiom7.ok
        )

    @property
    def ok(self):
        return self.lattice_distributive.ok and self.image_meet.ok and self.axiom7.ok


def dist_report(alg, spec=None, max_size=_CARRIER_BOUND):
    """Bundle the three distributivity verdicts for one algebra.

    Without a spec the whole category is used (empty identity list), so
    the closure in axiom 7 is the identity operator and the three
    verdicts must agree.  Under another spec axiom 7 can pass on a
    non-distributive Con(A), and ``agree`` is then False.
    """
    if spec is None:
        spec = SubvarietySpec(alg.sig, (), name="all")
    lat, c, quotients = _sweep(alg, spec, max_size)
    lattice = is_distributive(lat)
    plain = [(qm, tlat, img, range(len(tlat))) for qm, tlat, img, _tc in quotients]
    image = _meet_scan(lat, range(len(lat)), plain)
    axiom7 = _meet_scan(lat, c, quotients)
    closure_meet = _closed_meet_scan(lat, c) if lattice else _NOT_DISTRIBUTIVE
    return DistReport(
        lattice_distributive=lattice,
        image_meet=image,
        axiom7=axiom7,
        spec_name=spec.name or "all",
        closure_meet=closure_meet,
    )
