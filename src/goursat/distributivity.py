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

Both meet checks run one scan (_meet_scan) over the index maps of
closure.py: check_axiom7 with the closure map, and image_meet_check with
the identity map, so image-meet is the axiom-7 scan of the identity
closure and never calls a closure construction.  dist_report builds the
image maps and the closure map of A once, runs both scans on them and
hands the same closure map to the closed-meet scan (_closed_meet_scan).
"""

from dataclasses import dataclass
from functools import partial

from .closure import SubvarietySpec, _closure_map, _image_maps
from .relations import con_lattice, is_distributive
from .verdict import Verdict


def _meet_scan(lat, c, maps, closure_map):
    """First (quotient f, r, s) with f(c(r meet s)) != c(f(r)) meet c(f(s)), else a pass.

    ``lat`` is Con(alg), ``c`` the closure map on it and ``maps`` its
    _image_maps; ``closure_map(B, Con(B))`` is c on each quotient target.
    The scan runs in (r, s, quotient) index order, the quotient fastest.
    """
    scans = [
        (qm, tlat.meet_table, img, closure_map(qm.target, tlat))
        for qm, tlat, img in maps
    ]
    for ri, r in enumerate(lat.congruences):
        for si, s in enumerate(lat.congruences):
            met = c[lat.meet_table[ri][si]]
            for qm, tmeet, img, tc in scans:
                if img[met] != tmeet[tc[img[ri]]][tc[img[si]]]:
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


def _identity_map(_alg, lat):
    return range(len(lat))


def _scan_inputs(alg, max_size, closure_map):
    """Con(alg), the closure map on it and its image maps: the inputs of _meet_scan."""
    lat = con_lattice(alg, max_size=max_size)
    return lat, closure_map(alg, lat), _image_maps(alg, lat, max_size)


def image_meet_check(alg, max_size=64):
    """Does every quotient map preserve binary meets?  The axiom-7 scan of the identity map."""
    return _meet_scan(*_scan_inputs(alg, max_size, _identity_map), _identity_map)


def check_axiom7(alg, spec, max_size=64):
    """f(closure(r meet s)) = closure(f(r)) meet closure(f(s)) over all sweeps."""
    closure_map = partial(_closure_map, spec=spec)
    return _meet_scan(*_scan_inputs(alg, max_size, closure_map), closure_map)


def closure_meet_identity_check(alg, spec, max_size=64):
    """closure(r) meet closure(s) = closure(r meet s), on distributive lattices only."""
    lat = con_lattice(alg, max_size=max_size)
    if not is_distributive(lat):
        return _NOT_DISTRIBUTIVE
    return _closed_meet_scan(lat, _closure_map(alg, lat, spec))


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


def dist_report(alg, spec=None, max_size=64):
    """Bundle the three distributivity verdicts for one algebra.

    Without a spec the whole category is used (empty identity list), so
    the closure in axiom 7 is the identity operator and the three
    verdicts must agree.  Under another spec axiom 7 can pass on a
    non-distributive Con(A), and ``agree`` is then False.
    """
    if spec is None:
        spec = SubvarietySpec(alg.sig, (), name="all")
    closure_map = partial(_closure_map, spec=spec)
    lat, c, maps = _scan_inputs(alg, max_size, closure_map)
    lattice = is_distributive(lat)
    image = _meet_scan(lat, _identity_map(alg, lat), maps, _identity_map)
    axiom7 = _meet_scan(lat, c, maps, closure_map)
    closure_meet = _closed_meet_scan(lat, c) if lattice else _NOT_DISTRIBUTIVE
    return DistReport(
        lattice_distributive=lattice,
        image_meet=image,
        axiom7=axiom7,
        spec_name=spec.name or "all",
        closure_meet=closure_meet,
    )
