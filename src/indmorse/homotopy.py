"""Homotopy-type classification from the shape of a gradient field.

A complex with an acyclic matching whose critical simplices are all
maximal, but for at most one 0-simplex, is collapsible or a wedge of
spheres with one sphere per critical simplex of positive dimension
(homotopy_from_counts).  classify verifies a matching on a complex and
applies that rule; when it does not hold the result is honestly
Unclassified rather than a guess.  Every build meets it: the certificate of
a build proves every critical cell but the special 0-simplex maximal, so
classify_tree needs no complex and reads the type off the certified
critical counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import SimplicialComplex, _non_maximal
from .graph_core import Graph, domination_number
from .homology import HomologyProfile
from .matching import check_field
from .morse import ConstructionResult, _f_to_reduced, _trim, certify_tree


@dataclass(frozen=True)
class HomotopyType:
    """Outcome of the classification.

    kind is "collapsible", "wedge", or "unclassified".  For a wedge the
    counts tuple lists the number of spheres per dimension starting at 0,
    kept without trailing zeros, so one type has one value; only a wedge
    has spheres.  reason explains an unclassified verdict.
    """

    kind: str
    wedge: tuple[int, ...] = ()
    reason: str = ""

    def __post_init__(self):
        if self.kind not in ("collapsible", "wedge", "unclassified"):
            raise ValueError(f"unknown kind {self.kind!r}")
        object.__setattr__(self, "wedge", _trim(list(self.wedge)))
        if (self.kind == "wedge") != bool(self.wedge):
            raise ValueError("a wedge has at least one sphere, other kinds none")


def homotopy_from_counts(fvec: tuple[int, ...]) -> HomotopyType:
    """The type of a complex whose acyclic matching has critical f-vector
    fvec and only maximal critical simplices, but for at most one 0-simplex:
    one sphere per count of R past R_-1, that is per critical cell with one
    0-simplex taken as the base point, and collapsible when there is none."""
    if not any(fvec):
        raise ValueError("a nonempty complex has at least one critical simplex")
    wedge = _f_to_reduced(fvec)[1:]
    return HomotopyType("wedge", wedge) if wedge else HomotopyType("collapsible")


_UNCLASSIFIED = HomotopyType(
    "unclassified",
    reason="a critical simplex other than one 0-simplex is non-maximal",
)


def classify(x: SimplicialComplex, result: ConstructionResult) -> HomotopyType:
    """Classify the homotopy type read off an acyclic matching on x,
    verifying the matching on x first: homotopy_from_counts when every
    critical simplex but at most one 0-simplex is maximal, else
    unclassified."""
    cert = check_field(x, result.pairs)
    if cert.error is not None:
        raise ValueError("pairs do not form a matching on this complex")
    if cert.cycle is not None:
        raise ValueError("matching is not acyclic")
    critical, fvec = cert.critical, cert.critical_f
    if critical != result.critical_set or fvec != result.critical_f:
        raise ValueError("result does not describe its own matching")
    # With no critical simplex, homotopy_from_counts raises.
    non_maximal = _non_maximal(x, critical)
    if not non_maximal or (
        len(non_maximal) == 1 and non_maximal[0].bit_count() == 1
    ):
        return homotopy_from_counts(fvec)
    return _UNCLASSIFIED


def classify_tree(g: Graph, result: ConstructionResult) -> HomotopyType:
    """The type of a build of g, certified on its recursion tree by the
    extension theorem (morse.certify_tree) instead of verified on I(g).  The
    certificate proves every critical cell but the special 0-simplex
    maximal, so the type follows from the certified critical counts alone."""
    return homotopy_from_counts(certify_tree(g, result))


def check_domination_bound(g: Graph, h: HomotopyType) -> bool:
    """Every sphere in a wedge has dimension at least the domination number
    of the graph minus one.  Collapsible complexes pass vacuously."""
    if h.kind == "collapsible":
        return True
    if h.kind != "wedge":
        raise ValueError("bound applies to classified types only")
    low = next(d for d, c in enumerate(h.wedge) if c)
    return low >= domination_number(g) - 1


def consistency_with_homology(h: HomotopyType, profile: HomologyProfile) -> bool:
    """Check the classified type against independently computed homology:
    the torsion-free reduced Betti numbers, trimmed like R, are the wedge's
    sphere counts, none when collapsible.  Unclassified types and the empty
    complex give False."""
    betti = profile.betti
    if h.kind == "unclassified" or not betti or not all(profile.torsion_free):
        return False
    return _f_to_reduced(betti)[1:] == h.wedge
