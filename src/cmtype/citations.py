"""Literature references attached to classification verdicts.

Every classification rule carries a citation label and a verbatim quote from
the corresponding result; reports embed these strings so a verdict can be
checked against its source.  Scope notes (entries whose label starts with
"tool scope") mark decisions the tool declines rather than results it cites.
"""

from __future__ import annotations

from typing import NamedTuple


class Justification(NamedTuple):
    rule: str
    citation: str
    quote: str


_SOURCES: dict[str, tuple[str, str]] = {
    "regular-ring": (
        "§6 Summary, arbitrary dimension", "k[x_1, …, x_n], n ≥ 1"
    ),
    "dim0-hypersurface": ("Prop 2.1", "R is a hypersurface ring"),
    "dim0-obstruction": (
        "Prop 2.1 proof", "there are uncountably many distinct homogeneous ideals"
    ),
    "dim1-hypersurface-list": (
        "Cor 3.4",
        "is either of minimal multiplicity with h-vector (1,2), or is isomorphic "
        "to one of the following hypersurfaces",
    ),
    "dim1-two-lines": ("Cor 3.4 (2)", "k[x,y]/(xy)"),
    "dim1-three-lines": ("Cor 3.4 (3)", "k[x,y]/(xy(x+y))"),
    "dim1-d-infinity": ("Cor 3.4 (4)", "k[x,y]/(xy^2)"),
    "dim1-a-infinity": ("Cor 3.4 (5)", "k[x,y]/(y^2)"),
    "hypersurface-countable-iff": (
        "§1.1",
        "countable Cohen-Macaulay type if and only if it is isomorphic to one of "
        "the following",
    ),
    "completion-transfer": (
        "Remark 1.3",
        "if the completion of a standard graded ring R with respect to the maximal "
        "ideal has finite (respectively countable) type, then R must have graded "
        "finite (respectively countable) type",
    ),
    "dim1-h13": ("Thm 3.3", "is not of graded countable Cohen-Macaulay type"),
    "dim1-possible-h": (
        "Cor 3.5", "the possible h-vectors are (1), (1,n), or (1,n,1)"
    ),
    "dim1-gw12": ("§3.2 eqn:gw-1,2", "having h-vector (1,2)"),
    "dim1-graded12": (
        "Cor 3.6 (4)", "R is of graded finite type and isomorphic to one of the following"
    ),
    "dim1-12-open": (
        "§3.2", "classify the rings whose h-vector is (1,2)"
    ),
    "dr-unsupported": (
        "tool scope",
        "normalization is combinatorially explicit only for numerical semigroup "
        "rings and two-variable line arrangements",
    ),
    "dim2-isolated-minmult": (
        "§4.1",
        "two dimensional standard graded Cohen-Macaulay rings with an isolated "
        "singularity must be a domain and have minimal multiplicity",
    ),
    "dim2-nonisolated-open": (
        "§6 Summary, dimension two",
        "we are not aware of any other graded countable type ring with a "
        "non-isolated singularity",
    ),
    "dim3-domain-minmult": (
        "§4.2", "must be a domain and have minimal multiplicity"
    ),
    "scroll-2dim-finite": (
        "Prop 4.2", "R is of graded finite type and is isomorphic to"
    ),
    "dim3-special-finite": (
        "Prop 4.5", "R is of graded finite type and is isomorphic one of the following rings"
    ),
    "veronese-cone-open": (
        "§4.1", "it is unclear if the ring is graded countable type or not"
    ),
    "veronese-cone-big-singular": (
        "§4.1", "the dimension of the singular locus is larger than 1"
    ),
    "scroll-uncountable": (
        "Prop 4.5 proof", "has |k| many indecomposable graded Cohen-Macaulay modules"
    ),
    "family-unmatched": (
        "tool scope",
        "family recognition is exact up to variable permutation; an unmatched "
        "minimal-multiplicity ring stays undecided",
    ),
    "quadric-a1": ("§5 list", "(A_1): k[x_1,…,x_n]/(x_1^2 + ⋯ + x_n^2)"),
    "quadric-a-infinity": ("§5 list", "(A_∞): k[x_1,…,x_n]/(x_2^2 + ⋯ + x_n^2)"),
    "gorenstein-minmult": ("§5", "the h-vector is (1,1)"),
    "gorenstein-open": (
        "Conjecture 5.1",
        "A Gorenstein ring of countable Cohen-Macaulay type is a hypersurface.",
    ),
    "non-cm-input": (
        "tool scope", "the classification applies to Cohen-Macaulay rings only"
    ),
    "budget-exceeded": (
        "tool scope", "a computation budget was exceeded before a verdict was reached"
    ),
}

CITATIONS: dict[str, Justification] = {
    rule: Justification(rule, *source) for rule, source in _SOURCES.items()
}
