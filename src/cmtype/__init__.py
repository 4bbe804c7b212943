"""Exact graded-ring invariants and Cohen-Macaulay representation-type tools.

The package computes, over exact rational arithmetic, the numeric fingerprint
of a standard graded ring presented as a polynomial quotient (dimension,
h-vector, multiplicity, Cohen-Macaulay type, singular-locus dimension) and
classifies its graded Cohen-Macaulay representation type with citations.
"""

__version__ = "0.1.0"

from .citations import Justification
from .classifier import (
    ClassificationReport,
    ObstructionData,
    Verdict,
    classify,
    rewrite_in_xm,
)
from .drozd_roiter import (
    DrozdRoiterReport,
    LineArrangement,
    NumericalSemigroup,
    arrangement_dr,
    line_arrangement,
    semigroup_closure,
    semigroup_dr,
)
from .errors import (
    BudgetError,
    Budgets,
    CmtypeError,
    DEFAULT_BUDGETS,
    InhomogeneousError,
    InputError,
    LsopSearchError,
    ParseError,
)
from .families import (
    FamilyTag,
    binary_form_profile,
    catalog_presentation,
    graded12_ideal,
    gw12_ideal,
    match_named_family,
    quadric_rank,
    scroll_ideal,
    veronese_cone_ideal,
)
from .groebner import (
    GroebnerBasis,
    buchberger,
    minimalize_presentation,
    normal_form,
    spoly,
)
from .invariants import (
    Analysis,
    ArtinianReduction,
    HilbertSeries,
    RingInvariants,
    analyze,
    artinian_reduction,
    hilbert_numerator,
)
from .parsing import parse_polynomial, parse_presentation
from .poly import Polynomial
from .presentation import (
    RingPresentation,
    make_presentation,
    render_polynomial,
    render_presentation,
)
from .singularity import SingularityReport, singular_locus
