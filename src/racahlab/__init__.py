"""Exact-arithmetic toolkit for a homomorphism from the universal Racah
algebra into the enveloping algebra of sl2, the module families it induces,
Leonard-triple certification, and the hypercube operator algebras.

Everything is computed over the Gaussian rationals; equality checks are
exact and carry no tolerances.
"""

from .errors import (
    ClassMismatch,
    ConfigError,
    DimensionMismatch,
    DimMismatch,
    NonDiagonalizableH,
    NonSplitting,
    NotIrreducible,
    RacahLabError,
    RelationFailure,
    RootsMismatch,
)
from .gaussian import GaussianRational, gr
from .matrix import (
    EigenSplit,
    ExactMatrix,
    RootSearch,
    Subspace,
    eigen_split,
    kernel_basis,
    minimal_polynomial,
    rational_roots,
    rref,
)
from .polynomial import Poly
from .racah import (
    CentralValues,
    RacahRep,
    casimirs,
    central_values,
    load_rep,
    sigma_twist,
    tau_twist,
    verify_presentation,
    verify_section6_relations,
)
from .rd import IsoClass, RdParams, construct, is_irreducible, iso_class, leonard_criterion, min_polys
from .span import ClosureResult, VectorSpan, algebra_closure
from .sl2 import (
    EvenHalfModule,
    GraphOperators,
    HalvedCube,
    Sl2Rep,
    build_hypercube,
    build_Ln,
    even_halves,
    halved_cube,
    sharp_pullback,
)
from .decompose import (
    DecompositionReport,
    SemisimpleProfile,
    SummandGroup,
    compare_te_re,
    cube_decompose,
    even_isotypic,
    re_decompose,
    semisimple_profile,
    sl2_isotypic,
    split_even_half,
)
from .leonard import LeonardReport, check

__version__ = "0.1.0"
