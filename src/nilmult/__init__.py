"""Nilpotent multipliers of finite-dimensional Lie algebras over Q.

Exact computation of Schur multipliers M(L), 2-nilpotent multipliers
M^(2)(L), epicenters Z*₁ and Z*₂, and (2-)capability verdicts via Hall-basis
free presentations and rational linear algebra.
"""

from .exactlin import ContainmentError, Matrix, Subspace, kernel, rref
from .fdlie import (
    LieAlgebra,
    NonIdealError,
    NotNilpotentError,
    SeriesReport,
    ValidationError,
    abelian,
    direct_sum,
    from_free_nilpotent,
    heisenberg,
    quotient,
    recognize_derived_dim_one,
    series,
    validate,
)
from .freelie import (
    DimensionCapError,
    FreeNilpotentAlgebra,
    HallTableError,
    HallWord,
    free_nilpotent,
    hall_basis,
    witt,
)
from .multiplier import (
    BoundReport,
    MultiplierReport,
    Presentation,
    PresentationError,
    abelian_m2,
    bound_report,
    derived_dim_one_m2,
    direct_sum_m2,
    eq1_bound,
    formula_oracle,
    heisenberg_m2,
    is_capable,
    is_two_capable,
    nilpotent_multiplier,
    present,
    refined_bound,
    report,
    schur_heisenberg,
    subideal_bracket,
    z_star,
)

__version__ = "0.1.0"
