"""Exact power series solutions of first-order autonomous algebraic
ODEs F(y, y') = 0, computed through places of the associated plane
curve F(y, z) = 0."""

from .errors import (CommonComponent, DegenerateInput, DivisionByZero,
                     ExtensionLimitExceeded, InnerNotPositiveOrder,
                     InsufficientPrecision, NoDerivative, NotAUnit,
                     NotIrreducible, NotOrderSuitable, ParseError,
                     PointNotOnCurve, SeparantVanishes, SolverError,
                     TrivialLinear)
from .numbers import QQ, AlgebraicNumber, Tower, numeric_enclosure
from .factor import (adjoin_root, all_roots, alg_eq, factor_over_tower, field_arith,
                     lift_to_common, minpoly_over_q, roots_in_tower)
from .series import TruncatedSeries, compose, derivative, invert, series_arith
from .poly import (BiPoly, Point, UniPoly, multiplicity_at, separant,
                   solve_system, translate, univariate_slice, validate_input)
from .puiseux import (Place, default_bound, newton_polygon, places_at,
                      ramification_kind, tangent_vector)
from .solver import (Classification, CriticalSet, InitialTuple,
                     SolutionTruncation, classify, constant_solutions,
                     critical_set, direct_method, is_order_suitable,
                     reparametrize, solve_at)
from .parsing import parse_initial_tuple, parse_polynomial

__version__ = "0.1.0"
