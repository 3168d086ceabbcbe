"""Cone decompositions of monomial degree slices.

Construction, exact validation, exhaustive enumeration, membership-
propagation graphs and closures for multiplicative-variable assignments on
finite sets of monomials, in particular on full degree slices.
"""

from .builder import BuildSession, ScriptError, parse_script, run_script
from .classical import (
    detect_pommaret,
    janet_general,
    janet_on_slice,
    pommaret_general,
    pommaret_on_slice,
)
from .closures import (
    ClosureReport,
    ClosureResult,
    compliant_closure,
    escalier_from_seed,
    ideal_from_seed,
    is_borel_fixed_slice,
    revenant_closure,
)
from .division import (
    DivisionError,
    InvalidDivisionError,
    NoInvolutiveDivisorError,
    RelDivision,
    ValidationReport,
)
from .enumeration import (
    ConflictError,
    PartialAssignment,
    canonical_form,
    enumerate_divisions,
    orbit_size,
    seed_constraints,
)
from .graphs import (
    LabeledDigraph,
    generalized_graph,
    graph_from_edge_list,
    reachable_backward,
    reachable_forward,
    redundant_graph,
    ufnarovsky_graph,
)
from .oracle import (
    brute_compliant,
    verify_division_covering,
    verify_ideal_equality,
    verify_order_ideal,
)
from .terms import (
    Term,
    VarSet,
    deglex_key,
    degree,
    enumerate_terms,
    format_term,
    parse_term,
    sigma_expected,
    support,
    term_div,
    term_divides,
    term_gcd,
    term_lcm,
    vandermonde_identity_check,
    var_names,
)

__version__ = "0.1.0"
