"""Exact analysis toolkit for abelian binary Mealy automata.

The layers, bottom up:

* `mealy` — machines, the AUT text format, transduction, Moore refinement;
* `group` — formal sums of states, residuation, identity testing, the
  abelianness criterion (Boolean by one refinement), principal machines;
* `exactalg` — exact rational matrices with one elimination routine, one
  `Polynomial` type over Q and Z, contraction and irreducibility tests, the
  quotient ring arithmetic;
* `complete` — complete automata over integer lattices, locating machines
  inside them, embeddings, and the fraction group;
* `analysis` — component decompositions, path polynomials, witness search,
  matrix inference, and the abelianness decision that uses it.
"""

from .analysis import (
    InferResult,
    SccDecomposition,
    SccInstanceReport,
    check_scc_instance,
    classify,
    infer_matrix,
    path_polynomial,
    scc_decompose,
    witness_search,
)
from .complete import (
    CompleteConfig,
    GTildeElement,
    LocationMap,
    Mismatch,
    embed_scale,
    find_location_mismatch,
    format_vector,
    gtilde_add,
    gtilde_eq,
    gtilde_neg,
    gtilde_residual,
    locate,
    orbit,
    orbit_automaton,
    parse_int_poly,
    parse_vector,
    poly_action,
    poly_to_vector,
    residual_vector,
    transduce_vector,
    unit_vector,
    vector_label,
    vector_to_poly,
)
from .errors import (
    AbmealyError,
    AutomatonError,
    BoundExceededError,
    DimensionError,
    FormatError,
    LocateError,
    MatrixError,
    NoOddStateError,
    NotAbelianError,
    NotDivisibleError,
    NotInvertibleError,
    UnknownStateError,
    UnsupportedError,
)
from .exactalg import (
    HalfIntegralMatrix,
    IntPolynomial,
    Polynomial,
    RationalMatrix,
    RationalPolynomial,
    char_poly,
    chi_star,
    companion_from_chi,
    is_contracting,
    is_irreducible,
    is_unit_mod,
    mul_mod,
    parse_matrix,
    reduce_mod,
    resultant,
    serialize_matrix,
    try_divide_mod,
)
from .group import (
    AbelianReport,
    AbelianVerdict,
    GroupElement,
    IdentityResult,
    Verdict,
    build_principal,
    check_abelian,
    element_parity,
    format_combination,
    gamma_of,
    identity_test,
    principal_class_elements,
    residuate_element,
)
from .mealy import (
    MealyAutomaton,
    Parity,
    find_isomorphism,
    parse_automaton,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
