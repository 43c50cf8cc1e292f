"""Workbench for linear integer arithmetic over (Z, <, +).

Three capabilities, one small core:

* construct explicit short formulas whose definable set families have
  provably large VC-dimension (`pavc.generator`);
* decide and measure arbitrary formulas with a fixed number of
  variables, via bounded evaluation or exact quantifier elimination
  (`pavc.evaluator`);
* verify shattering claims and VC bounds by brute force at desk scale
  (`pavc.vclab`, `pavc.upperbound`).

Formulas are s-expressions over integer linear terms; see
`pavc.formula.parse` for the grammar and `pavc.cli` for the command-line
entry points.
"""

from .contfrac import (
    ContinuedFraction,
    ContinuedFractionError,
    Convergent,
    convergents,
    determinant_step,
    from_rational,
    to_rational,
)
from .evaluator import (
    DEFAULT_MAX_ATOMS,
    DEFAULT_MAX_COEFF_BITS,
    DEFAULT_MAX_POINTS,
    EvalError,
    MissingHintError,
    ResourceCapError,
    decide,
    eliminate_quantifiers,
    eval_bounded,
    eval_ground,
    eval_point,
    simplify,
)
from .formula import (
    DIV,
    EQ,
    FALSE,
    LE,
    LT,
    TRUE,
    And,
    Atom,
    BindingError,
    Bool,
    Exists,
    Forall,
    Formula,
    FormulaError,
    FormulaSyntaxError,
    LinearTerm,
    Not,
    Or,
    PartitionedFormula,
    ShadowingError,
    ShapeReport,
    UnboundVariableError,
    atoms_of,
    bitlen,
    bound_vars,
    free_vars,
    is_quantifier_free,
    mk_and,
    mk_or,
    parse,
    parse_partitioned,
    print_partitioned,
    shape,
    subst_term,
    substitute,
    to_text,
)
from .generator import (
    GadgetUnavailableError,
    GeneratorError,
    GeneratorMeta,
    build_code_set,
    code_set_contains,
    collapse_formula,
    collapse_image,
    collapse_witness,
    encode_bridged,
    encode_cf_short,
    encode_naive,
    index_block_values,
    is_probable_prime,
    largest_terms,
    lex_subset,
    meta_from_json,
    meta_to_json,
    next_prime_above,
    select_modulus,
    spread_aps,
    spread_block,
    spread_values,
)
from .upperbound import (
    AtomInventory,
    UpperBoundCertificate,
    UpperBoundError,
    atom_capacity,
    capacity_bound,
    certificate,
    certificate_report,
    inventory,
    upper_bound_via_qe,
)
from .vclab import (
    SetFamily,
    ShatterReport,
    VcLabError,
    family_from_formula,
    is_shattered,
    report_json,
    sauer_shelah_bound,
    shatter_function,
    vc_dimension,
)

__version__ = "0.1.0"
