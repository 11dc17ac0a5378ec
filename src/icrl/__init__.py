"""Decision procedures for integrally closed residuated lattices and relatives.

The package decides equational validity for nine classes (residuated
lattices, their integral and integrally closed subvarieties, commutative
variants, semi-integral residuated pomonoids, pseudo BCI-algebras, and
Casari algebras) by cut-free backward proof search over oracle-extended
sequent calculi, with validity oracles for (abelian) lattice-ordered
groups, an executable cut-elimination transformation, and a finite-model
workbench for validation, enumeration, and countermodel search.
"""

from .ablg_oracle import (
    ablg_valid_leq_e,
    ablg_valid_sequent,
)
from .cutelim import eliminate_cuts
from .finmod import (
    FiniteAlgebra,
    check_property,
    enumerate_algebras,
    eval_term,
    negative_cone,
    refute,
    validate,
)
from .lg_oracle import (
    GnfSizeError,
    lg_valid_leq_e,
    lg_valid_sequent,
)
from .prover import (
    Certificate,
    Proof,
    SearchOutcome,
    check_proof,
    decide_equation,
    proof_from_json,
    proof_to_json,
    search,
    search_lgw_explicit,
)
from .terms import (
    ParseError,
    Sequent,
    Term,
    Theory,
    complexity,
    double_neg,
    neg_translation,
    parse_sequent,
    parse_term,
    print_sequent,
    print_term,
)

__version__ = "0.1.0"

__all__ = [
    "ParseError",
    "Sequent",
    "Term",
    "Theory",
    "complexity",
    "double_neg",
    "neg_translation",
    "parse_sequent",
    "parse_term",
    "print_sequent",
    "print_term",
    "GnfSizeError",
    "lg_valid_leq_e",
    "lg_valid_sequent",
    "ablg_valid_leq_e",
    "ablg_valid_sequent",
    "Proof",
    "Certificate",
    "SearchOutcome",
    "search",
    "search_lgw_explicit",
    "check_proof",
    "decide_equation",
    "proof_to_json",
    "proof_from_json",
    "eliminate_cuts",
    "FiniteAlgebra",
    "validate",
    "check_property",
    "eval_term",
    "refute",
    "enumerate_algebras",
    "negative_cone",
    "__version__",
]
