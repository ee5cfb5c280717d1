"""Finite universal-algebra workbench.

Congruence lattices of finite algebras, closure operators induced by
equational subcategories, permutability levels and term-condition
searches, and congruence-distributivity checks, all verified exactly on
concrete operation tables.
"""

from .algebras import (
    FiniteAlgebra,
    QuotientMap,
    generate_subuniverse,
    load_algebra,
    product,
    quotient,
    save_algebra,
)
from .closure import (
    AxiomReport,
    ClosureResult,
    SubvarietySpec,
    birkhoff_congruence,
    check_axioms,
    closure_effective,
    closure_goursat,
    reflect,
    roundtrip_check,
)
from .corpus import CorpusEntry, builtin, corpus_specs, default_entries
from .distributivity import DistReport, dist_report, is_distributive
from .permutability import (
    SearchOutcome,
    TermWitness,
    find_hm_terms,
    find_maltsev_term,
    goursat_join_check,
    permutability_level,
)
from .relations import (
    ConLattice,
    Partition,
    composite,
    con_lattice,
    congruence_generated,
    direct_image,
    inverse_image,
    is_congruence,
)
from .terms import (
    Identity,
    Signature,
    eval_term,
    parse_identity,
    parse_term,
    render,
    satisfies_identity,
)

__version__ = "0.1.0"
