"""Exact arithmetic for chromatic functions of natural unit interval orders.

The package computes the q-weighted chromatic symmetric function of the
incomparability graph of a (3+1)-free poset, expands it in the monomial,
Schur, and elementary bases over exact rationals, enumerates the standard,
strong, powerful, and insertion-reachable tableau classes that refine its
coefficients, and ships a verification harness that sweeps the known
identities and open positivity statements over every unit order up to a
configurable size.
"""

from .csf import (
    SymFunc,
    chromatic_e_expansion,
    csf_coloring_oracle,
    csf_schur,
    e_coeff,
    kchain_formula,
    path_formula,
    to_elementary,
)
from .harness import (
    CONJECTURES,
    Report,
    VerificationTask,
    audit_cache,
    emit_report,
    run_verification,
    summarize,
)
from .hikita import enumerate_hikita, h, prob, zeta
from .posets import (
    Poset,
    enumerate_hessenberg,
    kchain_hessenberg,
    path_hessenberg,
    poset_from_hessenberg,
    poset_from_relations,
)
from .qcore import QPoly, QRat, partitions, q_factorial, q_int
from .structural import K_set, greedy_shape_family
from .tableaux import enumerate_class, inv_p, is_strong, text_to_tableau

__version__ = "0.1.0"

__all__ = [
    "CONJECTURES",
    "K_set",
    "Poset",
    "QPoly",
    "QRat",
    "Report",
    "SymFunc",
    "VerificationTask",
    "audit_cache",
    "chromatic_e_expansion",
    "csf_coloring_oracle",
    "csf_schur",
    "e_coeff",
    "emit_report",
    "enumerate_class",
    "enumerate_hessenberg",
    "enumerate_hikita",
    "greedy_shape_family",
    "h",
    "inv_p",
    "is_strong",
    "kchain_formula",
    "kchain_hessenberg",
    "partitions",
    "path_formula",
    "path_hessenberg",
    "poset_from_hessenberg",
    "poset_from_relations",
    "prob",
    "q_factorial",
    "q_int",
    "run_verification",
    "summarize",
    "text_to_tableau",
    "to_elementary",
    "zeta",
]
