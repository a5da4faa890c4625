"""Exact arithmetic in the automorphism group of a finite abelian p-group.

The group is given by its homocyclic decomposition; endomorphisms are
constrained block matrices; the central question answered is whether the
automorphism group splits over the kernel of reduction mod p, with explicit
machine-verified sections where it does and brute-force oracles throughout.
"""

from .endo import (
    BlockEndo,
    QElement,
    add_endos,
    apply,
    block_endo,
    check_hom_constraints,
    compose,
    corner_mu,
    element_order,
    embed_tail,
    identity_endo,
    in_delta,
    invert,
    is_automorphism,
    restrict_to_pk,
    sigma,
    truncate_tail,
    weighted_lift,
    zero_endo,
)
from .errors import AutSplitError
from .groups import (
    PGroupSpec,
    add_elements,
    aut_order,
    delta_order,
    derive_pk_spec,
    derive_tail_spec,
    enumerate_elements,
    gl_order,
    group_order,
    pi_order,
    validate_spec,
)
from .splitting import (
    SectionCertificate,
    SplitVerdict,
    block_section,
    build_verified_section,
    classify,
    classify_block,
    teichmuller_section,
    verify_section,
)

__all__ = [
    "AutSplitError",
    "BlockEndo",
    "PGroupSpec",
    "QElement",
    "SectionCertificate",
    "SplitVerdict",
    "add_elements",
    "add_endos",
    "apply",
    "aut_order",
    "block_endo",
    "block_section",
    "build_verified_section",
    "check_hom_constraints",
    "classify",
    "classify_block",
    "compose",
    "corner_mu",
    "delta_order",
    "derive_pk_spec",
    "derive_tail_spec",
    "element_order",
    "embed_tail",
    "enumerate_elements",
    "gl_order",
    "group_order",
    "identity_endo",
    "in_delta",
    "invert",
    "is_automorphism",
    "pi_order",
    "restrict_to_pk",
    "sigma",
    "teichmuller_section",
    "truncate_tail",
    "validate_spec",
    "verify_section",
    "weighted_lift",
    "zero_endo",
]

__version__ = "0.1.0"
