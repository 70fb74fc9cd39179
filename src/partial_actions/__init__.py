"""Partial actions of finite groups on finite sets and block algebras, with
verified enveloping actions (globalizations) for every construction.
Functions and input constructors refuse a wrong-class argument with MalformedInput."""

from .block_algebras import (
    Block,
    BlockAlgebra,
    BlockIdeal,
    WreathMap,
    block_power,
    decompose_isotypic,
    k_line_block,
    symbolic_basis,
    trivial_group,
    wreath_apply,
    wreath_compose,
    wreath_identity,
)
from .algebra_actions import (
    AlgebraPartialAction,
    GlobalizationResult,
    classify_indecomposable,
    enumerate_algebra_partial_actions,
    extend_by_zero_algebra,
    globalizations_equivalent,
    globalize_block_power,
    globalize_extension_by_zero,
    lift_set_action,
    product_partial_action,
    restrict_to_idempotents,
    split_partial_action,
    verify_algebra_partial_action,
    verify_enveloping,
)
from .errors import (
    ClassMismatch,
    CompositionMismatch,
    DocumentError,
    GroupMismatch,
    InternalInconsistency,
    MalformedInput,
    NotAGroup,
    NotAHomomorphism,
    NotASubgroup,
    PartialActionError,
    SizeLimit,
    SupportViolation,
    TwistTransportConflict,
    UnknownElement,
)
from .groups import (
    CosetFactorization,
    DiscrepancyReport,
    FiniteGroup,
    Subgroup,
    all_subgroups,
    coset_factorize,
    cross_validate_table,
    cyclic_group,
    make_group,
    subgroup_closure,
    symmetric_group,
)
from .set_actions import (
    GlobalSetAction,
    SetGlobalization,
    SetPartialAction,
    enumerate_partial_actions,
    envelopes_equivalent,
    extend_by_zero,
    global_part,
    globalize_set,
    restrict_global,
    verify_partial_action,
    verify_set_globalization,
)

__version__ = "0.1.0"
