"""The public names of ``partial_actions``, pinned: adding or removing one
is a change to this list."""

import types

import partial_actions

PUBLIC_NAMES = {
    # block algebras
    "Block", "BlockAlgebra", "BlockIdeal", "WreathMap", "block_power", "decompose_isotypic",
    "k_line_block", "symbolic_basis", "trivial_group", "wreath_apply", "wreath_compose",
    "wreath_identity",
    # algebra actions
    "AlgebraPartialAction", "GlobalizationResult", "classify_indecomposable",
    "enumerate_algebra_partial_actions", "extend_by_zero_algebra", "globalizations_equivalent",
    "globalize_block_power", "globalize_extension_by_zero", "lift_set_action",
    "product_partial_action", "restrict_to_idempotents", "split_partial_action",
    "verify_algebra_partial_action", "verify_enveloping",
    # errors
    "ClassMismatch", "CompositionMismatch", "DocumentError", "GroupMismatch",
    "InternalInconsistency", "MalformedInput", "NotAGroup", "NotAHomomorphism", "NotASubgroup",
    "PartialActionError", "SizeLimit", "SupportViolation", "TwistTransportConflict",
    "UnknownElement",
    # groups
    "CosetFactorization", "DiscrepancyReport", "FiniteGroup", "Subgroup", "all_subgroups",
    "coset_factorize", "cross_validate_table", "cyclic_group", "make_group", "subgroup_closure",
    "symmetric_group",
    # set actions
    "GlobalSetAction", "SetGlobalization", "SetPartialAction", "enumerate_partial_actions",
    "envelopes_equivalent", "extend_by_zero", "global_part", "globalize_set", "restrict_global",
    "verify_partial_action", "verify_set_globalization",
}


def test_public_names_are_pinned():
    # submodules are left out: which of them are attributes depends on what
    # else has been imported
    names = {
        name for name, value in vars(partial_actions).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert names == PUBLIC_NAMES
