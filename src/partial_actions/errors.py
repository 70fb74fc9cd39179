"""Exception types shared across the package, and the wrong-class guards."""


class PartialActionError(Exception):
    """Base class for all errors raised by this package."""


class NotAGroup(PartialActionError):
    """A multiplication table fails one of the group axioms."""


class NotASubgroup(PartialActionError):
    """A member set is not a subgroup of its parent group."""


class NotAHomomorphism(PartialActionError):
    """A map between groups does not respect multiplication."""


class SizeLimit(PartialActionError):
    """Input exceeds the desk-scale caps this package enforces."""


class UnknownElement(PartialActionError):
    """A reference to a group element or transversal member does not resolve."""


class MalformedInput(PartialActionError):
    """Structurally broken input: a map that is not a bijection onto its
    stated codomain, mismatched sources/targets, or similar."""


def _expect(value, cls, message: str):
    """value itself, unless it is no instance of cls: then MalformedInput(message)."""
    if not isinstance(value, cls):
        raise MalformedInput(message)
    return value


def _as_dict(value, what: str) -> dict:
    """A copy of the mapping value, {} for None; 5 or "ab" is no mapping."""
    try:
        return {} if value is None else dict(value)
    except (TypeError, ValueError):
        raise MalformedInput(f"{what} is not a mapping") from None


class InternalInconsistency(PartialActionError):
    """An invariant that should be unreachable was violated; indicates a bug
    or an invalid input that slipped past construction."""


class ClassMismatch(PartialActionError):
    """A blockwise map pairs blocks of different isomorphism classes."""


class SupportViolation(PartialActionError):
    """An element mentions block positions outside the relevant ideal."""


class CompositionMismatch(PartialActionError):
    """Attempt to compose maps whose target and source ideals differ."""


class GroupMismatch(PartialActionError):
    """Operands are defined over different groups."""


class TwistTransportConflict(PartialActionError):
    """The twists of an action are not induced by its orbit data: they are
    not a homomorphism on a stabilizer, or a twist differs from the one that
    homomorphism and the path twists give, so two witness paths would assign
    different twists to one envelope block.  This is proof that the input
    action violates the composition axiom; it is surfaced rather than
    resolved silently."""


class DocumentError(PartialActionError):
    """A JSON document failed to parse or validate."""

    def __init__(self, message: str, path: str = ""):
        location = f" (at {path})" if path else ""
        super().__init__(f"{message}{location}")
        self.path = path
