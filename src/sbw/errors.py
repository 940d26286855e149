"""Structured exception types shared by every module of the workbench.

All errors carry a stable ``code`` so the CLI can emit machine readable
error objects; anything not derived from :class:`WorkbenchError` is an
implementation bug rather than a user-facing condition.
"""

from __future__ import annotations


class WorkbenchError(Exception):
    """Base class for all structured errors raised by this package."""

    code = "error"

    def payload(self) -> dict:
        return {"type": self.code, "message": str(self)}


class NonAssociative(WorkbenchError):
    code = "non_associative"


class NoIdentity(WorkbenchError):
    code = "no_identity"


class NotClosed(WorkbenchError):
    code = "not_closed"


class OrderLimitExceeded(WorkbenchError):
    code = "order_limit_exceeded"


class NotSubgroup(WorkbenchError):
    code = "not_subgroup"


class NotNormal(WorkbenchError):
    code = "not_normal"


class MixedParents(WorkbenchError):
    code = "mixed_parents"


class NotAProduct(WorkbenchError):
    code = "not_a_product"


class NotIso(WorkbenchError):
    code = "not_iso"


class MiddleMismatch(WorkbenchError):
    code = "middle_mismatch"


class SpaceMismatch(WorkbenchError):
    code = "space_mismatch"


class NotInPoset(WorkbenchError):
    code = "not_in_poset"


class NotAutomorphism(WorkbenchError):
    code = "not_automorphism"


class AxiomFailed(WorkbenchError):
    """An internal structural invariant failed; this signals a bug."""

    code = "axiom_failed"


class DecompositionMismatch(WorkbenchError):
    """A decomposition cross-check failed; this signals a bug."""

    code = "decomposition_mismatch"


class IncompleteCatalog(WorkbenchError):
    code = "incomplete_catalog"


class ConditionViolated(WorkbenchError):
    """A Goursat-pair admissibility condition failed.

    ``tag`` names the first violated condition, one of ``"S1"`` .. ``"S7"``.
    """

    code = "condition_violated"

    def __init__(self, tag: str, message: str = ""):
        self.tag = tag
        super().__init__(message or f"condition {tag} violated")

    def payload(self) -> dict:
        out = super().payload()
        out["tag"] = self.tag
        return out
