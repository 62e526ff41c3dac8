"""Exception types shared across the library.

Every error the library raises deliberately derives from UltraGHError, so
callers (and the CLI) can separate expected failures from genuine bugs.
"""

from __future__ import annotations


class UltraGHError(Exception):
    """Base class for all library errors."""


class SpaceValidationError(UltraGHError):
    """A distance matrix failed ultrametric-space validation."""


class AsymmetricMatrixError(SpaceValidationError):
    def __init__(self, i: int, j: int, dij, dji):
        self.i, self.j, self.dij, self.dji = i, j, dij, dji
        super().__init__(f"matrix not symmetric at ({i}, {j}): {dij} vs {dji}")


class NonzeroDiagonalError(SpaceValidationError):
    def __init__(self, i: int, value):
        self.i, self.value = i, value
        super().__init__(f"nonzero diagonal entry at {i}: {value}")


class ZeroOffDiagonalError(SpaceValidationError):
    def __init__(self, i: int, j: int):
        self.i, self.j = i, j
        super().__init__(f"zero distance between distinct points {i} and {j}")


class UltrametricViolationError(SpaceValidationError):
    """First triple (i, j, k) with d(i,k) > max(d(i,j), d(j,k))."""

    def __init__(self, i: int, j: int, k: int, dij, djk, dik):
        self.i, self.j, self.k = i, j, k
        self.dij, self.djk, self.dik = dij, djk, dik
        super().__init__(
            f"strong triangle inequality fails on ({i}, {j}, {k}): "
            f"d({i},{k}) = {dik} > max(d({i},{j}) = {dij}, d({j},{k}) = {djk})"
        )


class EmptySubsetError(UltraGHError):
    pass


class IndexOutOfRangeError(UltraGHError):
    pass


class NotACorrespondenceError(UltraGHError):
    """Pair set does not cover both point sets, or one of its items is not
    a pair of two entries (the first such item in input order is named)."""


class NotSurjectiveError(UltraGHError):
    pass


class NotStrongError(UltraGHError):
    """Operation requires a strong correspondence.

    Raised by a relation check, it carries the StrongnessVerdict, with its
    counterexample, as its verdict attribute.
    """


class WellDefinednessViolationError(UltraGHError):
    """A glued space broke its Hausdorff bound; indicates a library bug."""


class BridgeTooSmallError(UltraGHError):
    pass


class SearchSpaceTooLargeError(UltraGHError):
    """Instance exceeds a search's size cap: a public search given no
    budget, or the classical search dhat_gh is asked to run."""


class BudgetExceededError(UltraGHError):
    """A search ran out of its node budget before finishing."""


class MethodDisagreementError(UltraGHError):
    """Independent methods produced different values; indicates a library bug."""


class LengthMismatchError(UltraGHError):
    pass


class EpsilonTooLargeError(UltraGHError):
    pass


class ParseError(UltraGHError):
    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


class SizeCapExceededError(UltraGHError):
    pass


class RequiresPGreaterQError(UltraGHError):
    pass
