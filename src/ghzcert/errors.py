"""Exception hierarchy.

Every error carries a stable ``code`` string used in machine-readable CLI
output; the code never changes even if messages are reworded.
"""


class GhzcertError(Exception):
    code = "Error"


class BadJsonError(GhzcertError):
    code = "BadJson"


class BadFormatError(GhzcertError):
    code = "BadFormat"


class EmptyEdgeError(GhzcertError):
    code = "EmptyEdge"

    def __init__(self, edge_index: int):
        self.edge_index = edge_index
        super().__init__(f"edge {edge_index} is empty")


class VertexOutOfRangeError(GhzcertError):
    code = "VertexOutOfRange"

    def __init__(self, edge_index: int | None, vertex: int, k: int):
        self.edge_index = edge_index
        self.vertex = vertex
        where = "" if edge_index is None else f"edge {edge_index} contains "
        super().__init__(f"{where}vertex {vertex}, outside 1..{k}")


class BadLevelError(GhzcertError):
    code = "BadLevel"

    def __init__(self, message: str, edge_index: int | None = None):
        self.edge_index = edge_index
        super().__init__(message)


class DisconnectedError(GhzcertError):
    code = "Disconnected"


class TooFewVerticesError(GhzcertError):
    code = "TooFewVertices"


class TooLargeError(GhzcertError):
    code = "TooLarge"


class SameVertexError(GhzcertError):
    code = "SameVertex"


class DimMismatchError(GhzcertError):
    code = "DimMismatch"


class RetriesExhaustedError(GhzcertError):
    code = "RetriesExhausted"

    def __init__(self, attempts: int, bound: int):
        self.attempts = attempts
        self.bound = bound
        super().__init__(
            f"no general-position orthogonal representation found in "
            f"{attempts} attempts, from the banded seed and draws with "
            f"entries in [-3, 3], then draws with entries in [-{bound}, "
            f"{bound}]; retry with a different seed"
        )


class DimensionInfeasibleError(GhzcertError):
    code = "DimensionInfeasible"


class NegativeExponentError(GhzcertError):
    code = "NegativeExponent"

    def __init__(self, key, exponent: int):
        self.key = key
        self.exponent = exponent
        super().__init__(
            f"entry {key} carries eps^{exponent}; leading term undefined"
        )


class NonScalarCoefficientsError(GhzcertError):
    code = "NonScalarCoefficients"


class GhzStructureError(GhzcertError):
    """A local basis label occurs in more than one term."""

    code = "NotGhz"

    def __init__(self, vertex: int, label):
        self.vertex = vertex
        self.label = label
        super().__init__(f"label {label} repeats at vertex {vertex}")


class NotOrthRepError(GhzcertError):
    code = "NotOrthRep"

    def __init__(self, e: int, f: int):
        self.e = e
        self.f = f
        super().__init__(
            f"edges {e} and {f} share no vertex but their vectors are not "
            f"orthogonal; cross term cannot be hosted"
        )


class GridTooLargeError(GhzcertError):
    code = "GridTooLarge"

    def __init__(self, n: int, l: int, limit: int):
        self.n = n
        self.l = l
        self.limit = limit
        # a long n is named by its size: its decimal digits may be past
        # what str() of an int writes
        shown = n if n < 10**30 else f"(a {n.bit_length()}-bit n)"
        super().__init__(
            f"index grid {shown}^{l} is over the limit {limit} "
            f"(set GHZCERT_MAX_GRID to raise it)"
        )


class LevelsUnsupportedError(GhzcertError):
    code = "LevelsUnsupported"


class BadGridLimitError(GhzcertError):
    code = "BadGridLimit"

    def __init__(self, raw: str):
        self.raw = raw
        super().__init__(
            f"GHZCERT_MAX_GRID={raw!r} is not a positive integer"
        )


class NotGeneralPositionError(GhzcertError):
    code = "NotGeneralPosition"
