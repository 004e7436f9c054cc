"""Shared exception types."""


class DiffuniqError(Exception):
    """Base class for all library errors."""


class ExprSyntaxError(DiffuniqError):
    """Malformed expression text.

    Carries the character position and a short expected-token message.
    """

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownIdentifier(DiffuniqError):
    """Identifier that is neither the declared variable nor a whitelisted function."""

    def __init__(self, name, position):
        super().__init__(f"unknown identifier {name!r} (at position {position})")
        self.name = name
        self.position = position


class DomainError(DiffuniqError):
    """Evaluation left the real domain (log of a non-positive number,
    sqrt of a negative, division by zero, non-finite result, ...)."""


class ValidationError(DiffuniqError):
    """An operator hypothesis was falsified, at a sample point if one is
    known (``point`` None otherwise)."""

    NEGATIVE_DIFFUSION = "NegativeDiffusion"
    NEGATIVE_POTENTIAL = "NegativePotential"
    SINGULAR_COEFFICIENT = "SingularCoefficient"
    NONZERO_POTENTIAL = "NonzeroPotential"

    def __init__(self, kind, point, detail=""):
        msg = kind if point is None else f"{kind} at x={point!r}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
        self.kind = kind
        self.point = point


class ConfigError(DiffuniqError):
    """Invalid run configuration; carries a JSON-pointer-ish location."""

    def __init__(self, pointer, message):
        super().__init__(f"{pointer}: {message}")
        self.pointer = pointer
