"""Exception types shared across the package."""


class HolomapError(Exception):
    """Base class for every error raised by holomaplab."""


class DimensionMismatch(HolomapError):
    """Operand dimensions disagree (vector length, matrix shape, map arity)."""


class SingularMatrix(HolomapError):
    """Matrix is singular under the relative sigma_min threshold; every
    singular Jacobian raises it."""


class ParseError(HolomapError):
    """Map-grammar syntax error with position and expected-token info."""

    def __init__(self, message: str, position: int, expected: tuple = ()):
        detail = f"{message} at position {position}"
        if expected:
            detail += " (expected " + " | ".join(sorted(str(e) for e in expected)) + ")"
        super().__init__(detail)
        self.position = position
        self.expected = tuple(expected)


class EmptySample(HolomapError):
    """Every sampled point was excluded, leaving nothing to estimate from."""


class CenterNotInImage(HolomapError):
    """No membership certificate could be produced for the requested center."""


class WitnessFailed(HolomapError):
    """A counterexample witness inequality failed; indicates an implementation bug."""


class PreconditionFailed(HolomapError, ValueError):
    """A documented precondition does not hold for the given inputs, such as
    an argument outside its documented range.  It is a ValueError, so code
    that catches ValueError still catches it."""


class UnsupportedPayload(HolomapError):
    """Report payload carries no series of the requested kind."""


class ConfigError(HolomapError):
    """Experiment configuration failed validation."""
