"""Exception types shared across the package."""


class BBAlphaError(Exception):
    """Base class for all package errors; `exit_code` is the CLI's status."""

    exit_code = 2  # a configuration error, unless a subclass says otherwise


class NonNormalizable(BBAlphaError):
    """Natural parameters do not describe a normalizable Gaussian (eta2 >= 0)."""


class ShapeMismatch(BBAlphaError):
    """Operands have incompatible shapes."""


class ImproperCavity(BBAlphaError):
    """Cavity distribution has non-negative eta2; alpha is too large for the current q."""


class ImproperTilted(BBAlphaError):
    """Tilted distribution has a non-positive-definite precision."""


class NonPositiveNoise(BBAlphaError):
    """Observation noise variance must be strictly positive."""


class ClassOutOfRange(BBAlphaError):
    """Class label outside the model's label space."""


class NonFiniteIntermediate(BBAlphaError):
    """A tape node produced NaN or Inf; carries the offending op name."""

    def __init__(self, op_name):
        super().__init__("non-finite value produced by op '%s'" % op_name)
        self.op_name = op_name

    def __reduce__(self):
        # rebuild from the op name; the default would pass the formatted
        # message back into __init__ and format it a second time
        return type(self), (self.op_name,)


class UndefinedDivergence(BBAlphaError):
    """The alpha-divergence integral diverges (blend precision not positive definite)."""


class DomainError(BBAlphaError):
    """Input outside the validity region of a closed-form expression."""


class NoConvergence(BBAlphaError):
    """Fixed-point iteration failed to reach tolerance; carries the iteration trace."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class DivergenceDetected(BBAlphaError):
    """Training energy or gradient became non-finite or grew explosively.

    Carries the epoch, the global step (when raised inside a step) and the
    tape op that first produced a non-finite value (when one did).
    """

    exit_code = 3

    def __init__(self, message, epoch=None, step=None, op_name=None):
        super().__init__(message)
        self.epoch = epoch
        self.step = step
        self.op_name = op_name


class ParseError(BBAlphaError):
    """Input file content failed to parse; message names where."""

    exit_code = 4


class ConfigError(BBAlphaError, ValueError):
    """Configuration names an unknown kind or key, or an invalid value."""


class MissingColumn(BBAlphaError):
    """Required column absent from a CSV header."""
