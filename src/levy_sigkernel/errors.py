"""Exception types shared across the package."""


class LevySigKernelError(Exception):
    """Base class for all package-specific errors."""


class InvalidWord(LevySigKernelError):
    """A word contains a letter outside the alphabet 1..dim."""


class DimMismatch(LevySigKernelError):
    """Binary tensor operation received operands over different alphabets."""


class InvalidParameter(LevySigKernelError):
    """A numeric parameter is outside its admissible range."""


class ScalarPartError(LevySigKernelError):
    """Tensor exponential or logarithm received the wrong scalar part."""


class DepthTooSmall(LevySigKernelError):
    """Requested truncation depth cannot hold the triplet's state level."""


class InvalidTriplet(LevySigKernelError):
    """Levy triplet data violates symmetry/positivity requirements."""


class Unsupported(LevySigKernelError):
    """The requested operation is not defined for this input combination."""


class OutOfRange(LevySigKernelError):
    """A time argument lies outside the span of the relevant grid."""


class GridMismatch(LevySigKernelError):
    """A solver grid does not refine the breakpoints of the velocity."""


class NumericalInconsistency(LevySigKernelError):
    """A quantity violated a structural constraint beyond tolerance."""


class ConfigError(LevySigKernelError):
    """An experiment configuration is malformed.

    Carries the path of the offending field, e.g. ``triplets[0].cov``.
    """

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")
