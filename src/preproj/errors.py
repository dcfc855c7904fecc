"""Exception types shared across the library: one class for each thing a
caller can do about an error, and a message that names the condition that
failed (1-Lipschitz, decorous, the sawtooth covering hypothesis, minimal
coset representative, ...).  The class says what to fix, not which rule
broke."""


class PreprojError(Exception):
    """Base class for every error raised by this package."""


class ParseError(PreprojError, ValueError):
    """Malformed text or JSON input: fix the input."""


class DomainError(PreprojError, ValueError):
    """An argument lies outside the domain of the operation: fix the argument."""


class TooLarge(PreprojError, ValueError):
    """Instance exceeds the desk-scale guard: raise PREPROJ_MAX_N."""


class CertificateFailure(PreprojError, RuntimeError):
    """A certificate that is guaranteed to exist could not be produced: a library bug."""
