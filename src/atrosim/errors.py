"""Exception types shared across the package."""


class AtrosimError(Exception):
    """Base class for all package errors."""


class ShapeMismatch(AtrosimError):
    pass


class EmptyMask(AtrosimError):
    pass


class NonPositiveAtrophy(AtrosimError):
    pass


class InvertedElement(AtrosimError):
    """A material pixel reached det(F_K) <= 1e-6; the energy is undefined there."""


class SingularElastic(AtrosimError):
    pass


class InvalidSpec(AtrosimError):
    pass


class BadMagic(AtrosimError):
    pass


class UnsupportedVersion(AtrosimError):
    pass


class TruncatedPayload(AtrosimError):
    pass


class IoFailure(AtrosimError):
    pass


class ConfigError(AtrosimError):
    pass
