"""Exception types shared across the package."""


class AbaError(Exception):
    """Base class for package errors."""


class ConfigError(AbaError):
    """Invalid parameters, domains, configurations, or scenario files."""


class BudgetExceededError(AbaError):
    """An enumeration would exceed the configured budget's cap."""


class DomainMismatchError(ConfigError):
    """A validity property was evaluated against an incompatible domain."""


class SetupUnavailableError(AbaError):
    """A signature operation was requested without PKI setup."""


class CorruptionBudgetError(ConfigError):
    """An adversary script corrupts more parties than the mode allows."""


class ProtocolError(AbaError):
    """A protocol state machine violated its own contract."""


class MissingSigmaEntryError(ProtocolError):
    """An agreed core set has no entry in the similarity certificate.

    Must be impossible when the certificate was computed for the same
    parameters and domain; treated as a fatal consistency bug.
    """


class ResilienceBoundError(ConfigError, ProtocolError):
    """A protocol was built at parameters that violate its resilience bound:
    a configuration error, raised where callers catch either type."""


class InputDomainError(ConfigError, ProtocolError):
    """A protocol copy was started from an input outside its domain: a
    configuration error for an honest party, and for a corrupted one a
    contract violation that crashes only that party."""
