"""Exception hierarchy shared by every subsystem."""


class LedgerLoopError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(LedgerLoopError):
    """Invalid configuration: bad dimensions, bad bounds, duplicate versions."""


class DataError(LedgerLoopError):
    """Rejected input data, e.g. a non-finite reward in an update batch."""


class NumericalStateError(LedgerLoopError):
    """Model state is numerically unusable (Cholesky factorization failed)."""


class StorageError(LedgerLoopError):
    """Durable write or read of a ledger file failed."""


class DecodeError(LedgerLoopError):
    """Malformed canonical encoding.

    ``seq`` carries the ledger sequence number of the offending record when
    the error arises while reading a ledger file.
    """

    def __init__(self, message: str, seq: "int | None" = None):
        super().__init__(message)
        self.seq = seq


class AuditError(LedgerLoopError):
    """Replay cannot attribute logged behavior (e.g. unregistered version)."""


class StructuralAuditError(AuditError):
    """Ledger structure violates audit preconditions (missing snapshot,
    batch references pointing at the wrong event type, a record of another
    stream or environment profile than its HEADER's, ...)."""


class InjectedFailure(LedgerLoopError):
    """Synthetic fault raised by the failure-injection harness."""
