"""Exception hierarchy for the :mod:`repro` library.

All library-raised exceptions derive from :class:`ReproError`, so callers can
catch everything coming out of this package with a single ``except`` clause
while still being able to discriminate the finer-grained failure modes.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "NotPowerOfTwoError",
    "FieldValueError",
    "TransformError",
    "DistributionError",
    "QueryError",
    "StorageError",
    "DeviceFullError",
    "CorruptPageError",
    "WalError",
    "RecoveryError",
    "SimulatedCrashError",
    "AnalysisError",
    "ProtocolError",
    "FrameTooLargeError",
    "GatewayError",
    "GatewayTimeoutError",
    "ConnectionLostError",
    "CircuitOpenError",
]


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class ConfigurationError(ReproError, ValueError):
    """A file system, distribution method or cost model was mis-configured."""


class NotPowerOfTwoError(ConfigurationError):
    """A quantity the paper requires to be a power of two is not one.

    The paper assumes both the number of devices ``M`` and every field size
    ``F_i`` are powers of two (section 2); the FX transformation algebra
    relies on it.
    """

    def __init__(self, name: str, value: int):
        self.name = name
        self.value = value
        super().__init__(f"{name} must be a power of two, got {value!r}")


class FieldValueError(ReproError, ValueError):
    """A field value lies outside its declared domain ``{0, ..., F-1}``."""


class TransformError(ReproError, ValueError):
    """A field transformation was constructed or applied illegally."""


class DistributionError(ReproError, ValueError):
    """A distribution method rejected its configuration or an input bucket."""


class QueryError(ReproError, ValueError):
    """A partial match query is malformed for its file system."""


class StorageError(ReproError, RuntimeError):
    """The simulated storage layer hit an inconsistent state."""


class DeviceFullError(StorageError):
    """A simulated device exceeded its configured capacity."""


class CorruptPageError(StorageError):
    """A bucket page failed its checksum: silent corruption was detected."""


class WalError(StorageError):
    """The write-ahead log is malformed beyond an expected torn tail."""


class RecoveryError(StorageError):
    """Crash/corruption recovery could not restore a consistent state."""


class SimulatedCrashError(ReproError, RuntimeError):
    """A deterministic crash injection point fired (fault simulation)."""


class AnalysisError(ReproError, RuntimeError):
    """An analysis routine received inputs it cannot evaluate exactly."""


class ProtocolError(ReproError, ValueError):
    """A serialised payload violates the versioned envelope or wire schema."""


class FrameTooLargeError(ProtocolError):
    """A wire frame declared a length beyond the configured bound.

    Raised *before* the body is buffered, so a hostile or broken peer
    cannot make the gateway allocate unbounded memory.
    """

    def __init__(self, declared: int, limit: int):
        self.declared = declared
        self.limit = limit
        super().__init__(
            f"frame declares {declared} bytes, limit is {limit}"
        )


class GatewayError(ReproError, RuntimeError):
    """The network gateway hit an unrecoverable serving-side state."""


class GatewayTimeoutError(GatewayError):
    """A socket operation against the gateway ran past its deadline.

    Wraps the raw :class:`socket.timeout` so callers never block forever
    on an unresponsive server and never have to catch raw socket errors.
    """


class ConnectionLostError(GatewayError):
    """The TCP connection to the gateway dropped mid-operation.

    Wraps raw :class:`OSError` connect/send/recv failures (refused,
    reset, broken pipe) behind the library hierarchy; a resilient client
    treats it as retryable on a fresh connection.
    """


class CircuitOpenError(GatewayError):
    """A per-tenant circuit breaker is open: the request failed fast.

    Raised instead of attempting the wire call once consecutive
    transport failures cross the breaker threshold; the breaker lets a
    probe through after its cooldown.
    """
