"""Exception hierarchy.

``QmpcError`` covers everything a user can trigger with bad input; the CLI
maps it to exit code 1.  ``RoutingError`` signals an internal scheduler bug
(exit code 2) and deliberately does not inherit from ``QmpcError``.
"""


class QmpcError(Exception):
    """Base class for user-facing errors."""


class ConfigError(QmpcError):
    """A compilation setting outside its valid range."""


class QasmError(QmpcError):
    """Malformed source text, with position information."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}, col {col}: {message}" if col is not None else f"line {line}: {message}"
        super().__init__(message)


class UnsupportedGateError(QasmError):
    """Gate outside the supported set (named in the message)."""


class MultiRegisterError(QasmError):
    """More than one qreg or creg declared."""


class HardwareError(QmpcError):
    """Bad device description."""


class CalibrationError(HardwareError):
    """Missing or out-of-range calibration entry."""


class DisconnectedGraphError(HardwareError):
    """Coupling graph or induced subgraph is not connected."""


class CrosstalkError(HardwareError):
    """Invalid conditional-error table entry."""


class PartitionError(QmpcError):
    """No feasible partition, or a contract violation in the allocation call."""


class PartitionSizeError(PartitionError):
    """Exhaustive partition search requested beyond its size cap."""


class CircuitTooLargeError(QmpcError):
    """A single circuit does not fit on the device."""


class SimulationError(QmpcError):
    """Simulation request outside the configured limits."""


class VerificationError(QmpcError):
    """Manifest/counts inconsistent with the circuits being checked."""


class RoutingError(Exception):
    """Internal scheduler invariant broken; indicates a bug, not bad input."""
