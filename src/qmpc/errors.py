"""Exception hierarchy, and the readers every input file goes through.

``QmpcError`` covers everything a user can trigger with bad input; the CLI
maps it to exit code 1.  ``RoutingError`` signals an internal scheduler bug
(exit code 2) and deliberately does not inherit from ``QmpcError``.
"""
from __future__ import annotations

import json
import reprlib
import sys
from pathlib import Path

# how a message quotes a value from the input: ten items of a list and about 40
# characters of a string or an integer, so that no one value floods the message
BRIEF = reprlib.Repr()
BRIEF.maxlist = 10
BRIEF.maxstring = BRIEF.maxlong = 40


def brief(text: str) -> str:
    """``text`` cut as ``BRIEF`` cuts a string, without the quotes."""
    return BRIEF.repr(text)[1:-1]


class QmpcError(Exception):
    """Base class for user-facing errors."""


class ConfigError(QmpcError):
    """A compilation setting outside its valid range."""


class InputFileError(QmpcError):
    """An input file that cannot be opened, is not UTF-8 text or is not decodable JSON."""


def read_text(path: str | Path) -> str:
    """The contents of ``path`` as text; ``InputFileError`` names the file
    when it is missing, a directory, unreadable or not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputFileError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    except OSError as exc:
        raise InputFileError(f"{path}: {exc.strerror or exc}") from None


def read_json(path: str | Path):
    """The JSON value in ``path``; ``InputFileError`` names the file when it
    cannot be read, is not JSON or is too deep or long for ``json`` to decode."""
    try:
        return json.loads(read_text(path))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputFileError(f"{path}: invalid JSON: {exc}") from None
    except ValueError:
        digits = sys.get_int_max_str_digits()  # int() refuses a longer integer
        raise InputFileError(f"{path}: invalid JSON: an integer has more than {digits} digits") from None


class OutputDirError(QmpcError):
    """An output directory that cannot be made or written."""


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
    """No feasible partition, or circuit ids that are not unique."""


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
