"""Exception hierarchy for the Wi-Fi Backscatter reproduction library.

Every exception raised by :mod:`repro` derives from :class:`ReproError`,
so callers can catch library failures with a single ``except`` clause
while still distinguishing the subsystem that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A component was constructed or configured with invalid parameters."""


class FrameError(ReproError):
    """A tag/reader frame could not be built or parsed."""


class CrcError(FrameError):
    """A received frame failed its CRC check."""

    def __init__(self, expected: int, actual: int) -> None:
        super().__init__(
            f"CRC mismatch: expected 0x{expected:04x}, got 0x{actual:04x}"
        )
        self.expected = expected
        self.actual = actual


class PreambleNotFound(ReproError):
    """No tag preamble was detected in the measurement stream."""


class DecodeError(ReproError):
    """The decoder could not recover a valid message."""


class MeasurementError(ReproError):
    """A measurement stream contained unusable samples (NaN/inf).

    Raised by the conditioning/decoding layers when non-finite values
    would otherwise propagate into MRC weights or slicer output, and
    the caller asked for rejection rather than repair.
    """


class SimulationError(ReproError):
    """The discrete-event simulator reached an inconsistent state."""


class MediumReservationError(SimulationError):
    """A CTS_to_SELF reservation request violated 802.11 constraints."""


class EnergyError(ReproError):
    """The tag's harvested-energy budget was violated."""


class BrownoutError(EnergyError):
    """The tag lost power mid-operation and could not complete it.

    Distinguishes "the tag was dark for the whole exchange" (nothing to
    decode, retry later) from decode failures where the tag *did*
    transmit but the reader could not recover the frame.
    """


class LinkTimeoutError(ReproError):
    """An ARQ exchange exhausted its retry/backoff time budget."""

    def __init__(self, message: str, attempts: int = 0,
                 elapsed_s: float = 0.0) -> None:
        super().__init__(message)
        self.attempts = attempts
        self.elapsed_s = elapsed_s


class FaultInjectionError(ConfigurationError):
    """A fault-injection plan or spec string was invalid.

    Subclasses :class:`ConfigurationError`: a bad ``--faults`` spec is
    operator error, not a link failure, and maps to the configuration
    exit code at the CLI.
    """


class ScenarioError(ConfigurationError):
    """A declarative scenario definition failed validation.

    Subclasses :class:`ConfigurationError` so the CLI maps it to the
    configuration exit code.  ``field`` names the offending schema
    field as a dotted path (``geometry.tag_to_reader_m``), so tooling
    and error messages can point at exactly what to fix.
    """

    def __init__(self, message: str, field: str = "") -> None:
        super().__init__(f"{field}: {message}" if field else message)
        self.field = field


class TraceFormatError(ReproError):
    """A trace file could not be parsed."""
