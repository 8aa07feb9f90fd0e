"""Exception hierarchy shared by all driftgauge modules.

Every domain failure raises a subclass of :class:`DriftGaugeError` so the CLI
can map any of them onto exit code 1 with a machine-readable payload.
"""


class DriftGaugeError(Exception):
    """Base class for all domain errors."""

    def payload(self) -> dict:
        return {"error": type(self).__name__, "message": str(self)}


# What parsing a value read from a file can raise besides DriftGaugeError:
# ValueError (not JSON, not UTF-8, a bad value), KeyError and TypeError (a
# missing or mistyped field), OverflowError (``int(1e999)``,
# ``float(10**400)``) and RecursionError (JSON nested too deep).  Readers
# turn these into the error that names the file.
PARSE_FAILURES = (ValueError, KeyError, TypeError, OverflowError, RecursionError)


# ---------------------------------------------------------------------------
# workload storage


class MissingFile(DriftGaugeError):
    pass


class BadMagic(DriftGaugeError):
    pass


class TruncatedPayload(DriftGaugeError):
    pass


class NonFiniteValue(DriftGaugeError):
    def __init__(self, row: int, col: int):
        super().__init__(f"non-finite value at row {row}, col {col}")
        self.row = row
        self.col = col


class IoFailure(DriftGaugeError):
    pass


class SizeExceedsPopulation(DriftGaugeError):
    pass


# ---------------------------------------------------------------------------
# descriptor / network shapes


class DimensionMismatch(DriftGaugeError):
    pass


class ShapeMismatch(DriftGaugeError):
    pass


class ConfigMismatch(DriftGaugeError):
    pass


# ---------------------------------------------------------------------------
# training / adaptation


class InsufficientData(DriftGaugeError):
    pass


class InsufficientTasks(DriftGaugeError):
    pass


class EmptyProbe(DriftGaugeError):
    pass


# ---------------------------------------------------------------------------
# metrics


class LengthMismatch(DriftGaugeError):
    pass


class EmptyInput(DriftGaugeError):
    pass


# ---------------------------------------------------------------------------
# budget ledger


class CapExceeded(DriftGaugeError):
    def __init__(self, db_id: str, kind: str):
        super().__init__(f"per-database cap exceeded for db {db_id!r}, kind {kind!r}")
        self.db_id = db_id
        self.kind = kind


class BudgetExhausted(DriftGaugeError):
    pass


class InvalidBounds(DriftGaugeError):
    pass


# ---------------------------------------------------------------------------
# configuration files


class ParseError(DriftGaugeError):
    pass


class UnknownKey(DriftGaugeError):
    pass


class InvalidValue(DriftGaugeError):
    pass
