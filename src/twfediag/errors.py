"""Exception hierarchy shared across the package."""


class TwfeDiagError(Exception):
    """Base class for all errors raised by this package."""


# --- data ingestion and panel structure ---

class MissingColumn(TwfeDiagError):
    def __init__(self, column: str):
        self.column = column
        super().__init__(f"required column {column!r} not found in header")


class ParseError(TwfeDiagError):
    def __init__(self, row: int, column: str | None, message: str):  # None: the whole row
        self.row = row
        self.column = column
        where = "" if column is None else f", column {column!r}"
        super().__init__(f"row {row}{where}: {message}")


class DuplicateKey(TwfeDiagError):
    def __init__(self, unit: str, period: int):
        self.unit = unit
        self.period = period
        super().__init__(f"duplicate observation for unit {unit!r}, period {period}")


class UnknownUnit(TwfeDiagError):
    def __init__(self, unit: str):
        self.unit = unit
        super().__init__(f"unit {unit!r} has no adoption-schedule entry")


class InvalidSpec(TwfeDiagError):
    pass


# --- estimation-level degeneracies ---

class DegenerateTreatment(TwfeDiagError):
    """Estimation sample is all-treated or all-untreated."""


class CollinearTreatment(TwfeDiagError):
    """Treatment is (numerically) spanned by the fixed effects."""


class NonFiniteOutcome(TwfeDiagError):
    """An outcome in the estimation sample is nan or infinite."""


class DegenerateGroup(TwfeDiagError):
    """Treated or control group too small, or no residual-treatment variation."""


class NoFeasiblePoint(TwfeDiagError):
    """Every point of a robustness sweep was infeasible."""


class InvalidSweep(TwfeDiagError, ValueError):
    """A sweep's range is empty, or the panel is too small for the sweep."""
