"""Exception hierarchy shared by all spreadnet modules.

Every error carries enough context (row, column, date, stage) to point at
the offending input; nothing is silently dropped or imputed.
"""

from __future__ import annotations


class SpreadnetError(Exception):
    """Base class for all library errors."""


# ---------------------------------------------------------------------------
# Series loading / alignment
# ---------------------------------------------------------------------------


class MissingColumn(SpreadnetError):
    """A declared column is absent from the input file or frame."""


class GapInDates(SpreadnetError):
    """Consecutive observations are more than one calendar month apart."""


class DuplicateDate(SpreadnetError):
    """The same calendar month appears twice in one series."""


class UnparseableValue(SpreadnetError):
    """A cell could not be parsed as a finite number or a YYYY-MM date."""


class EmptyIntersection(SpreadnetError):
    """The series being aligned share no common month range."""


class NonPositiveValue(SpreadnetError):
    """Log returns require strictly positive levels."""


class MissingFile(SpreadnetError):
    """A configured input file, or a file of a stored run, does not exist."""


# ---------------------------------------------------------------------------
# Preprocessing
# ---------------------------------------------------------------------------


class InsufficientHistory(SpreadnetError):
    """Fewer return observations than the VaR window requires."""


class IndexOutOfRange(SpreadnetError):
    """A block-average window extends beyond the available observations."""


class ZeroTrailingMean(SpreadnetError):
    """The trailing three-sample mean is zero; normalization undefined."""


class InsufficientRows(SpreadnetError):
    """Too few rows remain in a training matrix after lagging."""


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


class LengthMismatch(SpreadnetError):
    """Paired vectors differ in length."""


class DegenerateInput(SpreadnetError):
    """Input too short or too uniform for the statistic to be defined."""


class ZeroPerfectSlope(SpreadnetError):
    """The perfect-equity slope is zero (constant actuals)."""


class DegenerateStrategy(SpreadnetError):
    """All positions share one sign, so the predictability variance is zero."""


class EmptyEnsemble(SpreadnetError):
    """A vote tally was requested over zero networks."""


class ConstantRegressor(SpreadnetError):
    """The regressor column is constant; the slope is undefined."""


# ---------------------------------------------------------------------------
# Neural training
# ---------------------------------------------------------------------------


class DimensionMismatch(SpreadnetError):
    """Input width does not match the network's input layer."""


class TooFewRows(SpreadnetError):
    """A training matrix is too short to split."""


class ConstantOutput(SpreadnetError):
    """The output column is constant; nothing to fit."""


class DivergedTraining(SpreadnetError):
    """Training loss became non-finite."""


class AllDiverged(SpreadnetError):
    """No restart produced a usable model."""


class CorruptModel(SpreadnetError):
    """A model file is not a readable model document."""


# ---------------------------------------------------------------------------
# Ensemble / pipeline
# ---------------------------------------------------------------------------


class NoCandidates(SpreadnetError):
    """Selection was requested over an empty candidate list."""


class DateMismatch(SpreadnetError):
    """Member forecasts do not share a common date range."""


class StaleModel(SpreadnetError):
    """The supplied frame lacks the dates a member's lag requires."""


class IncompleteManifest(SpreadnetError):
    """A report or prediction was requested from a partial run."""


class PipelineStageError(SpreadnetError):
    """A pipeline stage failed; wraps the stage name and the cause."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause
