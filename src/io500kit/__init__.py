"""io500kit: parse, validate, and statistically characterize IO500 submissions."""

from .types import (
    BW_SCORE_PHASES,
    MD_SCORE_PHASES,
    Filesystem,
    Phase,
    PhaseResult,
    ProcessTimingTable,
    Submission,
    SubmissionMeta,
)

__version__ = "0.1.0"

__all__ = [
    "BW_SCORE_PHASES",
    "MD_SCORE_PHASES",
    "Filesystem",
    "Phase",
    "PhaseResult",
    "ProcessTimingTable",
    "Submission",
    "SubmissionMeta",
    "__version__",
]
