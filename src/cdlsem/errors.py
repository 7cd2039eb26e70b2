"""Exception types shared across the package.

Every error carries a short machine-readable ``code`` so tests and the CLI
can dispatch on the failure kind without string matching.
"""

from __future__ import annotations


class CdlError(Exception):
    """Base class for all cdlsem errors."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


class NormalizationError(CdlError, ValueError):
    """Node set cannot be turned into a model.

    Codes: ``duplicate``, ``unresolved-parent``, ``cycle``, ``invalid-name``.
    """


class EvalError(CdlError):
    """Expression evaluation failed.

    Codes: ``unknown-id``, ``div-zero``, ``not-numeric``, ``invalid-shift``,
    ``too-large``.
    """


class ValidationError(CdlError):
    """Configuration cannot be checked at all (as opposed to rejected).

    Codes: ``incomplete``.
    """

    def __init__(self, code: str, message: str, missing: tuple[str, ...] = ()):
        super().__init__(code, message)
        self.missing = missing


class OracleError(CdlError):
    """Brute-force enumeration refused to run. Codes: ``too-large``."""


class FormulaError(CdlError):
    """Propositional translation refused the model. Codes: ``wf``."""


class AnalysisError(CdlError):
    """SAT-based analysis is undefined for the model. Codes: ``void-model``."""
