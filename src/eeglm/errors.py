"""Exception taxonomy shared across the package, and the JSON-file reader
that raises it.

Each error family maps to a stable CLI exit code so shell callers can
branch on failure class without parsing messages.
"""

from __future__ import annotations

import json
from pathlib import Path


class EeglmError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class UsageError(EeglmError):
    """Bad command-line usage or an invalid/violated configuration."""

    exit_code = 2


class ConfigError(UsageError):
    """Config file or resolved-settings problem."""


class DataError(EeglmError):
    """Data ingestion or dataset-consistency failure."""

    exit_code = 3


class MontageError(DataError):
    """Montage definition problem or montage/recording mismatch."""


class AssemblyError(DataError):
    """Hybrid token sequence could not be assembled consistently."""


class TransportError(EeglmError):
    """LLM endpoint or other network transport failure."""

    exit_code = 4


class NumericError(EeglmError):
    """Non-finite values or numerically invalid state."""

    exit_code = 5


class ShapeError(NumericError):
    """Operand shapes incompatible for the requested operation."""


def read_json_object(path: str | Path, error: type[EeglmError], what: str) -> dict:
    """The JSON object in the file `path`. An unreadable file, malformed JSON
    or any other JSON value raises `error`, naming the file as `what`."""
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise error(f"cannot read {what} {path}: {e}") from e
    if not isinstance(payload, dict):
        raise error(f"{what} {path} is not a JSON object")
    return payload
