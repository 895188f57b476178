"""Experiment report container, statistics helpers, and serialization.

Reports carry everything needed to reproduce and audit a run: the full
parameter map, the base seed, per-sample records, summary statistics, and
one verdict entry per theorem bound checked (each verdict names the bound
formula it evaluated).  Files are written atomically (temp + rename).
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile
from dataclasses import dataclass, field
from typing import Any, Iterable

import numpy as np

from .kernel import InputError

__all__ = [
    "ExperimentReport",
    "Verdict",
    "wilson_interval",
    "jackknife_log_mean_exp",
]

SCHEMA_VERSION = 1

# one-sided 99% normal quantile used for all confidence slack
Z99 = 2.3263478740408408
# two-sided 99% (Wilson intervals)
Z99_TWO_SIDED = 2.5758293035489004


@dataclass
class Verdict:
    name: str
    passed: bool
    bound_formula: str
    details: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        self.passed = bool(self.passed)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "bound_formula": self.bound_formula,
            "details": _jsonable(self.details),
        }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    return str(obj)


@dataclass
class ExperimentReport:
    experiment: str
    params: dict[str, Any]
    seed: int
    records: dict[str, Any]
    summary: dict[str, Any]
    verdicts: list[Verdict]
    duration_ms: float
    schema_version: int = SCHEMA_VERSION

    @property
    def all_passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "experiment": self.experiment,
            "params": _jsonable(self.params),
            "seed": self.seed,
            "records": _jsonable(self.records),
            "summary": _jsonable(self.summary),
            "verdicts": [v.as_dict() for v in self.verdicts],
            "duration_ms": self.duration_ms,
        }

    def to_json(self) -> str:
        return _finite_json(self.to_dict())

    def records_csv(self) -> str:
        """Per-sample records as CSV, one row per sample."""
        cols = {k: np.atleast_1d(np.asarray(v)) for k, v in self.records.items()}
        if not cols:
            return ""
        length = max(c.shape[0] for c in cols.values())
        buf = io.StringIO()
        w = csv.writer(buf)
        names = []
        series = []
        for k, v in cols.items():
            if v.ndim == 1:
                names.append(k)
                series.append(v)
            else:
                for j in range(v.shape[1]):
                    names.append(f"{k}_{j}")
                    series.append(v[:, j])
        w.writerow(["sample"] + names)
        for i in range(length):
            w.writerow([i] + [s[i] if i < len(s) else "" for s in series])
        return buf.getvalue()

    def write_csv(self, path: str):
        _atomic_write(path, (self.records_csv(),))


def _finite_json(obj) -> str:
    """JSON text of a JSON-ready object that holds only finite floats.

    ``json.dumps`` would write a NaN or an infinity as the non-JSON token
    NaN or Infinity; the first one found here raises :class:`InputError`
    naming where it sits, so that no such text is ever written.
    """
    try:
        return json.dumps(obj, allow_nan=False)
    except ValueError:
        where, value = _nonfinite(obj, "")
        raise InputError(f"{where.lstrip('.')} is {value}, not a finite float,"
                         " so no result is written") from None


def _nonfinite(obj, where: str):
    """Place and value of the first NaN or infinite float in obj, or None."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return where, obj
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        found = _nonfinite(value, f"{where}.{key}" if isinstance(key, str) else f"{where}[{key}]")
        if found:
            return found
    return None


def _atomic_write(path: str, pieces: Iterable[str]):
    """Write the text made of ``pieces`` to ``path`` through a temp file in
    its directory, creating the directory if needed; each piece goes to the
    temp file as it comes, so a caller with one string passes a 1-tuple and
    a streamed export is never held whole.  A path that cannot be written
    (a parent that is a file, a directory in its place, no permission) is
    refused with :class:`InputError` naming it, and no temp file is left;
    neither is one when ``pieces`` raises, and ``path`` keeps what it held."""
    d = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        os.makedirs(d, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            # makedirs raises FileExistsError when the directory is a file
            reason = "Not a directory" if isinstance(exc, FileExistsError) else exc.strerror
            raise InputError(f"cannot write {path}: {reason}") from None
        raise


def wilson_interval(successes: int, total: int) -> tuple[float, float]:
    """Two-sided 99% Wilson score interval (z = ``Z99_TWO_SIDED``) for a
    binomial proportion."""
    if total <= 0:
        return (0.0, 1.0)
    z = Z99_TWO_SIDED
    p = successes / total
    denom = 1 + z * z / total
    center = (p + z * z / (2 * total)) / denom
    half = z * math.sqrt(p * (1 - p) / total + z * z / (4 * total * total)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def jackknife_log_mean_exp(lnz: np.ndarray) -> tuple[float, float, np.ndarray]:
    """Bias-corrected log of the sample mean of exp(lnz), with pseudo-values.

    Returns (estimate, leave-one-out raw mean, pseudo-values); the caller
    derives standard errors from the pseudo-values.  All logs are handled
    in shifted form for stability.
    """
    n = len(lnz)
    shift = lnz.max()
    e = np.exp(lnz - shift)
    total = e.sum()
    full = shift + math.log(total / n)
    # floor the leave-one-out mass so a single dominant sample cannot
    # produce log(0); the bias this hides is far beyond float resolution
    loo = shift + np.log(np.maximum(total - e, np.finfo(float).tiny) / (n - 1))
    corrected = n * full - (n - 1) * loo.mean()
    pseudo = n * full - (n - 1) * loo
    return corrected, full, pseudo
