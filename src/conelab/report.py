"""Check reports and suite configuration.

A report file is a single UTF-8 JSON object {config, engine_version, reports}
whose reports carry exactly the keys identity, anchor, samples, max_residual,
rms_residual, tolerance, verdict, witness.  Serialisation is canonical
(sorted keys, shortest round-trip floats), and every reduction feeding a
report is deterministic, so identical configs produce byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

ENGINE_VERSION = "0.1.0"


@dataclass(frozen=True)
class CheckReport:
    identity: str
    anchor: str
    samples: int
    max_residual: Optional[float]
    rms_residual: Optional[float]
    tolerance: float
    verdict: str                      # pass | fail | error
    witness: Optional[Tuple[float, ...]]
    # why an `error` verdict was reached; diagnostics only, never serialised
    message: str = ""

    def to_dict(self):
        return {key: val for key, val in asdict(self).items() if key != "message"}


def make_report(identity: str, anchor: str, residuals, tolerance: float,
                points=None) -> CheckReport:
    """Summarise per-sample residual magnitudes into a report.

    A non-finite residual makes the verdict `error`, with null residuals and
    the first non-finite sample as witness.
    """
    res = np.atleast_1d(np.asarray(residuals, float))
    finite = np.isfinite(res)
    k = int(np.argmax(res)) if finite.all() else int(np.argmin(finite))
    witness = None
    if points is not None:
        pts = np.atleast_2d(np.asarray(points, float))
        witness = tuple(float(v) for v in pts[min(k, pts.shape[0] - 1)])
    if not finite.all():
        return CheckReport(identity, anchor, int(res.size), None, None,
                           float(tolerance), "error", witness,
                           f"{res.size - int(finite.sum())} of {res.size} "
                           "residuals are not finite")
    mx = float(np.max(res))
    rms = float(np.sqrt(np.mean(res**2)))
    verdict = "pass" if mx <= tolerance else "fail"
    return CheckReport(identity, anchor, int(res.size), mx, rms,
                       float(tolerance), verdict, witness)


def error_report(identity: str, anchor: str, tolerance: float,
                 message: str = "") -> CheckReport:
    return CheckReport(identity, anchor, 0, None, None, float(tolerance),
                       "error", None, message)


@dataclass
class SuiteConfig:
    """Reproducible description of one verification run."""

    manifold: str
    suite: str
    grid: Optional[object] = None          # int or per-coordinate list
    radii: Tuple[float, ...] = (1.0, 2.0)
    jet_order: Optional[int] = None
    tolerances: Dict[str, float] = field(default_factory=dict)
    seed: int = 20200923
    samples: int = 200

    def tolerance(self, identity: str, default: float) -> float:
        return float(self.tolerances.get(identity, default))

    def to_dict(self):
        return asdict(self)


def report_json(config: SuiteConfig, reports: List[CheckReport]) -> str:
    payload = {
        "config": config.to_dict(),
        "engine_version": ENGINE_VERSION,
        "reports": [r.to_dict() for r in reports],
    }
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
