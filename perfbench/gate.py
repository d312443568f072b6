"""Output-correctness gate: every checked output counts toward error_rate.

An operation fails when it raises, yields a non-finite value, or yields a
value outside the reference check. References are stored in
reference.json for the default seed, predictions in normalized units (the
scale of the model's output, within +-0.07) and training losses as the program
reports them. The tolerance below is fixed by the benchmark. Reordered
float64 reductions (one BLAS thread instead of two, or one structure per
predict call instead of 128) moved outputs by at most 4e-15 absolute and
4e-12 relative, so it leaves a margin of 100x or more, while a change in
what the model computes, such as float32 arithmetic, shows.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")
REFERENCE_SEED = 0
REF_RTOL = 1e-9
REF_ATOL = 1e-11
SE3_TOL = 1e-8  # the tolerance of the program's own rigid-motion check


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def _values(value) -> list:
    return value if isinstance(value, list) else [value]


def _finite(value) -> bool:
    return all(isinstance(v, float) and math.isfinite(v) for v in _values(value))


def _close(value, expected) -> bool:
    got, want = _values(value), _values(expected)
    return len(got) == len(want) and all(
        isinstance(e, float) and abs(g - e) <= REF_ATOL + REF_RTOL * abs(e)
        for g, e in zip(got, want))


class Gate:
    """Counts attempted and failed operations and keeps the failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    def check(self, outputs: dict, what: str, expected: dict | None = None) -> None:
        """One operation per output: finite and, given `expected`, within
        tolerance of the value under the same name (a missing name fails).

        Values are floats or lists of floats.
        """
        for name, value in outputs.items():
            if not _finite(value):
                self.record(False, f"{what} {name}: non-finite {value!r}")
            elif expected is None:
                self.record(True, what)
            else:
                want = expected.get(name)
                self.record(_close(value, want),
                            f"{what} {name}: got {value!r}, expected {want!r}")

    def check_se3(self, pairs: list[tuple]) -> None:
        """(id, prediction, prediction of a moved copy, target std) per pair;
        the normalized difference must stay within SE3_TOL."""
        for rid, base, moved, std in pairs:
            ok = _finite(base) and _finite(moved) and abs(base - moved) / std <= SE3_TOL
            self.record(ok, f"rigid motion {rid}: {base!r} vs {moved!r}")

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
