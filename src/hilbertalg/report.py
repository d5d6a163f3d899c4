"""Pass/fail reporting for the verification suites."""

from __future__ import annotations

import time
from typing import NamedTuple

from .lattice import bits

PASS = "pass"
FAIL = "fail"
SKIP = "skip"

_TAGS = {PASS: "PASS", FAIL: "FAIL", SKIP: "SKIP"}


class CheckResult(NamedTuple):
    name: str
    status: str
    witness: str | None = None
    detail: str | None = None
    elapsed: float = 0.0

    def line(self, include_timing=False):
        parts = [f"[{_TAGS[self.status]}] {self.name}"]
        if self.witness is not None:
            parts.append(f"witness={self.witness}")
        if self.detail is not None:
            parts.append(f"({self.detail})")
        if include_timing:
            parts.append(f"{self.elapsed:.3f}s")
        return " ".join(parts)

    def as_dict(self, include_timing=False):
        out = {"name": self.name, "status": self.status}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.detail is not None:
            out["detail"] = self.detail
        if include_timing:
            out["elapsed"] = round(self.elapsed, 6)
        return out


class VerificationReport(NamedTuple):
    name: str
    checks: list[CheckResult]

    @property
    def ok(self):
        return all(c.status != FAIL for c in self.checks)

    def counts(self):
        n = {PASS: 0, FAIL: 0, SKIP: 0}
        for c in self.checks:
            n[c.status] += 1
        return n[PASS], n[FAIL], n[SKIP]

    def lines(self, include_timing=False):
        return [c.line(include_timing) for c in self.checks]

    def as_dict(self, include_timing=False):
        return {
            "suite": self.name,
            "ok": self.ok,
            "checks": [c.as_dict(include_timing) for c in self.checks],
        }


class ReportBuilder:
    """Accumulates check results; a failing check carries its first witness."""

    def __init__(self, name):
        self.report = VerificationReport(name, [])
        self._last = time.perf_counter()

    def _push(self, name, status, witness=None, detail=None):
        now = time.perf_counter()
        self.report.checks.append(CheckResult(name, status, witness, detail, now - self._last))
        self._last = now

    def check(self, name, failures, detail=None):
        """failures is a list of witness strings; empty means the check passed."""
        if failures:
            self._push(name, FAIL, witness=failures[0], detail=f"{len(failures)} failing instance(s)")
        else:
            self._push(name, PASS, detail=detail)

    def skip(self, name, reason):
        self._push(name, SKIP, detail=reason)

    def done(self):
        return self.report


def fmt(**kw):
    """Witness string with deterministic key order."""
    return " ".join(f"{k}={kw[k]}" for k in sorted(kw))


def fset(members):
    """Deterministic rendering of an element subset given as a bitmask."""
    return "{" + ",".join(map(str, bits(members))) + "}"
