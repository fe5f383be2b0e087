"""Structured pass/fail reports for the verification entry points."""

from __future__ import annotations

from typing import NamedTuple

from .record import Record


class CheckRecord(NamedTuple):
    identity: str
    left: object
    right: object

    @property
    def passed(self) -> bool:
        return self.left == self.right

    def to_dict(self) -> dict:
        return {
            "identity": self.identity,
            "left": self.left,
            "right": self.right,
            "passed": self.passed,
        }


class Report(Record):
    """A titled list of checks and a JSON payload, filled in as a
    verification runs: the one mutable, so unhashable, record."""

    _fields = ("title", "checks", "payload")
    __slots__ = _fields
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, title: str, checks: list[CheckRecord] | None = None, payload: dict | None = None):
        self.title = title
        self.checks = [] if checks is None else checks
        self.payload = {} if payload is None else payload

    def record(self, identity: str, left, right) -> CheckRecord:
        rec = CheckRecord(identity, left, right)
        self.checks.append(rec)
        return rec

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckRecord]:
        return [c for c in self.checks if not c.passed]

    def to_dict(self) -> dict:
        return {
            "title": self.title,
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
            "payload": self.payload,
        }

    def format_text(self) -> str:
        lines = [self.title]
        for c in self.checks:
            mark = "ok " if c.passed else "FAIL"
            lines.append(f"  [{mark}] {c.identity}: {c.left} == {c.right}")
        lines.append(f"result: {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines)
