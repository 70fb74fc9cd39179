"""Itemized pass/fail reports produced by the verification operations."""

from __future__ import annotations

from typing import Optional

from ._values import Frozen, Value


class CheckItem(Frozen):
    _fields = ("name", "passed", "witness")

    def __init__(self, name: str, passed: bool, witness: Optional[str] = None):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "witness", witness)

    def render(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        tail = f"  [{self.witness}]" if self.witness else ""
        return f"{status}  {self.name}{tail}"


class VerificationReport(Value):
    """Outcome of checking a candidate against the partial-action axioms."""

    _fields = ("subject", "items")

    def __init__(self, subject: str, items: Optional[list[CheckItem]] = None):
        self.subject = subject
        self.items = [] if items is None else items

    def add(self, name: str, passed: bool, witness: Optional[str] = None) -> None:
        self.items.append(CheckItem(name, passed, witness))

    @property
    def ok(self) -> bool:
        return all(item.passed for item in self.items)

    def failures(self) -> list[CheckItem]:
        return [item for item in self.items if not item.passed]

    def render_text(self) -> str:
        lines = [f"verification of {self.subject}:"]
        lines += ["  " + item.render() for item in self.items]
        lines.append(f"result: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "subject": self.subject,
            "ok": self.ok,
            "items": [
                {"name": i.name, "passed": i.passed, "witness": i.witness}
                for i in self.items
            ],
        }


ENVELOPE_CHECKS = ("ideal", "covers", "intersection", "equivariance")


class EnvelopingReport(Value):
    """The four-item checklist for a candidate enveloping action."""

    _fields = ("items",)

    def __init__(self, items: Optional[dict[str, CheckItem]] = None):
        self.items = {} if items is None else items

    def add(self, name: str, passed: bool, witness: Optional[str] = None) -> None:
        if name not in ENVELOPE_CHECKS:
            raise ValueError(f"unknown enveloping check {name!r}")
        self.items[name] = CheckItem(name, passed, witness)

    @property
    def ok(self) -> bool:
        return len(self.items) == len(ENVELOPE_CHECKS) and all(
            item.passed for item in self.items.values()
        )

    def render_text(self) -> str:
        lines = ["enveloping-action checks:"]
        lines += ["  " + self.items[name].render() for name in ENVELOPE_CHECKS if name in self.items]
        lines.append(f"result: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines)

    def to_dict(self) -> dict[str, bool]:
        return {name: self.items[name].passed for name in ENVELOPE_CHECKS if name in self.items}
