"""Itemized pass/fail reports produced by the verification operations."""

from __future__ import annotations

from typing import Optional

from ._values import Frozen, Value


class CheckItem(Frozen):
    """One named check; ``key``, when set, is its stable name in JSON reports."""

    _fields = ("name", "passed", "witness", "key")

    def __init__(
        self, name: str, passed: bool, witness: Optional[str] = None, key: Optional[str] = None
    ):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "key", key)

    def render(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        tail = f"  [{self.witness}]" if self.witness else ""
        return f"{status}  {self.name}{tail}"


class VerificationReport(Value):
    """Outcome of checking a candidate: the partial-action axioms, or the
    enveloping-action checks.  ``header`` is the first line of the text
    form, ``verification of <subject>:`` when it is None."""

    _fields = ("subject", "items", "header")

    def __init__(
        self, subject: str, items: Optional[list[CheckItem]] = None, header: Optional[str] = None
    ):
        self.subject = subject
        self.items = [] if items is None else items
        self.header = header

    def add(
        self, name: str, passed: bool, witness: Optional[str] = None, key: Optional[str] = None
    ) -> None:
        self.items.append(CheckItem(name, passed, witness, key))

    @property
    def ok(self) -> bool:
        return all(item.passed for item in self.items)

    def failures(self) -> list[CheckItem]:
        return [item for item in self.items if not item.passed]

    def render_text(self) -> str:
        lines = [self.header or f"verification of {self.subject}:"]
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
