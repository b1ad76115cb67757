"""Uniform result type for the verification routines.

Every structural check in the package (coderivation squares to zero,
augmentation compatibility, generating-function identity, ...) returns a
`Report` rather than a bare bool, so callers — tests and the command line
alike — can surface *which* instance failed.  `Report` is a plain slotted
class rather than a dataclass, so that importing the package (every CLI
command does) does not load the dataclass machinery.
"""

from __future__ import annotations


class Report:
    """Outcome of a batch verification.

    ok        -- read-only, True exactly when ``failures`` is empty
    checked   -- number of instances examined
    failures  -- human-readable description of each violation, in order found

    Reports compare equal field by field.  They are mutable, so defining
    ``__eq__`` alone leaves them unhashable; each report built without
    ``failures`` gets its own list.
    """

    __slots__ = ("checked", "failures")

    def __init__(self, checked: int, failures: list[str] | None = None) -> None:
        self.checked = checked
        self.failures = [] if failures is None else failures

    @property
    def ok(self) -> bool:
        return not self.failures

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.checked, self.failures) == (other.checked, other.failures)

    def __repr__(self) -> str:
        return f"Report(ok={self.ok!r}, checked={self.checked!r}, failures={self.failures!r})"

    def __bool__(self) -> bool:
        return self.ok


def merge_reports(*reports: Report) -> Report:
    """Combine sub-reports into one (used by the CLI check suites)."""
    failures: list[str] = []
    checked = 0
    for rep in reports:
        checked += rep.checked
        failures.extend(rep.failures)
    return Report(checked, failures)
