"""Uniform result type for the verification routines.

Every structural check in the package (coderivation squares to zero,
augmentation compatibility, generating-function identity, ...) returns a
`Report` rather than a bare bool, so callers — tests and the command line
alike — can surface *which* instance failed.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Report:
    """Outcome of a batch verification.

    ok        -- True when every checked instance passed
    checked   -- number of instances examined
    failures  -- human-readable description of each violation, in order found
    """

    ok: bool
    checked: int
    failures: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok


def merge_reports(*reports: Report) -> Report:
    """Combine sub-reports into one (used by the CLI check suites)."""
    failures: list[str] = []
    checked = 0
    for rep in reports:
        checked += rep.checked
        failures.extend(rep.failures)
    return Report(not failures, checked, failures)
