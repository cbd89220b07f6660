"""Waiver parsing.

One shape:

    // dprank-analyze: allow(<rule>[, <rule>...]) -- reason

on the offending line or the line directly above it. The reason is
mandatory. The table records every waiver it sees and which rules
actually suppressed a finding, so the analyzer can report *unused*
waivers as errors — a waiver that outlives its finding is a determinism
hole waiting to reopen.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

TAG = "dprank-analyze"
_WAIVER_RE = re.compile(
    r"//.*?" + re.escape(TAG)
    + r":\s*allow\(([a-z0-9-]+(?:\s*,\s*[a-z0-9-]+)*)\)"
    + r"(?:\s*--\s*(\S.*))?"
)


@dataclass
class Waiver:
    path: Path
    line: int  # 0-based index of the comment line
    rules: tuple[str, ...]
    reason: str | None
    used: set[str] = field(default_factory=set)


class WaiverTable:
    """Waivers across a set of files."""

    def __init__(self) -> None:
        # (path, line) -> Waiver
        self._by_site: dict[tuple[Path, int], Waiver] = {}

    def scan_file(self, path: Path, raw_lines: list[str]) -> None:
        for idx, line in enumerate(raw_lines):
            m = _WAIVER_RE.search(line)
            if m is None:
                continue
            rules = tuple(r.strip() for r in m.group(1).split(","))
            reason = m.group(2).strip() if m.group(2) else None
            self._by_site[(path, idx)] = Waiver(path, idx, rules, reason)

    def allows(self, path: Path, idx: int, rule: str) -> bool:
        """True when a waiver on line idx or idx-1 covers `rule`; marks
        the waiver used either way it matches."""
        hit = False
        for j in (idx, idx - 1):
            w = self._by_site.get((path, j))
            if w is not None and rule in w.rules:
                w.used.add(rule)
                hit = True
        return hit

    def waivers(self) -> list[Waiver]:
        return sorted(self._by_site.values(),
                      key=lambda w: (str(w.path), w.line))

    def unused(self) -> list[tuple[Waiver, str]]:
        """Every (waiver, rule) pair that never suppressed a finding."""
        out = []
        for w in self.waivers():
            for rule in w.rules:
                if rule not in w.used:
                    out.append((w, rule))
        return out

    def missing_reason(self) -> list[Waiver]:
        return [w for w in self.waivers() if not w.reason]
