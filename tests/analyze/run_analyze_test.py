#!/usr/bin/env python3
"""CTest driver for the dprank_analyze fixture corpus.

Checks, in order:

  1. The analyzer over tests/analyze/fixtures/ (astlite backend, pinned
     so the goldens do not depend on a libclang install) reproduces
     tests/analyze/golden/findings.json exactly and exits 1.
  2. A clean fixture subset exits 0 and reports clean.

Run from anywhere: paths are derived from this file's location.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
ANALYZER = REPO / "scripts" / "dprank_analyze"
FIXTURES = HERE / "fixtures"
GOLDEN = HERE / "golden" / "findings.json"

failures: list[str] = []


def check(name: str, ok: bool, detail: str = "") -> None:
    tag = "ok" if ok else "FAIL"
    print(f"[{tag}] {name}" + (f": {detail}" if detail and not ok else ""))
    if not ok:
        failures.append(name)


def run(cmd: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, capture_output=True, text=True)


def fixture_files() -> list[str]:
    return sorted(str(p) for p in FIXTURES.rglob("*.cxx"))


def main() -> int:
    # 1. Full corpus vs golden.
    proc = run(
        [sys.executable, str(ANALYZER), "--root", str(FIXTURES),
         "--backend", "astlite", "--json", "-"] + fixture_files()
    )
    check("fixture sweep exits 1", proc.returncode == 1,
          f"exit={proc.returncode} stderr={proc.stderr.strip()}")
    try:
        got = json.loads(proc.stdout)
    except json.JSONDecodeError as exc:
        check("fixture sweep emits JSON", False, str(exc))
        got = {"findings": []}
    else:
        check("fixture sweep emits JSON", True)
    want = json.loads(GOLDEN.read_text())
    if got.get("findings") != want.get("findings"):

        def key(f: dict) -> tuple:
            return (f["file"], f["line"], f["rule"])

        got_keys = {key(f) for f in got.get("findings", [])}
        want_keys = {key(f) for f in want.get("findings", [])}
        detail = (f"missing={sorted(want_keys - got_keys)} "
                  f"extra={sorted(got_keys - want_keys)}")
        if got_keys == want_keys:
            detail = "same locations, message text drifted from golden"
        check("findings match golden", False, detail)
    else:
        check("findings match golden", True)

    # 2. A clean subset must exit 0 (and prove the tool does not just
    # flag everything it reads).
    clean = str(FIXTURES / "src" / "common" / "clock_ok.cxx")
    proc = run([sys.executable, str(ANALYZER), "--root", str(FIXTURES),
                "--backend", "astlite", clean])
    check("clean fixture exits 0", proc.returncode == 0,
          f"exit={proc.returncode} out={proc.stdout.strip()}")
    check("clean fixture reports clean", "clean" in proc.stdout,
          proc.stdout.strip())

    if failures:
        print(f"\n{len(failures)} check(s) failed: {', '.join(failures)}",
              file=sys.stderr)
        return 1
    print("\nall analyzer fixture checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
