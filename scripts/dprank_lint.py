#!/usr/bin/env python3
"""dprank custom lint: project rules clang-tidy cannot express.

Every rule here guards a determinism or concurrency invariant of the
simulator that generic tooling does not know about:

  wall-clock      Simulation code (src/sim, src/pagerank, src/net,
                  src/dht, src/p2p) must not read real time or sleep —
                  simulated time comes from the pass clock / time model
                  (sim/time_model.hpp), and a wall-clock read makes runs
                  irreproducible. Telemetry that *measures* the simulator
                  (not the simulation) carries an explicit waiver.

  seeded-rng      All randomness flows through common/rng.hpp's seeded
                  Xoshiro generator. std::random_device, the std <random>
                  engines, and C rand()/srand() create unseeded or
                  platform-dependent streams that break bit-identical
                  replay.

  vector-bool     In threaded subsystems (any file using <thread>,
                  <atomic> or the thread pool), mutable flag arrays must
                  not be std::vector<bool>: its packed bits share words,
                  so concurrent writers to "distinct" elements race. Use
                  std::vector<std::uint8_t>. Read-only sharing is safe
                  and may be waived.

  mutable-global  No mutable global or function-local static state
                  outside the sanctioned registries — hidden globals leak
                  state between runs in one process and between tests.
                  (const/constexpr statics are fine.)

  hot-path-map    The messaging hot path (src/net, src/pagerank) is
                  flat-map/array-backed: node-based std::map and
                  std::unordered_map pay an allocation plus pointer
                  chases per message, which is exactly the cost the
                  FlatMap64/arena work removed. New code there should
                  use FlatMap64 (common/flat_map.hpp) or a plain
                  vector; cold-path uses (config tables, metrics
                  export, a rarely-touched delay buffer) carry an
                  explicit waiver naming why the path is cold.

  unaligned-hot-buffer
                  Files on the gather hot path (hot-path subsystems that
                  include the fold kernel, common/simd.hpp) hold the
                  arrays its per-lane gathers stream through. A raw
                  std::vector<double>/<float> buffer there gets the
                  allocator's default 16-byte alignment, splitting cache
                  lines under the 4-lane gather; use AlignedVec
                  (common/arena.hpp). Buffers the kernel never touches
                  (outbox parking, audit scratch) or whose type is fixed
                  by a public interface carry an explicit waiver naming
                  why.

  include-what-you-use (iwyu-lite)
                  A file that names a std:: container/utility must
                  include its header directly (or in its paired .hpp) —
                  transitive includes break silently when the unrelated
                  header that provided them changes.

Waivers: append `// dprank-lint: allow(<rule>)` to the offending line,
or put it on the line directly above. Each waiver should sit next to a
comment explaining why the rule does not apply. A waiver that suppresses
nothing is itself an error (unused-waiver): stale waivers reopen the
hole they once covered, silently. (Waiver parsing is shared with
scripts/dprank_analyze, which enforces the same policy.)

Usage:  python3 scripts/dprank_lint.py [--root DIR]
Exit:   0 clean, 1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from dprank_analyze.waivers import WaiverTable  # noqa: E402

# Subsystems that run *inside* the simulation and must be deterministic.
SIM_DIRS = ("src/sim", "src/pagerank", "src/net", "src/dht", "src/p2p",
            "src/stream", "src/engines")

# Where seeded randomness is implemented (exempt from seeded-rng).
RNG_FILES = ("src/common/rng.hpp", "src/common/rng.cpp")

WALL_CLOCK_RE = re.compile(
    r"std::chrono::(system_clock|steady_clock|high_resolution_clock)::now"
    r"|std::this_thread::sleep_(for|until)"
    r"|\bgettimeofday\s*\("
    r"|\bclock_gettime\s*\("
    r"|\bstd::time\s*\("
)

SEEDED_RNG_RE = re.compile(
    r"std::random_device"
    r"|std::(mt19937|mt19937_64|minstd_rand0?|ranlux\w+|knuth_b|default_random_engine)\b"
    r"|\b(?:std::)?s?rand\s*\("
)

# A mutable std::vector<bool> variable or member declaration: not a
# const/constexpr object, not a reference/pointer to one.
VECTOR_BOOL_DECL_RE = re.compile(r"std::vector<bool>\s*[>&*]?\s*\w+\s*[;({=\[]")
VECTOR_BOOL_CONST_RE = re.compile(r"\bconst\s+std::vector<bool>|std::vector<bool>\s*&")
THREADED_MARKERS = ("<thread>", "<atomic>", "thread_pool.hpp", "std::jthread")

# `static` at namespace/function scope introducing mutable state. Lines
# that declare functions (contain an opening paren) or immutable data
# (const/constexpr) are not findings.
MUTABLE_STATIC_RE = re.compile(r"^\s*static\s+(?!const\b|constexpr\b|assert\b)")
# The sanctioned registries: process-wide sinks that exist precisely to
# be the one blessed piece of global state (obs metrics registry, bench
# result stores). A Meyers singleton of one of these types is the
# pattern, not a violation of it.
REGISTRY_TYPES_RE = re.compile(r"\b(MetricsRegistry|ResultStore)\b")

# Subsystems forming the per-message hot path (see hot-path-map above).
HOT_PATH_DIRS = ("src/net", "src/pagerank", "src/stream", "src/engines")
HOT_PATH_MAP_RE = re.compile(r"\bstd::(unordered_map|map)\s*<")

# Gather hot path (see unaligned-hot-buffer above): a hot-path file that
# includes the fold kernel holds the buffers its gathers stream through.
GATHER_MARKER = "common/simd.hpp"
HOT_BUFFER_DECL_RE = re.compile(r"\bstd::vector<\s*(double|float)\s*>\s*\w+\s*[;{=\[]")

# iwyu-lite: std symbols whose header must be included directly. Kept to
# high-signal, low-noise symbols (containers and threading primitives
# whose transitive availability varies across standard libraries).
IWYU_SYMBOLS = {
    "std::string": "<string>",
    "std::vector": "<vector>",
    "std::map": "<map>",
    "std::unordered_map": "<unordered_map>",
    "std::unordered_set": "<unordered_set>",
    "std::set": "<set>",
    "std::deque": "<deque>",
    "std::optional": "<optional>",
    "std::function": "<functional>",
    "std::unique_ptr": "<memory>",
    "std::shared_ptr": "<memory>",
    "std::mutex": "<mutex>",
    "std::atomic": "<atomic>",
    "std::thread": "<thread>",
    "std::jthread": "<thread>",
    "std::condition_variable": "<condition_variable>",
}
IWYU_WORD_RE = re.compile(
    "|".join(re.escape(s) + r"\b" for s in sorted(IWYU_SYMBOLS, key=len, reverse=True))
)
INCLUDE_RE = re.compile(r'^\s*#\s*include\s*([<"][^>"]+[>"])')


class Finding:
    def __init__(self, path: Path, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(line: str) -> str:
    """Remove string/char literals and // comments so patterns in prose
    or log messages do not trip rules. (Block comments are handled by the
    per-file scanner.)"""
    out = []
    i, n = 0, len(line)
    in_str: str | None = None
    while i < n:
        c = line[i]
        if in_str:
            if c == "\\":
                i += 2
                continue
            if c == in_str:
                in_str = None
            i += 1
            continue
        if c in ('"', "'"):
            in_str = c
            out.append(c)
            i += 1
            continue
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        out.append(c)
        i += 1
    return "".join(out)


def relative(path: Path, root: Path) -> str:
    return path.relative_to(root).as_posix()


def lint_file(path: Path, root: Path, waivers: WaiverTable) -> list[Finding]:
    text = path.read_text(encoding="utf-8")
    raw_lines = text.splitlines()
    rel = relative(path, root)
    waivers.scan_file(path, raw_lines)

    # Pre-compute code-only lines (no strings, no // comments, block
    # comments blanked) for the pattern rules.
    code_lines: list[str] = []
    in_block = False
    for line in raw_lines:
        stripped = strip_comments_and_strings(line)
        if in_block:
            end = stripped.find("*/")
            if end == -1:
                code_lines.append("")
                continue
            stripped = stripped[end + 2 :]
            in_block = False
        # Blank any /* ... */ sections (possibly several per line).
        while True:
            start = stripped.find("/*")
            if start == -1:
                break
            end = stripped.find("*/", start + 2)
            if end == -1:
                stripped = stripped[:start]
                in_block = True
                break
            stripped = stripped[:start] + " " + stripped[end + 2 :]
        code_lines.append(stripped)

    findings: list[Finding] = []

    def report(idx: int, rule: str, message: str) -> None:
        if waivers.allows(path, idx, rule):
            return
        findings.append(Finding(path, idx + 1, rule, message))

    in_sim = rel.startswith(SIM_DIRS)
    in_hot_path = rel.startswith(HOT_PATH_DIRS)
    in_gather_path = in_hot_path and GATHER_MARKER in text
    is_rng_impl = rel in RNG_FILES
    threaded = any(marker in text for marker in THREADED_MARKERS)

    for idx, code in enumerate(code_lines):
        if not code:
            continue
        if in_sim and WALL_CLOCK_RE.search(code):
            report(
                idx,
                "wall-clock",
                "simulation code must not read real time or sleep; use the "
                "pass clock / time model (sim/time_model.hpp)",
            )
        if not is_rng_impl and SEEDED_RNG_RE.search(code):
            report(
                idx,
                "seeded-rng",
                "use the seeded generator in common/rng.hpp; platform RNG "
                "breaks bit-identical replay",
            )
        if (
            threaded
            and VECTOR_BOOL_DECL_RE.search(code)
            and not VECTOR_BOOL_CONST_RE.search(code)
        ):
            report(
                idx,
                "vector-bool",
                "mutable std::vector<bool> in a threaded subsystem: packed "
                "bits share words, so concurrent writers race — use "
                "std::vector<std::uint8_t>",
            )
        if in_hot_path and HOT_PATH_MAP_RE.search(code):
            report(
                idx,
                "hot-path-map",
                "node-based map on the messaging hot path: use FlatMap64 "
                "(common/flat_map.hpp) or a vector; waive only with a "
                "comment naming why this path is cold",
            )
        if in_gather_path and HOT_BUFFER_DECL_RE.search(code):
            report(
                idx,
                "unaligned-hot-buffer",
                "raw std::vector<double/float> buffer in a gather-hot-path "
                "file: the fold kernel's lane gathers want 64-byte-aligned "
                "arrays — use AlignedVec (common/arena.hpp), or waive with "
                "a comment naming why this buffer is never gathered",
            )
        if (
            MUTABLE_STATIC_RE.search(code)
            and "(" not in code
            and not REGISTRY_TYPES_RE.search(code)
        ):
            report(
                idx,
                "mutable-global",
                "mutable static state outside a sanctioned registry leaks "
                "between runs and tests",
            )

    # iwyu-lite: direct includes of this file, plus (for a .cpp) its
    # paired header, which owns the includes for declarations it exposes.
    includes: set[str] = set()
    for line in raw_lines:
        m = INCLUDE_RE.match(line)
        if m:
            includes.add(m.group(1).replace('"', "").replace("<", "").replace(">", ""))
            includes.add(m.group(1))
    if path.suffix == ".cpp":
        paired = path.with_suffix(".hpp")
        if paired.exists():
            for line in paired.read_text(encoding="utf-8").splitlines():
                m = INCLUDE_RE.match(line)
                if m:
                    includes.add(
                        m.group(1).replace('"', "").replace("<", "").replace(">", "")
                    )
                    includes.add(m.group(1))

    missing: dict[str, int] = {}
    for idx, code in enumerate(code_lines):
        for m in IWYU_WORD_RE.finditer(code):
            symbol = m.group(0)
            header = IWYU_SYMBOLS[symbol]
            if header in includes or header.strip("<>") in includes:
                continue
            key = f"{symbol} -> {header}"
            if key not in missing:
                missing[key] = idx
    for key, idx in sorted(missing.items(), key=lambda kv: kv[1]):
        symbol, header = key.split(" -> ")
        report(
            idx,
            "include-what-you-use",
            f"{symbol} used but {header} is not included directly "
            "(transitive includes break silently)",
        )

    return findings


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="repository root (default: the checkout containing this script)",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="specific files to lint (default: all C++ sources under "
        "src/, tools/, tests/, bench/)",
    )
    args = parser.parse_args()
    root = args.root.resolve()

    if args.paths:
        files = [p.resolve() for p in args.paths]
    else:
        files = []
        for sub in ("src", "tools", "tests", "bench"):
            base = root / sub
            if base.is_dir():
                files.extend(sorted(base.rglob("*.hpp")))
                files.extend(sorted(base.rglob("*.cpp")))

    waivers = WaiverTable("dprank-lint")
    all_findings: list[Finding] = []
    for f in files:
        try:
            all_findings.extend(lint_file(f, root, waivers))
        except ValueError:
            print(f"error: {f} is outside --root {root}", file=sys.stderr)
            return 2

    # Same policy as dprank_analyze: a waiver that suppressed nothing is
    # stale and must go, or the rule it silences can regress unnoticed.
    for waiver, rule in waivers.unused():
        all_findings.append(Finding(
            waiver.path, waiver.line + 1, "unused-waiver",
            f"waiver for '{rule}' suppresses nothing — remove it",
        ))
    all_findings.sort(key=lambda f: (str(f.path), f.line, f.rule))

    for finding in all_findings:
        print(finding)
    if all_findings:
        print(f"\ndprank_lint: {len(all_findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"dprank_lint: clean ({len(files)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
