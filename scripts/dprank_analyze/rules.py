"""Rule implementations over the extracted file models."""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from . import FLOAT_ORDER_DIRS, HOT_PATH_DIRS, RNG_IMPL_FILES, SIM_DIRS
from .astlite import SourceFile
from .waivers import WaiverTable


@dataclass
class Finding:
    rel: str
    line: int  # 1-based
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.rel}:{self.line}: [{self.rule}] {self.message}"

    def as_json(self) -> dict:
        return {
            "file": self.rel,
            "line": self.line,
            "rule": self.rule,
            "message": self.message,
        }


# --- R1 / R3 helpers ------------------------------------------------------

# Order-sensitive effects inside a loop body.
_MSG_RE = re.compile(
    r"\b\w*(?:send|deliver|emit|enqueue)\w*\s*\(|\brecord_message\s*\("
)
_APPEND_RE = re.compile(
    r"\b([A-Za-z_]\w*)\s*(?:\.|->)\s*(?:push_back|emplace_back|append)\s*\("
)
# A draw from (or hand-off of) the seeded generator: consuming the RNG
# stream in hash-table order reorders every later draw.
_RNG_USE_RE = re.compile(r"\brng\w*\s*(?:\.|->)|\(\s*rng\w*\s*[),]")
_FLOAT_ACCUM_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\+=")
_FMA_RE = re.compile(r"\bstd::fma\s*\(")
_SORT_NEARBY = 2000  # chars after the loop to look for a canonicalizing sort


def _sorted_after(sf: SourceFile, target: str, from_off: int) -> bool:
    tail = sf.flat[from_off : from_off + _SORT_NEARBY]
    return re.search(
        r"\bsort\s*\([^;]*\b" + re.escape(target) + r"\b", tail
    ) is not None


def in_dirs(rel: str, dirs: tuple[str, ...]) -> bool:
    return rel.startswith(tuple(d + "/" for d in dirs))


def check_iteration_rules(sf: SourceFile, waivers: WaiverTable,
                          findings: list[Finding]) -> None:
    """R1 unordered-iteration and R3 float-order."""
    in_sim = in_dirs(sf.rel, SIM_DIRS)
    in_float = in_dirs(sf.rel, FLOAT_ORDER_DIRS)
    for loop in sf.loops:
        if loop.kind not in ("unordered", "ptr-ordered"):
            continue
        if in_sim:
            effects: list[str] = []
            if _MSG_RE.search(loop.body):
                effects.append("emits messages")
            if _RNG_USE_RE.search(loop.body):
                effects.append("feeds RNG draws")
            for am in _APPEND_RE.finditer(loop.body):
                if not _sorted_after(sf, am.group(1), loop.body_end_off):
                    effects.append(f"appends to '{am.group(1)}' "
                                   "without a sorted materialization")
                    break
            if effects:
                if not waivers.allows(sf.path, loop.line,
                                      "unordered-iteration"):
                    findings.append(Finding(
                        sf.rel, loop.line + 1, "unordered-iteration",
                        f"iteration over {loop.kind} container "
                        f"'{loop.container}' {'; '.join(effects)} — "
                        "hash-table order is not part of the seeded "
                        "replay contract; materialize and sort first",
                    ))
        if in_float:
            accum = None
            for fm in _FLOAT_ACCUM_RE.finditer(loop.body):
                if re.search(r"\bdouble\s+" + re.escape(fm.group(1)) + r"\b",
                             sf.flat):
                    accum = fm.group(1)
                    break
            if accum is None and _FMA_RE.search(loop.body):
                accum = "<fma>"
            if accum is not None:
                if not waivers.allows(sf.path, loop.line, "float-order"):
                    findings.append(Finding(
                        sf.rel, loop.line + 1, "float-order",
                        f"double accumulation into '{accum}' folded in "
                        f"{loop.kind} iteration order over "
                        f"'{loop.container}' — FP addition does not "
                        "commute across reorderings; fold in a sorted "
                        "canonical order",
                    ))


# --- R2 -------------------------------------------------------------------

_RAND_RE = re.compile(
    r"\bstd::random_device\b"
    r"|\bstd::(?:mt19937(?:_64)?|minstd_rand0?|ranlux\w+|knuth_b"
    r"|default_random_engine)\b"
    r"|\b(?:std::)?s?rand\s*\("
)
_CLOCK_RE = re.compile(
    r"std::chrono::\w*clock::now"
    r"|std::this_thread::sleep_(?:for|until)"
    r"|\bgettimeofday\s*\("
    r"|\bclock_gettime\s*\("
    r"|\bstd::time\s*\("
    r"|\btime\s*\(\s*(?:nullptr|NULL|0)\s*\)"
)
_PTR_ORDER_RE = re.compile(
    r"std::less\s*<[^<>]*\*\s*>"
    r"|std::hash\s*<[^<>]*\*\s*>"
    r"|std::(?:unordered_)?(?:multi)?(?:map|set)\s*<\s*(?:const\s+)?"
    r"[\w:]+\s*\*"
)


def check_nondet_sources(sf: SourceFile, waivers: WaiverTable,
                         findings: list[Finding]) -> None:
    """R2 nondet-source."""
    in_sim = in_dirs(sf.rel, SIM_DIRS)
    is_rng_impl = sf.rel in RNG_IMPL_FILES

    def report(idx: int, what: str) -> None:
        if not waivers.allows(sf.path, idx, "nondet-source"):
            findings.append(Finding(sf.rel, idx + 1, "nondet-source", what))

    for idx, code in enumerate(sf.code_lines):
        if not code.strip():
            continue
        if not is_rng_impl and _RAND_RE.search(code):
            report(idx, "platform RNG breaks bit-identical replay; draw "
                        "from the seeded generator in common/rng.hpp")
        if in_sim and _CLOCK_RE.search(code):
            report(idx, "wall-clock read in simulation code; simulated "
                        "time comes from the pass clock / time model")
        if _PTR_ORDER_RE.search(code):
            report(idx, "pointer-value ordering (address compare/hash) "
                        "varies run to run under ASLR; key on a stable "
                        "id instead")


# --- R4 -------------------------------------------------------------------


def check_thread_captures(sf: SourceFile, waivers: WaiverTable,
                          findings: list[Finding]) -> None:
    """R4 thread-capture: a by-reference lambda in a ThreadPool region is
    fine only when each shard derives its slice from the shard index —
    `X[i]` / `X[slot]` indexing, or forwarding the index to a callable."""
    for lam in sf.region_lambdas:
        if not lam.by_ref:
            continue
        sharded = False
        for p in lam.params:
            if not p:
                continue
            if re.search(r"\w\s*\[\s*" + re.escape(p) + r"\s*\]", lam.body):
                sharded = True
                break
            if re.search(r"\b\w+\s*\(\s*" + re.escape(p) + r"\s*[,)]",
                         lam.body):
                sharded = True
                break
        if sharded:
            continue
        if not waivers.allows(sf.path, lam.line, "thread-capture"):
            findings.append(Finding(
                sf.rel, lam.line + 1, "thread-capture",
                "by-reference capture into a ThreadPool region without "
                "the peer-sharded index pattern: concurrent shards may "
                "write shared captured state — index per-shard storage "
                "by the shard/slot parameter",
            ))


# --- R5 -------------------------------------------------------------------


def _pair_key(rel: str) -> str:
    return rel.rsplit(".", 1)[0]


def check_contract_coverage(files: list[SourceFile], waivers: WaiverTable,
                            findings: list[Finding]) -> None:
    """R5 contract-coverage, cross-file: every class declaring validate()
    must be the receiver of a validate() call outside its own .cpp/.hpp
    pair (a contract sweep), somewhere in the analyzed set."""
    decls: dict[str, tuple[SourceFile, int]] = {}
    for sf in files:
        for cls, idx in sf.validate_decls:
            decls.setdefault(cls, (sf, idx))
    if not decls:
        return
    reached: set[str] = set()
    for sf in files:
        for ident, idx in sf.validate_calls:
            cls = sf.type_of.get(ident)
            if cls is None or cls not in decls:
                continue
            if _pair_key(decls[cls][0].rel) == _pair_key(sf.rel):
                continue  # a class's own TU validating itself proves nothing
            reached.add(cls)
    for cls, (sf, idx) in sorted(decls.items()):
        if cls in reached:
            continue
        if waivers.allows(sf.path, idx, "contract-coverage"):
            continue
        findings.append(Finding(
            sf.rel, idx + 1, "contract-coverage",
            f"{cls}::validate() is never called from a contract sweep "
            "outside its own translation unit — wire it into a "
            "validate_state()/validate() walk or waiver with the reason "
            "it is test-only",
        ))


# --- Line rules -----------------------------------------------------------

# A mutable std::vector<bool> variable or member declaration: not a
# const object, not a reference to one.
_VECTOR_BOOL_DECL_RE = re.compile(
    r"std::vector<bool>\s*[>&*]?\s*\w+\s*[;({=\[]")
_VECTOR_BOOL_CONST_RE = re.compile(
    r"\bconst\s+std::vector<bool>|std::vector<bool>\s*&")
_THREADED_MARKERS = ("<thread>", "<atomic>", "thread_pool.hpp", "std::jthread")

# `static` introducing mutable state. Lines that declare functions
# (contain an opening paren) are not findings, and neither is a Meyers
# singleton of a sanctioned registry: the process-wide sinks that exist
# to be the one blessed piece of global state.
_MUTABLE_STATIC_RE = re.compile(
    r"^\s*static\s+(?!const\b|constexpr\b|assert\b)")
_REGISTRY_TYPES_RE = re.compile(r"\b(MetricsRegistry|ResultStore)\b")

_HOT_PATH_MAP_RE = re.compile(r"\bstd::(unordered_map|map)\s*<")

# A hot-path file that includes the fold kernel holds the buffers its
# lane gathers stream through.
_GATHER_MARKER = "common/simd.hpp"
_HOT_BUFFER_DECL_RE = re.compile(
    r"\bstd::vector<\s*(double|float)\s*>\s*\w+\s*[;{=\[]")

# std symbols whose header must be included directly: containers and
# threading primitives whose transitive availability varies across
# standard libraries.
_IWYU_SYMBOLS = {
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
_IWYU_WORD_RE = re.compile("|".join(
    re.escape(s) + r"\b"
    for s in sorted(_IWYU_SYMBOLS, key=len, reverse=True)))
# Read from raw lines: scrubbing blanks a quoted include path.
_INCLUDE_RE = re.compile(r'^\s*#\s*include\s*[<"]([^>"]+)[>"]')
# A source file's paired header owns the includes for what it declares.
_PAIRED_HEADER = {".cpp": ".hpp", ".cxx": ".hxx"}


def _included(sf: SourceFile) -> set[str]:
    lines = sf.raw_lines
    suffix = _PAIRED_HEADER.get(sf.path.suffix)
    if suffix is not None and sf.path.with_suffix(suffix).is_file():
        header = sf.path.with_suffix(suffix)
        lines = lines + header.read_text(encoding="utf-8").splitlines()
    return {m.group(1) for m in map(_INCLUDE_RE.match, lines) if m}


def check_line_rules(sf: SourceFile, waivers: WaiverTable,
                     findings: list[Finding]) -> None:
    """vector-bool, mutable-global, hot-path-map, unaligned-hot-buffer and
    include-what-you-use."""
    text = "\n".join(sf.raw_lines)
    threaded = any(marker in text for marker in _THREADED_MARKERS)
    in_hot_path = in_dirs(sf.rel, HOT_PATH_DIRS)
    in_gather_path = in_hot_path and _GATHER_MARKER in text

    def report(idx: int, rule: str, what: str) -> None:
        if not waivers.allows(sf.path, idx, rule):
            findings.append(Finding(sf.rel, idx + 1, rule, what))

    for idx, code in enumerate(sf.code_lines):
        if not code.strip():
            continue
        if (threaded and _VECTOR_BOOL_DECL_RE.search(code)
                and not _VECTOR_BOOL_CONST_RE.search(code)):
            report(idx, "vector-bool",
                   "mutable std::vector<bool> in a threaded subsystem: "
                   "packed bits share words, so concurrent writers race "
                   "— use std::vector<std::uint8_t>")
        if in_hot_path and _HOT_PATH_MAP_RE.search(code):
            report(idx, "hot-path-map",
                   "node-based map on the messaging hot path: use "
                   "FlatMap64 (common/flat_map.hpp) or a vector; waive "
                   "only with a reason naming why this path is cold")
        if in_gather_path and _HOT_BUFFER_DECL_RE.search(code):
            report(idx, "unaligned-hot-buffer",
                   "raw std::vector<double/float> buffer in a "
                   "gather-hot-path file: the fold kernel's lane gathers "
                   "want 64-byte-aligned arrays — use AlignedVec "
                   "(common/arena.hpp), or waive with the reason this "
                   "buffer is never gathered")
        if (_MUTABLE_STATIC_RE.search(code) and "(" not in code
                and not _REGISTRY_TYPES_RE.search(code)):
            report(idx, "mutable-global",
                   "mutable static state outside a sanctioned registry "
                   "leaks between runs and tests")

    included = _included(sf)
    first_use: dict[str, int] = {}
    for idx, code in enumerate(sf.code_lines):
        for m in _IWYU_WORD_RE.finditer(code):
            header = _IWYU_SYMBOLS[m.group(0)]
            if header.strip("<>") not in included:
                first_use.setdefault(m.group(0), idx)
    for symbol, idx in first_use.items():
        report(idx, "include-what-you-use",
               f"{symbol} used but {_IWYU_SYMBOLS[symbol]} is not included "
               "directly (transitive includes break silently)")
