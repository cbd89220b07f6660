"""dprank_analyze: the project's static determinism & concurrency checker.

Rules that need structure (loop bodies, lambda captures, cross-file call
graphs), run over src/ and tools/:

  unordered-iteration (R1)  iteration over std::unordered_map/set (or a
                            pointer-keyed container) in a simulation
                            subsystem whose body emits messages, appends
                            to history, or draws from the seeded RNG.
  float-order         (R3)  double accumulation (+=, std::fma) folded in
                            unordered-container iteration order in
                            engine/quality code.
  thread-capture      (R4)  lambdas handed to ThreadPool region APIs that
                            capture by reference without the peer-sharded
                            index pattern (first statement derives the
                            shard's slice from the shard index).
  contract-coverage   (R5)  a class declares validate() but no contract
                            sweep outside its own translation unit ever
                            calls it.

Line rules, run over src/, tools/, tests/ and bench/:

  nondet-source       (R2)  rand()/std::random_device, wall-clock reads
                            in simulation code, pointer-value ordering
                            (std::less<T*>, pointer-keyed containers,
                            std::hash<T*>).
  vector-bool               a mutable std::vector<bool> in a threaded
                            file: packed bits share words, so concurrent
                            writers to distinct elements race.
  mutable-global            mutable static state outside the sanctioned
                            registries (MetricsRegistry, ResultStore).
  hot-path-map              node-based std::map/unordered_map on the
                            messaging hot path (src/net, src/pagerank,
                            src/stream).
  unaligned-hot-buffer      a raw std::vector<double/float> in a hot-path
                            file that includes the fold kernel
                            (common/simd.hpp); use AlignedVec.
  include-what-you-use      a std:: container/utility named without its
                            header included directly (or by the paired
                            header of a .cpp).

Waivers: `// dprank-analyze: allow(<rule>) -- reason`, on the offending
line or the line directly above. The reason is mandatory, and a waiver
that suppresses nothing is itself an error (unused-waiver) so stale
waivers cannot linger after a refactor.

Backends: with the `clang` Python bindings and build/compile_commands.json
present, loop/container types are resolved from the real AST; otherwise a
self-contained tokenizer ("astlite") resolves them from declarations, so
the analyzer never silently skips. `--backend astlite` pins the
tokenizer path (what the golden tests use).
"""

from __future__ import annotations

RULES = {
    "unordered-iteration": (
        "iteration over an unordered/pointer-keyed container with an "
        "order-sensitive body (message emission, history append, RNG draw)"
    ),
    "nondet-source": (
        "nondeterminism source: platform RNG, wall-clock in simulation "
        "code, or pointer-value ordering"
    ),
    "float-order": (
        "floating-point accumulation folded in unordered iteration order"
    ),
    "thread-capture": (
        "by-reference lambda capture into a ThreadPool region without "
        "the peer-sharded index pattern"
    ),
    "contract-coverage": (
        "class declares validate() but no contract sweep reaches it"
    ),
    "vector-bool": "mutable std::vector<bool> in a threaded file",
    "mutable-global": "mutable static state outside a sanctioned registry",
    "hot-path-map": "node-based map on the messaging hot path",
    "unaligned-hot-buffer": (
        "raw std::vector<double/float> buffer in a fold-kernel file"
    ),
    "include-what-you-use": "std:: symbol used without its direct include",
    "unused-waiver": "waiver suppresses nothing",
    "malformed-waiver": "waiver is missing its `-- reason`",
}

# The default sweep, and the part of it the structural rules (R1, R3, R4,
# R5) read: a test calling validate() is not a contract sweep, and tests
# drive the thread pool in deliberately unsharded ways.
SWEEP_DIRS = ("src", "tools", "tests", "bench")
STRUCTURAL_DIRS = ("src", "tools")

# Subsystems that run inside the simulation and must replay bit-for-bit.
SIM_DIRS = (
    "src/sim",
    "src/pagerank",
    "src/net",
    "src/dht",
    "src/p2p",
    "src/stream",
)

# Engine/quality code where FP fold order is pinned by design (the PR 3
# shard merges and the PR 5 sorted source-peer delta folds).
FLOAT_ORDER_DIRS = ("src/pagerank",)

# The per-message hot path: flat maps and vectors, not node-based maps.
HOT_PATH_DIRS = ("src/net", "src/pagerank", "src/stream")

# Where seeded randomness is implemented (exempt from the RNG patterns).
RNG_IMPL_FILES = ("src/common/rng.hpp", "src/common/rng.cpp")
