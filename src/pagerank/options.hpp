#pragma once

// Shared pagerank parameters.
//
// The reproduction uses the unnormalized Google form of Eq. 1:
//     R(i) = (1 - d) + d * sum_{j in in(i)} R(j) / outdeg(j)
// so ranks sum to ~N and a freshly inserted document is seeded with the
// paper's "initial pagerank value (1.0 in our case)" (§4.7). Dangling
// documents simply emit no contributions — the paper does not model
// dangling-mass redistribution, and using the identical operator in the
// distributed and centralized solvers makes Table 2's quality comparison
// exact.

#include <cstdint>

namespace dprank {

/// Order in which DistributedPagerank works through its dirty set.
enum class Schedule : std::uint8_t {
  /// Fig. 1 as written: every dirty document is recomputed each pass, in
  /// the order it was marked. The default — and the bit-compatibility
  /// baseline: ranks, pass history and traffic are unchanged from engines
  /// that predate the scheduler.
  kFifo = 0,
  /// Residual-prioritized (after D-Iteration and Das Sarma et al.): each
  /// dirty document carries the |Δcontribution| mass accumulated since
  /// its last recompute; every peer works highest-residual-first and may
  /// defer the low-residual tail of its bucket to a later pass, so one
  /// recompute (and one emission fan-out) coalesces several incoming
  /// updates. Converges to the same epsilon with fewer update messages;
  /// rank values differ from kFifo only within the epsilon tolerance.
  kResidual = 1,
};

struct PagerankOptions {
  /// Damping factor d of Eq. 1. Google's standard 0.85. The Figure 2
  /// illustration corresponds to d = 1 (increments 1/3 and 1/6 with no
  /// damping); tests reproduce that with damping = 1.0.
  double damping = 0.85;

  /// Error threshold epsilon of Fig. 1: a document whose relative rank
  /// change |old-new|/new exceeds epsilon propagates updates.
  double epsilon = 1e-3;

  /// Initial rank assigned to every document (and to inserted ones).
  double initial_rank = 1.0;

  /// Safety valve for the pass loop.
  std::uint64_t max_passes = 1'000'000;

  /// Pass-parallel worker count for DistributedPagerank (the §4.2 "all
  /// peers compute concurrently" methodology executed for real): each
  /// pass's recompute step (residual selection, fold, epilogue) runs one
  /// shard per owning peer; emission stays one sequential loop in
  /// canonical order. Results are bit-identical for every thread count —
  /// threads change wall time only. 1 = fully sequential (no pool).
  std::uint32_t threads = 1;

  /// Dirty-set processing order; see Schedule. CLI: --schedule.
  Schedule schedule = Schedule::kFifo;

  /// kResidual sub-flag: start each pass with a loosened emission
  /// threshold that tightens toward epsilon as the global residual falls
  /// (documents whose change clears epsilon but not the loosened
  /// threshold stay dirty rather than emitting, so no update is lost —
  /// it is sent once the schedule tightens). Cuts early-phase message
  /// storms; final quality is still governed by epsilon. CLI:
  /// --adaptive-epsilon.
  bool adaptive_epsilon = false;

  /// kResidual tuning: a document is deferred when its relative residual
  /// falls below half the previous pass's max relative change (no
  /// deferral once that max is within epsilon — the endgame runs
  /// exhaustively). Each peer always processes its highest-residual
  /// document, and no document is deferred more than residual_max_defer
  /// consecutive passes, which bounds staleness and guarantees progress.
  std::uint32_t residual_max_defer = 8;

  /// Run the engine's full invariant walk (DistributedPagerank
  /// validate_state(); see common/contracts.hpp) every n-th pass boundary
  /// and once more at termination. 0 disables periodic validation. The
  /// walk cascades into the attached subsystems, so this cadence also
  /// sets how often an attached membership coordinator's ownership sweep
  /// runs (at 0, never). The checks are no-ops when contracts are
  /// compiled out (DPRANK_CHECK_INVARIANTS=OFF), so leaving this set in
  /// release builds costs nothing. CLI: --check-invariants [n].
  std::uint64_t validate_every_n_passes = 0;
};

/// Relative change |oldv - newv| / |newv| with a guard for newv == 0
/// (falls back to the absolute change, which then compares directly
/// against epsilon).
[[nodiscard]] inline double relative_change(double oldv, double newv) {
  const double diff = oldv > newv ? oldv - newv : newv - oldv;
  const double denom = newv > 0 ? newv : (newv < 0 ? -newv : 0.0);
  return denom > 0 ? diff / denom : diff;
}

}  // namespace dprank
