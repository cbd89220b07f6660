#include "pagerank/async_runtime.hpp"

#include "common/arena.hpp"
#include "common/contracts.hpp"
#include "common/rng.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>

namespace dprank {

namespace {

/// One pagerank update on the wire: the sender's out-edge id names both
/// the destination document (out_target(edge)) and the contribution cell.
struct WireUpdate {
  EdgeId edge;
  double value;
};

/// MPSC mailbox. Senders push batches; the owner drains everything in a
/// single lock acquisition.
class Mailbox {
 public:
  /// Senders keep their batch vector (contents are copied into the queue
  /// under the lock), so a per-destination scratch buffer retains its
  /// capacity across pushes instead of being reallocated every flush.
  void push(const std::vector<WireUpdate>& batch) {
    {
      const std::lock_guard lock(mu_);
      for (const auto& u : batch) queue_.push_back(u);
    }
    cv_.notify_one();
  }

  void push_one(WireUpdate u) {
    {
      const std::lock_guard lock(mu_);
      queue_.push_back(u);
    }
    cv_.notify_one();
  }

  /// Blocks until there is mail or `stop` becomes true. Returns the
  /// drained queue (empty only on stop) in a buffer from `pool` — the
  /// owner's pool, since only the owning thread drains; release the
  /// buffer back once the batch is applied.
  std::vector<WireUpdate> drain_or_stop(const std::atomic<bool>& stop,
                                        BufferPool<WireUpdate>& pool) {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [&] { return !queue_.empty() || stop.load(); });
    std::vector<WireUpdate> out = pool.acquire();
    out.insert(out.end(), queue_.begin(), queue_.end());
    queue_.clear();
    return out;
  }

  void notify() { cv_.notify_one(); }

  /// Post-join probe for the end-of-run invariant walk: quiescence means
  /// every queue drained.
  [[nodiscard]] bool empty() {
    const std::lock_guard lock(mu_);
    return queue_.empty();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<WireUpdate> queue_;
};

}  // namespace

AsyncPagerankRuntime::AsyncPagerankRuntime(const Digraph& g,
                                           const Placement& placement,
                                           const PagerankOptions& options)
    : graph_(g), placement_(placement), options_(options) {
  if (placement.num_docs() != g.num_nodes()) {
    throw std::invalid_argument(
        "AsyncPagerankRuntime: placement does not cover the graph");
  }
}

AsyncRunResult AsyncPagerankRuntime::run(std::uint64_t message_cap) {
  return run_impl(message_cap, nullptr);
}

AsyncRunResult AsyncPagerankRuntime::run_with_churn(
    const ChurnParams& churn, std::uint64_t message_cap) {
  return run_impl(message_cap, &churn);
}

AsyncRunResult AsyncPagerankRuntime::run_impl(std::uint64_t message_cap,
                                              const ChurnParams* churn) {
  const NodeId n = graph_.num_nodes();
  const PeerId num_peers = placement_.num_peers();

  AsyncRunResult result;
  result.ranks.assign(n, options_.initial_rank);
  std::vector<double> contrib(graph_.num_edges(), 0.0);
  for (NodeId u = 0; u < n; ++u) {
    const auto deg = graph_.out_degree(u);
    if (deg == 0) continue;
    const double c = options_.initial_rank / static_cast<double>(deg);
    for (EdgeId e = graph_.out_edge_begin(u); e < graph_.out_edge_end(u); ++e) {
      contrib[e] = c;
    }
  }

  std::vector<Mailbox> mailbox(num_peers);
  std::vector<std::vector<NodeId>> docs_of(num_peers);
  for (NodeId v = 0; v < n; ++v) docs_of[placement_.peer_of(v)].push_back(v);

  // Credit counter: one unit per queued wire update plus one startup unit
  // per peer. Quiescence <=> counter reaches zero.
  std::atomic<std::int64_t> inflight{static_cast<std::int64_t>(num_peers)};
  std::atomic<bool> stop{false};
  // Churn gates: a paused peer sleeps on pause_cv (without consuming
  // credits) until resumed or stopped. deque<atomic> because atomics are
  // immovable. The controller flips the flags under pause_mu before
  // notifying, so a worker checking the predicate under the lock cannot
  // miss a resume.
  std::deque<std::atomic<bool>> paused(num_peers);
  for (auto& p : paused) p.store(false);
  std::mutex pause_mu;
  std::condition_variable pause_cv;
  // True while the churn controller is running. The test pause seam only
  // injects a pause while this holds (checked under pause_mu, which
  // orders it against the controller's final resume-all), so an injected
  // pause can never be left set after the last resume — no wakeup is
  // ever missed.
  std::atomic<bool> churn_active{churn != nullptr && num_peers > 1};
  std::atomic<std::uint64_t> cross_msgs{0};
  std::atomic<std::uint64_t> local_updates{0};
  std::atomic<std::uint64_t> recomputes{0};
  std::atomic<std::uint64_t> capped_discards{0};
  std::atomic<std::uint64_t> paused_holds{0};
  std::atomic<bool> capped{false};
  // Live registry handles, resolved once before the workers spawn (name
  // lookup takes the registry mutex; updates through these are lock-free
  // and hit the counters from every worker thread concurrently).
  obs::Counter* m_cross = nullptr;
  obs::Counter* m_local = nullptr;
  obs::Counter* m_recomputes = nullptr;
  obs::Counter* m_discards = nullptr;
  obs::Histogram* m_batch = nullptr;
  if (metrics_ != nullptr) {
    m_cross = &metrics_->counter("async.cross_messages");
    m_local = &metrics_->counter("async.local_updates");
    m_recomputes = &metrics_->counter("async.recomputes");
    m_discards = &metrics_->counter("async.capped_discards");
    m_batch = &metrics_->histogram("async.mail_batch_size");
  }
  std::mutex done_mu;
  std::condition_variable done_cv;

  auto release_credits = [&](std::int64_t k) {
    if (inflight.fetch_sub(k) == k) {
      const std::lock_guard lock(done_mu);
      done_cv.notify_one();
    }
  };

  const double d = options_.damping;
  const double base = 1.0 - d;

  // Per-worker recycled mail buffers (each worker owns its own pool —
  // they are not thread-safe); reuse totals feed net.pool_reuse.
  std::atomic<std::uint64_t> pool_reuses{0};
  std::atomic<std::uint64_t> pool_allocs{0};

  auto worker = [&](PeerId me) {
    std::vector<std::vector<WireUpdate>> outgoing(num_peers);
    BufferPool<WireUpdate> mail_pool;
    // `changed` collects documents needing recompute, deduplicated;
    // `work` is its double buffer — the pair swap every cascade round,
    // keeping both capacities warm.
    std::vector<NodeId> changed;
    std::vector<NodeId> work;
    std::unordered_set<NodeId> changed_set;

    auto recompute_and_send = [&](NodeId v) {
      double acc = 0.0;
      for (const EdgeId e : graph_.in_to_out_edge(v)) acc += contrib[e];
      const double newrank = base + d * acc;
      const double rel = relative_change(result.ranks[v], newrank);
      result.ranks[v] = newrank;
      recomputes.fetch_add(1, std::memory_order_relaxed);
      if (m_recomputes != nullptr) m_recomputes->add(1);
      if (rel <= options_.epsilon) return;
      const auto deg = graph_.out_degree(v);
      if (deg == 0) return;
      const double c = newrank / static_cast<double>(deg);
      for (EdgeId e = graph_.out_edge_begin(v); e < graph_.out_edge_end(v);
           ++e) {
        const PeerId pv = placement_.peer_of(graph_.out_target(e));
        outgoing[pv].push_back({e, c});
      }
    };

    auto flush_outgoing = [&]() {
      for (PeerId p = 0; p < num_peers; ++p) {
        if (outgoing[p].empty()) continue;
        if (p == me) {
          // Local deliveries: apply immediately, schedule recomputes.
          local_updates.fetch_add(outgoing[p].size(),
                                  std::memory_order_relaxed);
          if (m_local != nullptr) m_local->add(outgoing[p].size());
          for (const auto& u : outgoing[p]) {
            contrib[u.edge] = u.value;
            const NodeId v = graph_.out_target(u.edge);
            if (changed_set.insert(v).second) changed.push_back(v);
          }
        } else {
          cross_msgs.fetch_add(outgoing[p].size(),
                               std::memory_order_relaxed);
          if (m_cross != nullptr) m_cross->add(outgoing[p].size());
          inflight.fetch_add(static_cast<std::int64_t>(outgoing[p].size()));
          mailbox[p].push(outgoing[p]);
        }
        outgoing[p].clear();
      }
    };

    // Startup: Fig. 1's "first pass" — every hosted document recomputes
    // from the initial contributions and sends if it moved.
    for (const NodeId v : docs_of[me]) recompute_and_send(v);
    // Drain local cascades before releasing the startup credit.
    for (;;) {
      flush_outgoing();
      if (changed.empty()) break;
      work.clear();
      work.swap(changed);
      changed_set.clear();
      for (const NodeId v : work) recompute_and_send(v);
    }
    release_credits(1);

    // Sleep until this peer is unpaused (or the run stops). Returns true
    // if the peer was actually paused on entry.
    auto wait_while_paused = [&]() -> bool {
      if (!paused[me].load(std::memory_order_acquire)) return false;
      std::unique_lock lock(pause_mu);
      pause_cv.wait(lock, [&] {
        return !paused[me].load(std::memory_order_acquire) || stop.load();
      });
      return true;
    };

    // Message loop.
    while (!stop.load()) {
      (void)wait_while_paused();
      std::vector<WireUpdate> mail =
          mailbox[me].drain_or_stop(stop, mail_pool);
      if (mail.empty()) continue;  // stop raised
      if (test_pause_after_drain_ && test_pause_after_drain_(me)) {
        // Test seam: simulate a churn pause that landed while this thread
        // was blocked in the drain above — exactly the window the
        // post-drain gate below closes.
        const std::lock_guard lock(pause_mu);
        if (churn_active.load(std::memory_order_relaxed)) {
          paused[me].store(true, std::memory_order_release);
        }
      }
      // The pause may have landed while this thread was blocked in the
      // drain above; the pre-drain gate never saw it. A paused peer must
      // not apply updates, so hold the batch — credits retained, nothing
      // lost — until the controller resumes us.
      if (paused[me].load(std::memory_order_acquire)) {
        paused_holds.fetch_add(1, std::memory_order_relaxed);
        (void)wait_while_paused();
      }
      if (m_batch != nullptr) {
        m_batch->record(static_cast<double>(mail.size()));
      }
      if (message_cap != 0 &&
          cross_msgs.load(std::memory_order_relaxed) > message_cap) {
        // Over the cap: the batch is dropped on the floor. It was already
        // counted sent in cross_msgs when queued — tally the discard
        // separately so delivered = sent - discarded stays truthful.
        capped.store(true);
        capped_discards.fetch_add(mail.size(), std::memory_order_relaxed);
        if (m_discards != nullptr) m_discards->add(mail.size());
        release_credits(static_cast<std::int64_t>(mail.size()));
        mail_pool.release(std::move(mail));
        continue;
      }
      // Apply the whole batch, then recompute each touched document once
      // (the §4.6.1 coalesced-transfer model).
      for (const auto& u : mail) {
        contrib[u.edge] = u.value;
        const NodeId v = graph_.out_target(u.edge);
        if (changed_set.insert(v).second) changed.push_back(v);
      }
      while (!changed.empty()) {
        work.clear();
        work.swap(changed);
        changed_set.clear();
        for (const NodeId v : work) recompute_and_send(v);
        flush_outgoing();
      }
      const auto credits = static_cast<std::int64_t>(mail.size());
      mail_pool.release(std::move(mail));
      release_credits(credits);
    }
    pool_reuses.fetch_add(mail_pool.reuses(), std::memory_order_relaxed);
    pool_allocs.fetch_add(mail_pool.allocations(), std::memory_order_relaxed);
  };

  {
    std::vector<std::jthread> threads;
    threads.reserve(num_peers);
    for (PeerId p = 0; p < num_peers; ++p) threads.emplace_back(worker, p);

    // Churn controller: pause/resume random peer subsets while the
    // computation runs. All peers are guaranteed resumed when it exits.
    std::jthread controller;
    if (churn != nullptr && num_peers > 1) {
      controller = std::jthread([&, params = *churn] {
        Rng rng(params.seed ^ 0xA5B5C5ULL);
        for (std::uint32_t cycle = 0;
             cycle < params.cycles && inflight.load() != 0; ++cycle) {
          const auto count = std::max<std::uint64_t>(
              1, static_cast<std::uint64_t>(
                     params.pause_fraction * num_peers));
          const auto victims =
              rng.sample_without_replacement(num_peers, count);
          for (const auto v : victims) paused[v].store(true);
          // The async runtime runs real threads; churn downtime is real
          // elapsed time, not simulated passes — there is no pass clock
          // to consult here.
          // dprank-analyze: allow(nondet-source) -- real-thread downtime
          std::this_thread::sleep_for(
              std::chrono::microseconds(params.pause_microseconds));
          {
            // Resumes flip under pause_mu so a worker mid-predicate-check
            // cannot miss the wakeup.
            const std::lock_guard lock(pause_mu);
            for (const auto v : victims) paused[v].store(false);
          }
          pause_cv.notify_all();
          // Real inter-cycle gap, as above.
          // dprank-analyze: allow(nondet-source) -- real-thread downtime
          std::this_thread::sleep_for(
              std::chrono::microseconds(params.pause_microseconds));
        }
        {
          const std::lock_guard lock(pause_mu);
          churn_active.store(false, std::memory_order_relaxed);
          for (auto& p : paused) p.store(false);
        }
        pause_cv.notify_all();
      });
    }

    {
      std::unique_lock lock(done_mu);
      done_cv.wait(lock, [&] { return inflight.load() == 0; });
    }
    stop.store(true);
    {
      // Pair with the pause predicate so no worker sleeps through stop.
      const std::lock_guard lock(pause_mu);
    }
    pause_cv.notify_all();
    for (PeerId p = 0; p < num_peers; ++p) mailbox[p].notify();
  }  // controller and worker jthreads join here

  // End-of-run invariant walk: quiescence was detected via the credit
  // counter, so every credit must be returned, every mailbox drained,
  // and the sent/discarded ledger consistent. A violation here means the
  // credit protocol lost or double-counted a unit — exactly the class of
  // bug the counter exists to rule out.
  if (contracts::enabled()) {
    [[maybe_unused]] const char* kSub = "pagerank";
    DPRANK_INVARIANT(inflight.load() == 0, kSub,
                     "async run joined with " +
                         std::to_string(inflight.load()) +
                         " delivery credit(s) outstanding");
    for (PeerId p = 0; p < num_peers; ++p) {
      DPRANK_INVARIANT(mailbox[p].empty(), kSub,
                       "async run joined with undelivered mail for peer " +
                           std::to_string(p));
    }
    DPRANK_INVARIANT(cross_msgs.load() >= capped_discards.load(), kSub,
                     "more updates discarded by the message cap than were "
                     "ever sent cross-peer");
    DPRANK_INVARIANT(capped.load() || capped_discards.load() == 0, kSub,
                     "updates were discarded without the cap tripping");
    DPRANK_INVARIANT(num_peers == 0 || recomputes.load() >= n, kSub,
                     "startup pass skipped documents: " +
                         std::to_string(recomputes.load()) +
                         " recomputes for " + std::to_string(n) +
                         " documents");
  }

  result.cross_peer_messages = cross_msgs.load();
  result.local_updates = local_updates.load();
  result.recomputes = recomputes.load();
  result.capped_discards = capped_discards.load();
  result.paused_holds = paused_holds.load();
  result.converged = !capped.load();
  if (metrics_ != nullptr && result.paused_holds != 0) {
    metrics_->counter("async.paused_holds").add(result.paused_holds);
  }
  if (metrics_ != nullptr) {
    metrics_->counter("async.runs").add(1);
    if (result.converged) metrics_->counter("async.converged_runs").add(1);
    // Arena health of the mailbox hot path: recycled vs freshly allocated
    // drain buffers across all workers (a reuse ratio near 1 means the
    // message loop ran allocation-free after warm-up).
    metrics_->counter("net.pool_reuse").add(pool_reuses.load());
    metrics_->counter("net.pool_alloc").add(pool_allocs.load());
  }
  return result;
}

}  // namespace dprank
