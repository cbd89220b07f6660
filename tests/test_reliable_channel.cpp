// net/ transport tests: ReliableChannel's ARQ ledger, TrafficMeter
// billing, and the §4.6.1 wire sizes the meters bill.

#include "net/reliable_channel.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "net/message.hpp"
#include "net/traffic_meter.hpp"

namespace dprank {
namespace {

TEST(ReliableChannel, GiveUpOnDestIsTerminalAndDrainsOnce) {
  ReliableChannel ch;
  for (const std::uint64_t slot : {1, 2, 3}) (void)ch.next_seq(slot);
  ch.track({.slot = 1, .dest = 9, .src = 0, .value = 0.1, .seq = 1}, 0);
  ch.track({.slot = 2, .dest = 9, .src = 3, .value = 0.2, .seq = 1}, 0);
  ch.track({.slot = 3, .dest = 5, .src = 0, .value = 0.3, .seq = 1}, 0);

  const auto abandoned = ch.give_up_on_dest(9);
  ASSERT_EQ(abandoned.size(), 2u);  // slot order
  EXPECT_EQ(abandoned[0].slot, 1u);
  EXPECT_EQ(abandoned[1].slot, 2u);
  EXPECT_EQ(ch.in_flight(), 1u);  // the live destination keeps its record
  EXPECT_EQ(ch.gave_up(), 2u);

  // The same records queue for the auditor exactly once.
  const auto drained = ch.take_gave_up();
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0].slot, 1u);
  EXPECT_EQ(drained[1].slot, 2u);
  EXPECT_TRUE(ch.take_gave_up().empty());
  EXPECT_TRUE(ch.give_up_on_dest(9).empty());  // idempotent
  ch.validate();
}

TEST(ReliableChannel, ExhaustedRetryBudgetGivesUp) {
  ReliableChannel ch(ReliableChannel::Config{.ack_timeout_passes = 1,
                                             .retry_backoff_cap = 2,
                                             .max_attempts = 2});
  (void)ch.next_seq(7);
  ch.track({.slot = 7, .dest = 1, .src = 0, .value = 0.5, .seq = 1}, 0);
  std::uint64_t pass = 0;
  // Drive the retry loop as the engine does: take due, re-track with
  // attempt + 1, until the budget bites.
  while (ch.in_flight() > 0) {
    ASSERT_LT(pass, 20u);
    ++pass;
    for (auto& p : ch.take_due(pass)) {
      ++p.attempt;
      ch.track(p, pass);
    }
  }
  EXPECT_EQ(ch.gave_up(), 1u);
  const auto lost = ch.take_gave_up();
  ASSERT_EQ(lost.size(), 1u);
  EXPECT_EQ(lost[0].slot, 7u);
  EXPECT_EQ(lost[0].attempt, 2u);
  ch.validate();
}

TEST(ReliableChannel, ReassignSenderHandsRecordsToHeir) {
  ReliableChannel ch;
  for (const std::uint64_t slot : {1, 2, 3}) (void)ch.next_seq(slot);
  ch.track({.slot = 1, .dest = 5, .src = 3, .value = 0.1, .seq = 1}, 0);
  ch.track({.slot = 2, .dest = 6, .src = 3, .value = 0.2, .seq = 1}, 0);
  ch.track({.slot = 3, .dest = 5, .src = 8, .value = 0.3, .seq = 1}, 0);
  EXPECT_EQ(ch.reassign_sender(3, 4), 2u);
  EXPECT_EQ(ch.in_flight(), 3u);  // nothing lost, only re-labelled
  // The heir now owns the retransmissions; forgetting the leaver is a
  // no-op and forgetting the heir yields the moved records.
  EXPECT_TRUE(ch.forget_sender(3).empty());
  const auto heirs = ch.forget_sender(4);
  ASSERT_EQ(heirs.size(), 2u);
  EXPECT_EQ(heirs[0].slot, 1u);
  EXPECT_EQ(heirs[0].src, 4u);
  EXPECT_EQ(heirs[1].slot, 2u);
  ch.validate();
}

TEST(ReliableChannel, LedgerBalancesAcrossEveryExit) {
  ReliableChannel ch(ReliableChannel::Config{.ack_timeout_passes = 1,
                                             .retry_backoff_cap = 2,
                                             .max_attempts = 1});
  for (const std::uint64_t slot : {1, 2, 3, 4}) (void)ch.next_seq(slot);
  ch.track({.slot = 1, .dest = 1, .src = 0, .value = 0.1, .seq = 1}, 0);
  ch.ack(1, 1);  // exit: acked
  ch.track({.slot = 2, .dest = 2, .src = 6, .value = 0.2, .seq = 1}, 0);
  (void)ch.forget_sender(6);  // exit: forgotten
  ch.track({.slot = 3, .dest = 3, .src = 0, .value = 0.3, .seq = 1}, 0);
  (void)ch.give_up_on_dest(3);  // exit: gave up
  ch.track({.slot = 4, .dest = 4, .src = 0, .value = 0.4, .seq = 1}, 0);
  auto due = ch.take_due(2);  // exit: taken
  ASSERT_EQ(due.size(), 1u);
  due[0].attempt = 1;
  ch.track(due[0], 2);  // budget (1) exhausted: gave up instead of re-arm
  EXPECT_EQ(ch.gave_up(), 2u);
  EXPECT_TRUE(ch.idle());
  (void)ch.take_gave_up();
  ch.validate();  // tracked == acked + forgotten + taken + gave_up
}

TEST(ReliableChannel, SequenceNumbersRejectStaleAndDuplicates) {
  ReliableChannel ch;
  EXPECT_EQ(ch.next_seq(5), 1u);
  EXPECT_EQ(ch.next_seq(5), 2u);
  EXPECT_EQ(ch.next_seq(9), 1u);  // independent per slot
  EXPECT_TRUE(ch.accept(5, 2));
  EXPECT_FALSE(ch.accept(5, 2));  // duplicate
  EXPECT_FALSE(ch.accept(5, 1));  // stale reordered value
  EXPECT_EQ(ch.duplicates_suppressed(), 1u);
  EXPECT_EQ(ch.stale_rejected(), 1u);
  EXPECT_TRUE(ch.accept(9, 1));
}

TEST(ReliableChannel, TracksAndRetriesWithBackoff) {
  ReliableChannel ch(ReliableChannel::Config{.ack_timeout_passes = 1,
                                             .retry_backoff_cap = 4});
  ch.track({.slot = 3, .dest = 1, .src = 0, .value = 0.5, .seq = 1}, 0);
  EXPECT_EQ(ch.in_flight(), 1u);
  EXPECT_TRUE(ch.take_due(0).empty());  // not due yet
  auto due = ch.take_due(1);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_TRUE(ch.idle());  // taken out; caller decides re-track or ack
  due[0].attempt = 1;
  ch.track(due[0], 1);  // interval 2: due at pass 3
  EXPECT_TRUE(ch.take_due(2).empty());
  ASSERT_EQ(ch.take_due(3).size(), 1u);
  EXPECT_EQ(ch.retransmissions(), 2u);
}

TEST(ReliableChannel, RetryIntervalBacksOffExponentially) {
  // ack_timeout * 2^attempt passes, capped: a record tracked after
  // `attempt` retries comes due exactly `interval` passes later.
  ReliableChannel ch(ReliableChannel::Config{.ack_timeout_passes = 1,
                                             .retry_backoff_cap = 16});
  const std::pair<std::uint32_t, std::uint64_t> steps[] = {
      {0, 1}, {1, 2}, {2, 4}, {3, 8}, {4, 16}, {9, 16}};  // 9: capped
  std::uint64_t pass = 0;
  for (const auto& [attempt, interval] : steps) {
    ch.track({.slot = 3, .dest = 1, .src = 0, .value = 0.5, .seq = 1,
              .attempt = attempt},
             pass);
    EXPECT_TRUE(ch.take_due(pass + interval - 1).empty())
        << "attempt " << attempt;
    EXPECT_EQ(ch.take_due(pass + interval).size(), 1u)
        << "attempt " << attempt;
    pass += interval;
  }
}

TEST(ReliableChannel, NewerEmissionSupersedesInFlight) {
  ReliableChannel ch;
  ch.track({.slot = 3, .dest = 1, .src = 0, .value = 0.5, .seq = 1}, 0);
  ch.track({.slot = 3, .dest = 1, .src = 0, .value = 0.8, .seq = 2}, 0);
  EXPECT_EQ(ch.in_flight(), 1u);  // one record per slot: newest wins
  const auto due = ch.take_due(1);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].seq, 2u);
  EXPECT_DOUBLE_EQ(due[0].value, 0.8);
}

TEST(ReliableChannel, AckClearsUnlessNewerPending) {
  ReliableChannel ch;
  ch.track({.slot = 3, .dest = 1, .src = 0, .value = 0.5, .seq = 2}, 0);
  ch.ack(3, 1);  // stale ack: the seq-2 send is still unconfirmed
  EXPECT_EQ(ch.in_flight(), 1u);
  ch.ack(3, 2);
  EXPECT_TRUE(ch.idle());
}

TEST(ReliableChannel, ForgetSenderDropsOnlyTheirRecords) {
  ReliableChannel ch;
  ch.track({.slot = 1, .dest = 5, .src = 0, .value = 0.1, .seq = 1}, 0);
  ch.track({.slot = 2, .dest = 5, .src = 7, .value = 0.2, .seq = 1}, 0);
  ch.track({.slot = 3, .dest = 6, .src = 7, .value = 0.3, .seq = 1}, 0);
  const auto lost = ch.forget_sender(7);
  ASSERT_EQ(lost.size(), 2u);
  EXPECT_EQ(lost[0].slot, 2u);
  EXPECT_EQ(lost[1].slot, 3u);
  EXPECT_EQ(ch.in_flight(), 1u);
}

TEST(TrafficMeter, CountsMessagesAndBytes) {
  TrafficMeter m;
  m.record_message(24);
  m.record_message(24, /*hops=*/4);  // DHT-routed: 4 transmissions
  EXPECT_EQ(m.messages(), 2u);
  EXPECT_EQ(m.hop_transmissions(), 5u);
  EXPECT_EQ(m.bytes(), 24u + 4 * 24u);
}

TEST(TrafficMeter, LocalUpdatesAndResendsSeparate) {
  TrafficMeter m;
  m.record_local_update();
  m.record_resend(24);
  EXPECT_EQ(m.messages(), 0u);
  EXPECT_EQ(m.local_updates(), 1u);
  EXPECT_EQ(m.resends(), 1u);
  EXPECT_EQ(m.bytes(), 24u);
}

TEST(TrafficMeter, BulkBillingMatchesPerMessageHops) {
  // Three messages: one direct, one routed over 4 hops, one over 2. The
  // bulk form bills the same totals as the per-message calls, with hop
  // transmissions (7) distinct from messages (3).
  TrafficMeter each;
  for (const std::uint64_t hops : {1, 4, 2}) each.record_message(24, hops);
  TrafficMeter bulk;
  bulk.record_messages(/*count=*/3, /*bytes_each=*/24, /*hops=*/7);
  EXPECT_EQ(bulk.messages(), 3u);
  EXPECT_EQ(bulk.hop_transmissions(), 7u);
  EXPECT_EQ(bulk.bytes(), 7u * 24u);
  EXPECT_EQ(bulk.messages(), each.messages());
  EXPECT_EQ(bulk.hop_transmissions(), each.hop_transmissions());
  EXPECT_EQ(bulk.bytes(), each.bytes());
}

TEST(TrafficMeter, MergeAndReset) {
  TrafficMeter a;
  TrafficMeter b;
  a.record_message(10);
  b.record_message(20, 2);
  b.record_local_update();
  a.merge(b);
  EXPECT_EQ(a.messages(), 2u);
  EXPECT_EQ(a.bytes(), 10u + 40u);
  EXPECT_EQ(a.local_updates(), 1u);
  a.reset();
  EXPECT_EQ(a.messages(), 0u);
  EXPECT_EQ(a.bytes(), 0u);
}

TEST(Message, WireBytesMatchPaper) {
  // §4.6.1: "A message size of 24 bytes per message is used (128 bits for
  // GUID, 64 bits for pagerank value)."
  EXPECT_EQ(PagerankUpdate::kWireBytes, 24u);
  EXPECT_EQ(IndexRankUpdate::kWireBytes, 24u);
}

}  // namespace
}  // namespace dprank
