// The referee's blocking collection loop and the player vertex split.
//
// Two pieces under test: (1) fair_poll_slice and collect_sketch_round —
// the regression where a slow link could starve another link's ready
// frames out of the round (SlowReaderCannotStarveOtherLinks); (2)
// shard_range, the contiguous vertex blocks every player computes
// without coordination.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "graph/generators.h"
#include "protocols/zoo.h"
#include "service/player_client.h"
#include "service/session.h"

namespace ds {
namespace {

using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kCoinSeed = 2020;

graph::Graph test_graph(graph::Vertex n, std::uint64_t seed,
                        double p = 0.15) {
  util::Rng rng(seed);
  return graph::gnp(n, p, rng);
}

// ---------------------------------------------------------------------
// fair_poll_slice: the pure function.
// ---------------------------------------------------------------------

TEST(FairPollSlice, DividesTheRemainderAcrossLiveLinks) {
  EXPECT_EQ(service::fair_poll_slice(80ms, 8), 10ms);
  EXPECT_EQ(service::fair_poll_slice(100ms, 4), 20ms);  // hits the cap
  EXPECT_EQ(service::fair_poll_slice(1000ms, 2), 20ms);
}

TEST(FairPollSlice, ClampsToTheCapAndToOneMillisecond) {
  EXPECT_EQ(service::fair_poll_slice(500ms, 1), 20ms);
  EXPECT_EQ(service::fair_poll_slice(3ms, 8), 1ms);  // never a 0 busy-spin
  EXPECT_EQ(service::fair_poll_slice(0ms, 8), 0ms);
  EXPECT_EQ(service::fair_poll_slice(-5ms, 3), 0ms);
  EXPECT_EQ(service::fair_poll_slice(40ms, 0), 20ms);  // 0 links: as 1
}

// ---------------------------------------------------------------------
// The starvation regression.
// ---------------------------------------------------------------------

/// A link whose reader never produces anything and blocks for the whole
/// slice it is given — the "slow reader" of the regression.
class SlowLink final : public wire::Link {
 public:
  bool send(std::span<const std::uint8_t>) override { return true; }
  wire::RecvResult recv(std::chrono::milliseconds timeout) override {
    std::this_thread::sleep_for(timeout);
    return {};
  }
  std::size_t bytes_sent() const noexcept override { return 0; }
  std::size_t bytes_received() const noexcept override { return 0; }
};

/// A link whose message "arrives" at a fixed instant: a recv whose
/// window covers that instant delivers; earlier windows sleep out their
/// slice and time out.  recv(0) only sees it if it has already arrived
/// — exactly how poll(timeout=0) treats socket data.
class TimedDeliveryLink final : public wire::Link {
 public:
  TimedDeliveryLink(Clock::time_point available_at,
                    std::vector<std::uint8_t> message)
      : available_at_(available_at), message_(std::move(message)) {}

  bool send(std::span<const std::uint8_t>) override { return true; }

  wire::RecvResult recv(std::chrono::milliseconds timeout) override {
    ++polls_;
    if (delivered_) {
      std::this_thread::sleep_for(timeout);
      return {};
    }
    const Clock::time_point window_end = Clock::now() + timeout;
    if (window_end < available_at_) {
      std::this_thread::sleep_for(timeout);
      return {};
    }
    std::this_thread::sleep_until(available_at_);
    delivered_ = true;
    return {wire::RecvStatus::kOk, message_};
  }

  std::size_t bytes_sent() const noexcept override { return 0; }
  std::size_t bytes_received() const noexcept override {
    return delivered_ ? message_.size() : 0;
  }
  [[nodiscard]] int polls() const noexcept { return polls_; }

 private:
  Clock::time_point available_at_;
  std::vector<std::uint8_t> message_;
  bool delivered_ = false;
  int polls_ = 0;
};

TEST(CollectFairness, SlowReaderCannotStarveOtherLinks) {
  // The pre-fix loop gave every link min(remaining, 20ms): with the
  // delivering link polled FIRST in the pass and seven slow readers
  // behind it, the slow readers consumed the entire remainder (7 x 20ms
  // per pass against a short deadline), so the deliverer — whose batch
  // arrives mid-round — was polled once at t~0 and never again before
  // the deadline error.  fair_poll_slice divides the remainder by the
  // live-link count, so every pass ends with budget still on the clock
  // and the deliverer's mid-round arrival is always seen.
  const graph::Vertex n = 6;
  const protocols::AgmConnectivity protocol;
  const model::PublicCoins coins(kCoinSeed);
  const graph::Graph g = test_graph(n, 11, 0.4);
  const std::uint32_t proto = wire::protocol_id(protocol.name());

  std::vector<std::uint8_t> batch;
  for (graph::Vertex v = 0; v < n; ++v) {
    const model::VertexView view{n, v, g.neighbors(v), &coins};
    util::BitWriter w;
    protocol.encode(view, w);
    (void)service::append_sketch_frame(batch, proto, v, 0,
                                       util::BitString(w));
  }

  // 16 slow readers at the old fixed 20ms slice cost 340ms per pass —
  // past this 300ms deadline — so the pre-fix loop polled the deliverer
  // exactly once (its t~0 window, before the batch exists) and then
  // burned the whole round sleeping on the slow links: a guaranteed
  // deadline error.  With fair slices a pass costs a fraction of the
  // remainder, so pass 2 reaches the deliverer around t=200 with budget
  // to spare.  The 80ms arrival sits far from both edges (first-window
  // end ~20ms, deadline 300ms), so scheduler jitter cannot flip the
  // outcome.
  constexpr auto kTimeout = 300ms;
  const Clock::time_point available_at = Clock::now() + 80ms;

  std::vector<std::unique_ptr<wire::Link>> links;
  auto deliverer =
      std::make_unique<TimedDeliveryLink>(available_at, batch);
  TimedDeliveryLink* deliverer_view = deliverer.get();
  links.push_back(std::move(deliverer));  // polled first in every pass
  for (int i = 0; i < 16; ++i) links.push_back(std::make_unique<SlowLink>());

  const service::CollectedRound round =
      service::collect_sketch_round(links, n, proto, 0, kTimeout);

  EXPECT_EQ(round.sketches.size(), n);
  EXPECT_EQ(round.wire.frames, n);
  // The fix is visible in the poll count: the deliverer was revisited
  // after its first empty window instead of starving behind the slow
  // readers.
  EXPECT_GE(deliverer_view->polls(), 2);
}

// ---------------------------------------------------------------------
// shard_range: the players' vertex blocks.
// ---------------------------------------------------------------------

TEST(ShardRange, TilesTheVertexSpaceContiguously) {
  for (const graph::Vertex n : {1u, 7u, 16u, 97u}) {
    for (const std::size_t parts : {1u, 2u, 3u, 8u}) {
      graph::Vertex expect_lo = 0;
      for (std::size_t i = 0; i < parts; ++i) {
        const auto [lo, hi] = service::shard_range(n, parts, i);
        EXPECT_EQ(lo, expect_lo);
        EXPECT_GE(hi, lo);
        // Sizes differ by at most one across shards.
        EXPECT_LE(hi - lo, n / parts + 1);
        expect_lo = hi;
      }
      EXPECT_EQ(expect_lo, n);
    }
  }
}

TEST(ShardRange, AgreesWithPlayerShardVertices) {
  const graph::Vertex n = 23;
  for (std::size_t i = 0; i < 4; ++i) {
    const auto [lo, hi] = service::shard_range(n, 4, i);
    const std::vector<graph::Vertex> owned =
        service::shard_vertices(n, 4, i);
    ASSERT_EQ(owned.size(), static_cast<std::size_t>(hi - lo));
    if (!owned.empty()) {
      EXPECT_EQ(owned.front(), lo);
      EXPECT_EQ(owned.back(), hi - 1);
    }
  }
}

}  // namespace
}  // namespace ds
