// Wire-session vocabulary shared by the referee service and the player
// client: separated byte accounting, the round-collection core, and the
// failure type.
//
// Accounting contract (docs/WIRE.md): WireStats::payload_bits counts
// exactly the bits the model charges — BitWriter::bit_count() of each
// sketch or broadcast — and must match model::CommStats bit for bit (the
// audit cross-check in tests/audit/wire_audit_test.cpp enforces this for
// the whole protocol zoo).  framing_bits is everything else the frame
// codec adds (headers, byte-rounding padding, CRC); transport prefixes on
// top of that are visible via Link::bytes_sent/received.  The three
// layers never mix.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "model/protocol.h"
#include "util/bitio.h"
#include "wire/frame.h"
#include "wire/transport.h"

namespace ds::service {

/// A session that cannot complete: missing sketches at the round
/// deadline, a dead link, or a referee response that never arrived.
/// (Corrupt frames alone never raise this — they are rejected and
/// counted, and the sender may retransmit within the deadline.)
class ServiceError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Frame-level byte accounting for one direction of a session.
struct WireStats {
  std::size_t frames = 0;
  std::size_t messages = 0;
  std::size_t payload_bits = 0;  // model bits, == CommStats totals
  std::size_t framing_bits = 0;  // header + padding + CRC, never model bits
  std::size_t rejected_frames = 0;

  [[nodiscard]] std::size_t wire_bits() const noexcept {
    return payload_bits + framing_bits;
  }
  void merge(const WireStats& other) noexcept {
    frames += other.frames;
    messages += other.messages;
    payload_bits += other.payload_bits;
    framing_bits += other.framing_bits;
    rejected_frames += other.rejected_frames;
  }
};

/// One fully collected sketch round.
struct CollectedRound {
  std::vector<util::BitString> sketches;  // indexed by vertex, all present
  WireStats wire;
  std::vector<std::string> rejects;  // one diagnostic per rejected frame
};

/// Contiguous vertex block [first, second) owned by player `index` of
/// `parts`: the one split formula behind shard_vertices, so every player
/// process computes the same layout without coordination.
[[nodiscard]] std::pair<graph::Vertex, graph::Vertex> shard_range(
    graph::Vertex n, std::size_t parts, std::size_t index) noexcept;

/// The per-link poll slice while `left` remains to the round deadline and
/// `live_links` links are still being polled.  Dividing the remainder by
/// the live-link count bounds how long any one slow link can be waited on
/// before every other link is polled again: from any instant, a full
/// pass over the links consumes at most the current remainder, so no
/// link starves at the deadline behind a slow reader (regression:
/// tests/service/session_test.cpp SlowReaderCannotStarveOtherLinks).
[[nodiscard]] std::chrono::milliseconds fair_poll_slice(
    std::chrono::milliseconds left, std::size_t live_links) noexcept;

/// Gather exactly one kSketch frame per vertex for `round` from `links`
/// (players may be spread over the links arbitrarily and batched many
/// frames per message).  Rejected frames — corrupt bytes, wrong protocol
/// or round, out-of-range or duplicate vertex — are recorded and skipped;
/// the sender can retransmit until `timeout`.  Throws ServiceError if any
/// vertex is still missing at the deadline.
[[nodiscard]] CollectedRound collect_sketch_round(
    std::span<const std::unique_ptr<wire::Link>> links, graph::Vertex n,
    std::uint32_t protocol_id, std::uint32_t round,
    std::chrono::milliseconds timeout);

/// Send one referee frame (kBroadcast or kResult) to every link.
/// Returns the per-link stats (payload counted once per link sent to).
WireStats broadcast_to_links(
    std::span<const std::unique_ptr<wire::Link>> links,
    const wire::FrameHeader& header, const util::BitString& payload);

/// Append one sketch frame to a player's outgoing batch; returns framing
/// bits added.  `batch` is sent as a single Link message.
std::size_t append_sketch_frame(std::vector<std::uint8_t>& batch,
                                std::uint32_t protocol_id,
                                graph::Vertex vertex, std::uint32_t round,
                                const util::BitString& payload);

/// Player side: wait for the referee frame of `expected_type` for
/// `protocol_id` (skipping anything else), or throw ServiceError on
/// timeout / closed link / corrupt referee message.
[[nodiscard]] wire::Frame await_referee_frame(
    wire::Link& link, wire::FrameType expected_type,
    std::uint32_t protocol_id, std::chrono::milliseconds timeout);

/// CommStats over one round of wire sketches, recorded in vertex order —
/// the exact sequence the simulated runner charges.
[[nodiscard]] model::CommStats comm_from_sketches(
    std::span<const util::BitString> sketches);

}  // namespace ds::service
