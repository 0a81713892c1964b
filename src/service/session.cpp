#include "service/session.h"

#include <algorithm>
#include <sstream>

#include "engine/charge.h"
#include "engine/instrumentation.h"
#include "obs/obs.h"

namespace ds::service {

namespace {

using Clock = std::chrono::steady_clock;

/// Upper bound on one link's poll slice while a round is collecting:
/// long enough to avoid busy-spinning, short enough that a referee
/// multiplexing many links stays responsive on all of them.  Near the
/// deadline the slice shrinks further — see fair_poll_slice.
constexpr std::chrono::milliseconds kPollSlice{20};

std::chrono::milliseconds slice_until(Clock::time_point deadline,
                                      std::size_t live_links) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - Clock::now());
  return fair_poll_slice(left, live_links);
}

/// Session-phase counters and timings.  The per-sketch `sketch_bits`
/// histogram mirrors the model accounting exactly: count == players,
/// sum == CommStats::total_bits, max == CommStats::max_bits for a
/// one-round session (asserted by tests/audit/obs_audit_test.cpp).
struct ServiceMetrics {
  obs::Counter& rounds_collected =
      obs::counter("service.rounds_collected");
  obs::Counter& messages = obs::counter("service.messages");
  obs::Counter& frames_accepted = obs::counter("service.frames_accepted");
  obs::Counter& payload_bits = obs::counter("service.payload_bits");
  obs::Histogram& sketch_bits = obs::histogram("service.sketch_bits");
  obs::Histogram& round_payload_bits =
      obs::histogram("service.round_payload_bits");
  obs::Histogram& collect_us = obs::histogram("service.collect_us");
  obs::Counter& dead_links = obs::counter("service.dead_links");
  obs::Counter& deadline_misses = obs::counter("service.deadline_misses");
  obs::Counter& broadcasts = obs::counter("service.broadcasts");
  // Rejected frames, by reason (sum == WireStats::rejected_frames).
  obs::Counter& reject_corrupt = obs::counter("service.reject.corrupt");
  obs::Counter& reject_bad_type = obs::counter("service.reject.bad_type");
  obs::Counter& reject_bad_protocol =
      obs::counter("service.reject.bad_protocol");
  obs::Counter& reject_bad_round = obs::counter("service.reject.bad_round");
  obs::Counter& reject_bad_vertex =
      obs::counter("service.reject.bad_vertex");
  obs::Counter& reject_duplicate =
      obs::counter("service.reject.duplicate");
};

ServiceMetrics& metrics() {
  static ServiceMetrics m;
  return m;
}

/// Why a kSketch frame is unusable for (protocol_id, round, n), or
/// kAccept.  Duplicate detection stays with the caller — it depends on
/// the round's accumulation state.
enum class FrameVerdict : std::uint8_t {
  kAccept,
  kBadType,
  kBadProtocol,
  kBadRound,
  kBadVertex,
};

FrameVerdict classify_sketch_frame(const wire::FrameHeader& h,
                                   std::uint32_t protocol_id,
                                   std::uint32_t round,
                                   graph::Vertex n) noexcept {
  if (h.type != wire::FrameType::kSketch) return FrameVerdict::kBadType;
  if (h.protocol_id != protocol_id) return FrameVerdict::kBadProtocol;
  if (h.round != round) return FrameVerdict::kBadRound;
  if (h.vertex >= n) return FrameVerdict::kBadVertex;
  return FrameVerdict::kAccept;
}

}  // namespace

std::pair<graph::Vertex, graph::Vertex> shard_range(
    graph::Vertex n, std::size_t parts, std::size_t index) noexcept {
  const std::size_t base = n / parts;
  const std::size_t extra = n % parts;
  const std::size_t begin =
      index * base + std::min<std::size_t>(index, extra);
  const std::size_t size = base + (index < extra ? 1 : 0);
  return {static_cast<graph::Vertex>(begin),
          static_cast<graph::Vertex>(begin + size)};
}

std::chrono::milliseconds fair_poll_slice(std::chrono::milliseconds left,
                                          std::size_t live_links) noexcept {
  if (left.count() <= 0) return std::chrono::milliseconds(0);
  // The pre-fix bug: a fixed min(left, 20ms) slice let one slow link eat
  // the whole remainder near the deadline while another link's frames
  // sat ready.  Dividing by the live-link count makes a full pass over
  // the links consume at most the remainder it started with, so every
  // link is polled at least once more before the deadline.
  const auto share = std::chrono::milliseconds(
      left.count() / static_cast<std::int64_t>(std::max<std::size_t>(
                         live_links, 1)));
  return std::clamp(share, std::chrono::milliseconds(1), kPollSlice);
}

CollectedRound collect_sketch_round(
    std::span<const std::unique_ptr<wire::Link>> links, graph::Vertex n,
    std::uint32_t protocol_id, std::uint32_t round,
    std::chrono::milliseconds timeout) {
  const obs::ScopedSpan span("service.collect", &metrics().collect_us);
  CollectedRound result;
  result.sketches.resize(n);
  std::vector<bool> have(n, false);
  std::vector<bool> link_live(links.size(), true);
  graph::Vertex missing = n;

  const auto reject = [&result](obs::Counter& reason_counter,
                                std::string reason) {
    reason_counter.increment();
    ++result.wire.rejected_frames;
    result.rejects.push_back(std::move(reason));
  };

  const Clock::time_point deadline = Clock::now() + timeout;
  while (missing > 0) {
    const auto live = static_cast<std::size_t>(
        std::count(link_live.begin(), link_live.end(), true));
    bool any_live = false;
    for (std::size_t li = 0; li < links.size() && missing > 0; ++li) {
      if (!link_live[li]) continue;
      any_live = true;
      const wire::RecvResult msg =
          links[li]->recv(slice_until(deadline, live));
      if (msg.status == wire::RecvStatus::kTimeout) continue;
      if (msg.status != wire::RecvStatus::kOk) {
        // Links are fixed for the session, so a closed or broken one
        // stops being polled; its players' missing sketches surface at
        // the deadline.
        link_live[li] = false;
        metrics().dead_links.increment();
        continue;
      }
      ++result.wire.messages;
      metrics().messages.increment();

      wire::BatchDecode batch = wire::decode_frames(msg.message);
      if (batch.status != wire::DecodeStatus::kOk) {
        std::ostringstream os;
        os << "link " << li << ": "
           << wire::decode_status_name(batch.status) << " at byte "
           << batch.rest_offset << " of a " << msg.message.size()
           << "-byte message; dropped the rest of the message";
        reject(metrics().reject_corrupt, os.str());
      }
      for (wire::Frame& frame : batch.frames) {
        const wire::FrameHeader& h = frame.header;
        const FrameVerdict verdict =
            classify_sketch_frame(h, protocol_id, round, n);
        if (verdict == FrameVerdict::kBadType) {
          reject(metrics().reject_bad_type,
                 "unexpected frame type from a player");
          continue;
        }
        if (verdict == FrameVerdict::kBadProtocol) {
          reject(metrics().reject_bad_protocol,
                 "protocol id mismatch from vertex " +
                     std::to_string(h.vertex));
          continue;
        }
        if (verdict == FrameVerdict::kBadRound) {
          reject(metrics().reject_bad_round,
                 "round " + std::to_string(h.round) + " frame from vertex " +
                     std::to_string(h.vertex) + " during round " +
                     std::to_string(round));
          continue;
        }
        if (verdict == FrameVerdict::kBadVertex) {
          reject(metrics().reject_bad_vertex,
                 "vertex " + std::to_string(h.vertex) + " out of range");
          continue;
        }
        if (have[h.vertex]) {
          reject(metrics().reject_duplicate,
                 "duplicate sketch for vertex " + std::to_string(h.vertex));
          continue;
        }
        have[h.vertex] = true;
        --missing;
        ++result.wire.frames;
        result.wire.payload_bits += frame.payload.bit_count();
        result.wire.framing_bits +=
            wire::encoded_frame_size(h, frame.payload.bit_count()) * 8 -
            frame.payload.bit_count();
        metrics().frames_accepted.increment();
        metrics().payload_bits.add(frame.payload.bit_count());
        metrics().sketch_bits.record(frame.payload.bit_count());
        result.sketches[h.vertex] = std::move(frame.payload);
      }
    }
    if (missing == 0) break;
    if (Clock::now() >= deadline || !any_live) {
      metrics().deadline_misses.increment();
      std::ostringstream os;
      os << "round " << round << ": " << missing
         << " sketch(es) missing at the deadline (first absent vertex ";
      for (graph::Vertex v = 0; v < n; ++v) {
        if (!have[v]) {
          os << v;
          break;
        }
      }
      os << "); " << result.wire.rejected_frames << " frame(s) rejected";
      throw ServiceError(os.str());
    }
  }
  metrics().rounds_collected.increment();
  metrics().round_payload_bits.record(result.wire.payload_bits);
  return result;
}

WireStats broadcast_to_links(
    std::span<const std::unique_ptr<wire::Link>> links,
    const wire::FrameHeader& header, const util::BitString& payload) {
  const obs::ScopedSpan span("service.broadcast");
  std::vector<std::uint8_t> bytes;
  const std::size_t framing = wire::encode_frame(header, payload, bytes);
  WireStats stats;
  for (const std::unique_ptr<wire::Link>& link : links) {
    if (!link->send(bytes)) {
      throw ServiceError("broadcast failed: a player link is gone");
    }
    ++stats.frames;
    ++stats.messages;
    stats.payload_bits += payload.bit_count();
    stats.framing_bits += framing;
    metrics().broadcasts.increment();
  }
  return stats;
}

std::size_t append_sketch_frame(std::vector<std::uint8_t>& batch,
                                std::uint32_t protocol_id,
                                graph::Vertex vertex, std::uint32_t round,
                                const util::BitString& payload) {
  const wire::FrameHeader header{wire::FrameType::kSketch, protocol_id,
                                 vertex, round};
  return wire::encode_frame(header, payload, batch);
}

wire::Frame await_referee_frame(wire::Link& link,
                                wire::FrameType expected_type,
                                std::uint32_t protocol_id,
                                std::chrono::milliseconds timeout) {
  const Clock::time_point deadline = Clock::now() + timeout;
  while (Clock::now() < deadline) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    const wire::RecvResult msg =
        link.recv(std::max(left, std::chrono::milliseconds(1)));
    if (msg.status == wire::RecvStatus::kTimeout) continue;
    if (msg.status != wire::RecvStatus::kOk) {
      throw ServiceError("referee link lost while awaiting a response");
    }
    wire::BatchDecode batch = wire::decode_frames(msg.message);
    if (batch.status != wire::DecodeStatus::kOk) {
      throw ServiceError(std::string("corrupt referee message: ") +
                         std::string(wire::decode_status_name(batch.status)));
    }
    for (wire::Frame& frame : batch.frames) {
      if (frame.header.type == expected_type &&
          frame.header.protocol_id == protocol_id) {
        return std::move(frame);
      }
    }
  }
  throw ServiceError("timed out awaiting the referee's response");
}

model::CommStats comm_from_sketches(
    std::span<const util::BitString> sketches) {
  // Delegates to the engine's single charging site so wire accounting can
  // never drift from the simulated runners (docs/ENGINE.md).
  engine::ChargeSheet sheet(sketches.size());
  engine::PlainInstrumentation plain;
  return sheet.charge_round(sketches, plain);
}

}  // namespace ds::service
