#include "cluster/message.hpp"

#include <stdexcept>

#include "compress/crc32.hpp"

namespace cluster {
namespace {

void write_job_submit(ByteWriter& w, const JobSubmitMsg& j) {
  w.u32(j.client);
  w.u64(j.request_id);
  w.u8(j.priority);
  w.u64(static_cast<std::uint64_t>(j.timeout_ns));
  w.u8(j.check);
  w.str(j.function);
  w.bytes(j.payload);
}

JobSubmitMsg read_job_submit(ByteReader& r) {
  JobSubmitMsg j;
  j.client = r.u32();
  j.request_id = r.u64();
  j.priority = r.u8();
  j.timeout_ns = static_cast<std::int64_t>(r.u64());
  j.check = r.u8();
  j.function = r.str();
  j.payload = r.bytes();
  return j;
}

/// Body serialization (everything after the envelope).
std::vector<std::uint8_t> encode_body(const Message& msg) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(msg.type));
  switch (msg.type) {
    case MsgType::kJobSubmit:
      write_job_submit(w, msg.job_submit);
      break;
    case MsgType::kJobDone:
      w.u64(msg.job_done.request_id);
      w.u32(msg.job_done.error);
      w.u64(msg.job_done.races);
      w.u8(msg.job_done.flags);
      w.bytes(msg.job_done.payload);
      break;
    case MsgType::kStatsQuery:
      w.u32(msg.stats_query.client);
      w.u64(msg.stats_query.request_id);
      break;
    case MsgType::kStatsReply:
      w.u64(msg.stats_reply.request_id);
      w.str(msg.stats_reply.text);
      break;
    case MsgType::kRejuvenate:
      w.u32(msg.rejuv.client);
      w.u64(msg.rejuv.request_id);
      w.u32(msg.rejuv.target);
      break;
    case MsgType::kPing:
    case MsgType::kPong:
      w.u32(msg.ping.from);
      w.u64(msg.ping.token);
      break;
    case MsgType::kJobSteal:
      w.u32(msg.job_steal.thief);
      w.u64(msg.job_steal.token);
      w.u8(msg.job_steal.priority);
      w.u32(msg.job_steal.max_jobs);
      break;
    case MsgType::kJobMigrate:
      w.u32(msg.job_migrate.from);
      w.u64(msg.job_migrate.token);
      w.u32(static_cast<std::uint32_t>(msg.job_migrate.jobs.size()));
      for (const JobSubmitMsg& j : msg.job_migrate.jobs) write_job_submit(w, j);
      break;
    case MsgType::kMeshGossip:
      w.u32(msg.gossip.from);
      w.u32(static_cast<std::uint32_t>(msg.gossip.entries.size()));
      for (const MeshGossipEntry& e : msg.gossip.entries) {
        w.u32(e.client);
        w.u64(e.request_id);
        w.bytes(e.frame);
      }
      break;
    case MsgType::kJobStarted:
      w.u32(msg.job_started.node);
      w.u64(msg.job_started.request_id);
      break;
  }
  return w.take();
}

/// Body parser; throws (ByteReader truncation, unknown type) — callers map
/// every throw to an ANAHY-F004 rejection.
Message decode_body(std::span<const std::uint8_t> body) {
  ByteReader r(body);
  Message msg;
  msg.type = static_cast<MsgType>(r.u8());
  switch (msg.type) {
    case MsgType::kJobSubmit:
      msg.job_submit = read_job_submit(r);
      break;
    case MsgType::kJobDone:
      msg.job_done.request_id = r.u64();
      msg.job_done.error = r.u32();
      msg.job_done.races = r.u64();
      msg.job_done.flags = r.u8();
      msg.job_done.payload = r.bytes();
      break;
    case MsgType::kStatsQuery:
      msg.stats_query.client = r.u32();
      msg.stats_query.request_id = r.u64();
      break;
    case MsgType::kStatsReply:
      msg.stats_reply.request_id = r.u64();
      msg.stats_reply.text = r.str();
      break;
    case MsgType::kRejuvenate:
      msg.rejuv.client = r.u32();
      msg.rejuv.request_id = r.u64();
      msg.rejuv.target = r.u32();
      break;
    case MsgType::kPing:
    case MsgType::kPong:
      msg.ping.from = r.u32();
      msg.ping.token = r.u64();
      break;
    case MsgType::kJobSteal:
      msg.job_steal.thief = r.u32();
      msg.job_steal.token = r.u64();
      msg.job_steal.priority = r.u8();
      msg.job_steal.max_jobs = r.u32();
      break;
    case MsgType::kJobMigrate: {
      msg.job_migrate.from = r.u32();
      msg.job_migrate.token = r.u64();
      // No reserve() on the wire-supplied count: a corrupt frame must hit a
      // ByteReader truncation throw, not a huge allocation.
      const std::uint32_t n = r.u32();
      for (std::uint32_t i = 0; i < n; ++i)
        msg.job_migrate.jobs.push_back(read_job_submit(r));
      break;
    }
    case MsgType::kMeshGossip: {
      msg.gossip.from = r.u32();
      const std::uint32_t n = r.u32();
      for (std::uint32_t i = 0; i < n; ++i) {
        MeshGossipEntry e;
        e.client = r.u32();
        e.request_id = r.u64();
        e.frame = r.bytes();
        msg.gossip.entries.push_back(std::move(e));
      }
      break;
    }
    case MsgType::kJobStarted:
      msg.job_started.node = r.u32();
      msg.job_started.request_id = r.u64();
      break;
    default:
      throw std::runtime_error("unknown cluster message type");
  }
  if (!r.exhausted()) throw std::runtime_error("trailing bytes in frame");
  return msg;
}

DecodeResult reject(const char* code, const std::string& detail) {
  DecodeResult out;
  out.ok = false;
  out.diagnostic = std::string(code) + ": " + detail;
  return out;
}

}  // namespace

std::vector<std::uint8_t> encode(const Message& msg) {
  const std::vector<std::uint8_t> body = encode_body(msg);
  ByteWriter w;
  w.u16(kFrameMagic);
  w.u8(kFrameVersion);
  w.u32(static_cast<std::uint32_t>(body.size()));
  w.u32(compress::crc32(body));
  std::vector<std::uint8_t> frame = w.take();
  frame.insert(frame.end(), body.begin(), body.end());
  return frame;
}

DecodeResult decode_frame(std::span<const std::uint8_t> frame) noexcept {
  try {
    if (frame.size() < kFrameHeaderBytes)
      return reject(frame_diag::kTruncated,
                    "frame shorter than the " +
                        std::to_string(kFrameHeaderBytes) +
                        "-byte envelope (" + std::to_string(frame.size()) +
                        " bytes)");
    ByteReader r(frame);
    const std::uint16_t magic = r.u16();
    if (magic != kFrameMagic)
      return reject(frame_diag::kBadMagic,
                    "bad magic " + std::to_string(magic) +
                        " (not an anahy frame)");
    const std::uint8_t version = r.u8();
    if (version != kFrameVersion)
      return reject(frame_diag::kVersion,
                    "unsupported protocol version " + std::to_string(version));
    const std::uint32_t len = r.u32();
    const std::uint32_t crc = r.u32();
    if (len != frame.size() - kFrameHeaderBytes)
      return reject(frame_diag::kTruncated,
                    "envelope says " + std::to_string(len) +
                        " body byte(s), frame carries " +
                        std::to_string(frame.size() - kFrameHeaderBytes));
    const auto body = frame.subspan(kFrameHeaderBytes);
    if (compress::crc32(body) != crc)
      return reject(frame_diag::kChecksum, "CRC-32 mismatch over " +
                                               std::to_string(len) +
                                               " body byte(s)");
    DecodeResult out;
    out.msg = decode_body(body);
    out.ok = true;
    return out;
  } catch (const std::exception& e) {
    return reject(frame_diag::kMalformed, e.what());
  } catch (...) {
    return reject(frame_diag::kMalformed, "unparseable frame body");
  }
}

Message decode(std::span<const std::uint8_t> frame) {
  DecodeResult r = decode_frame(frame);
  if (!r.ok) throw std::runtime_error(r.diagnostic);
  return std::move(r.msg);
}

Message make_job_submit(std::uint32_t client, std::uint64_t request_id,
                        std::uint8_t priority, std::int64_t timeout_ns,
                        bool check, std::string function,
                        std::vector<std::uint8_t> payload) {
  Message m;
  m.type = MsgType::kJobSubmit;
  m.job_submit = {client,         request_id, priority,
                  timeout_ns,     check ? std::uint8_t{1} : std::uint8_t{0},
                  std::move(function), std::move(payload)};
  return m;
}

Message make_job_done(std::uint64_t request_id, std::uint32_t error,
                      std::uint64_t races, std::vector<std::uint8_t> payload,
                      std::uint8_t flags) {
  Message m;
  m.type = MsgType::kJobDone;
  m.job_done = {request_id, error, races, flags, std::move(payload)};
  return m;
}

Message make_stats_query(std::uint32_t client, std::uint64_t request_id) {
  Message m;
  m.type = MsgType::kStatsQuery;
  m.stats_query = {client, request_id};
  return m;
}

Message make_stats_reply(std::uint64_t request_id, std::string text) {
  Message m;
  m.type = MsgType::kStatsReply;
  m.stats_reply = {request_id, std::move(text)};
  return m;
}

Message make_rejuvenate(std::uint32_t client, std::uint64_t request_id,
                        std::uint32_t target) {
  Message m;
  m.type = MsgType::kRejuvenate;
  m.rejuv = {client, request_id, target};
  return m;
}

Message make_ping(std::uint32_t from, std::uint64_t token) {
  Message m;
  m.type = MsgType::kPing;
  m.ping = {from, token};
  return m;
}

Message make_pong(std::uint32_t from, std::uint64_t token) {
  Message m;
  m.type = MsgType::kPong;
  m.ping = {from, token};
  return m;
}

Message make_job_steal(std::uint32_t thief, std::uint64_t token,
                       std::uint8_t priority, std::uint32_t max_jobs) {
  Message m;
  m.type = MsgType::kJobSteal;
  m.job_steal = {thief, token, priority, max_jobs};
  return m;
}

Message make_job_migrate(std::uint32_t from, std::uint64_t token,
                         std::vector<JobSubmitMsg> jobs) {
  Message m;
  m.type = MsgType::kJobMigrate;
  m.job_migrate = {from, token, std::move(jobs)};
  return m;
}

Message make_mesh_gossip(std::uint32_t from,
                         std::vector<MeshGossipEntry> entries) {
  Message m;
  m.type = MsgType::kMeshGossip;
  m.gossip = {from, std::move(entries)};
  return m;
}

Message make_job_started(std::uint32_t node, std::uint64_t request_id) {
  Message m;
  m.type = MsgType::kJobStarted;
  m.job_started = {node, request_id};
  return m;
}

}  // namespace cluster
