// Cluster wire protocol: the frames serve clients, mesh routers and mesh
// nodes exchange to submit jobs, return results, pull telemetry and move
// queued jobs between nodes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/serialize.hpp"

namespace cluster {

enum class MsgType : std::uint8_t {
  // Bytes 1-5 belonged to the retired task-shipping protocol: never reuse.
  kJobSubmit = 6,  ///< client -> serve front-end: run a registered fn
  kJobDone = 7,    ///< serve front-end -> client: the job resolved
  kStatsQuery = 8,  ///< client -> serve front-end: telemetry exposition?
  kStatsReply = 9,  ///< serve front-end -> client: the exposition text
  kPing = 10,  ///< liveness probe (serve front-end -> client with work)
  kPong = 11,  ///< liveness answer, echoing the probe token
  kRejuvenate = 12,  ///< operator -> serve front-end: run a rejuv cycle
  kJobSteal = 13,    ///< idle mesh node -> loaded peer: offer me queued jobs
  kJobMigrate = 14,  ///< steal grant: queued jobs change owner (may be empty)
  kMeshGossip = 15,  ///< mesh node -> peers: done-cache replication entries
  kJobStarted = 16,  ///< mesh node -> router: the job body is about to run
};

/// A serve-layer job submission: function by name (see Registry) plus
/// the scheduling metadata of anahy::serve::JobSpec. `client`/`request_id`
/// say where and under which correlation id the kJobDone reply goes.
struct JobSubmitMsg {
  std::uint32_t client = 0;
  std::uint64_t request_id = 0;
  std::uint8_t priority = 1;      ///< anahy::Priority value
  std::int64_t timeout_ns = -1;   ///< relative timeout; negative = none
  std::uint8_t check = 0;         ///< run the determinacy-race detector
  std::string function;
  std::vector<std::uint8_t> payload;
};

/// kJobDone flag bits. kWithdrawn is the mesh start-fence certificate
/// (docs/MESH.md): the node *refused to run* the body — either the
/// kJobStarted mark could not be delivered or the router had been silent
/// past the fence window — so the router may reassign the key elsewhere
/// with no double-execution risk. Withdrawn entries never enter gossip.
inline constexpr std::uint8_t kJobDoneWithdrawn = 0x01;

/// Resolution of a submitted job. `error` is the anahy::Error numbering
/// (kOk / kOverloaded / kTimedOut / kAborted / kPerm / kInvalid); `races`
/// counts the ANAHY-R001 reports attributed to the job (check jobs only).
struct JobDoneMsg {
  std::uint64_t request_id = 0;
  std::uint32_t error = 0;
  std::uint64_t races = 0;
  std::uint8_t flags = 0;             ///< kJobDoneWithdrawn et al.
  std::vector<std::uint8_t> payload;  ///< result bytes (kOk only)
};

/// Telemetry pull: asks a serve front-end for its current observability
/// exposition (JobServer::observe_text — per-VP counters, derived gauges,
/// ANAHY-Pxxx anomaly flags and /metrics counters as one text document).
struct StatsQueryMsg {
  std::uint32_t client = 0;       ///< where the kStatsReply goes
  std::uint64_t request_id = 0;   ///< correlation id echoed in the reply
};

struct StatsReplyMsg {
  std::uint64_t request_id = 0;
  std::string text;  ///< Prometheus-style exposition (UTF-8)
};

/// Operator command: run one online rejuvenation cycle on the receiving
/// serve front-end (JobServer::rejuvenate — reap stranded tasks, trim the
/// pool cache, rolling-restart the worker VPs; docs/REJUV.md). The reply
/// reuses kStatsReply: `request_id` echoed, `text` carrying the cycle
/// report, so the same retry/dedup machinery as telemetry pulls applies
/// (rejuvenation is idempotent — a retried command just cycles again).
///
/// `target` addresses a specific mesh node: a front-end receiving a
/// kRejuvenate whose target is another node id forwards the frame there
/// verbatim, so an operator reaches any node through whichever node its
/// transport happens to land on (anahy-aging --rejuvenate --node=N).
inline constexpr std::uint32_t kRejuvTargetSelf = 0xFFFFFFFFu;

struct RejuvenateMsg {
  std::uint32_t client = 0;      ///< where the kStatsReply goes
  std::uint64_t request_id = 0;  ///< correlation id echoed in the reply
  std::uint32_t target = kRejuvTargetSelf;  ///< node to cycle; self if unset
};

/// Liveness probe. The serve front-end pings every client that has work in
/// flight; a client that stops answering is declared dead and its jobs are
/// cancelled (docs/FAULT.md). `from` is the sender's node id; the pong
/// echoes `token` so stale answers are distinguishable.
struct PingMsg {
  std::uint32_t from = 0;
  std::uint64_t token = 0;
};

/// Steal probe (docs/MESH.md): an idle mesh node asks a loaded peer for
/// queued — never started — jobs of one class. The peer always answers
/// with a kJobMigrate carrying `token`, possibly with zero jobs, so the
/// thief can bound outstanding probes without timers.
struct JobStealMsg {
  std::uint32_t thief = 0;     ///< node id the kJobMigrate grant goes to
  std::uint64_t token = 0;     ///< correlation id echoed by the grant
  std::uint8_t priority = 2;   ///< anahy::Priority class being asked for
  std::uint32_t max_jobs = 1;  ///< upper bound on jobs per grant
};

/// Steal grant: queued jobs change owner. Each entry is a full
/// JobSubmitMsg — original (client, request_id) preserved, so the thief's
/// kJobDone replies go straight back to the submitting router/client and
/// the cluster-wide dedup key stays stable across the handoff.
struct JobMigrateMsg {
  std::uint32_t from = 0;   ///< granting (victim) node id
  std::uint64_t token = 0;  ///< echoes JobStealMsg::token
  std::vector<JobSubmitMsg> jobs;  ///< empty = negative grant
};

/// One replicated done-cache entry: the encoded kJobDone frame a node
/// recorded for (client, request_id), replayable verbatim by any peer
/// that receives a retried submit for the same key.
struct MeshGossipEntry {
  std::uint32_t client = 0;
  std::uint64_t request_id = 0;
  std::vector<std::uint8_t> frame;  ///< encoded kJobDone frame
};

/// Done-cache replication (docs/MESH.md): sent eagerly on completion and
/// batched on heartbeats so exactly-once survives a node handoff — a
/// retried or re-routed submit is answered from the replica instead of
/// re-executing the body.
struct MeshGossipMsg {
  std::uint32_t from = 0;
  std::vector<MeshGossipEntry> entries;
};

/// Start-mark (docs/MESH.md): sent by a mesh node to the submitting
/// router immediately *before* the job body runs. A router only re-routes
/// keys of a reaped node that never produced a start-mark; marked keys
/// wait for the victim's done-cache (heal) or resolve kUnreachable.
struct JobStartedMsg {
  std::uint32_t node = 0;        ///< executing mesh node id
  std::uint64_t request_id = 0;  ///< the submit's correlation id
};

/// Tagged union of everything that can arrive at a node. The default type
/// byte 0 names no message, so decoding an encoded default is rejected.
struct Message {
  MsgType type{};
  JobSubmitMsg job_submit;
  JobDoneMsg job_done;
  StatsQueryMsg stats_query;
  StatsReplyMsg stats_reply;
  RejuvenateMsg rejuv;
  PingMsg ping;  ///< kPing and kPong share the shape
  JobStealMsg job_steal;
  JobMigrateMsg job_migrate;
  MeshGossipMsg gossip;
  JobStartedMsg job_started;
};

// ---------------------------------------------------------------------------
// Hardened frame format (docs/FAULT.md). Every encoded frame starts with an
// 11-byte envelope the decoder validates before touching the body:
//
//   u16 magic 0xA4A1   u8 version   u32 body length   u32 CRC-32 of body
//
// so bit corruption, truncation, splicing and foreign bytes are detected
// deterministically instead of being parsed into garbage. Rejections carry
// stable ANAHY-F00x diagnostics:
//
//   ANAHY-F001  bad magic (not an anahy frame / header corrupted)
//   ANAHY-F002  truncated envelope or body-length mismatch
//   ANAHY-F003  checksum mismatch (payload corrupted in flight)
//   ANAHY-F004  malformed body (truncated field, unknown type, trailing)
//   ANAHY-F005  unsupported protocol version
inline constexpr std::uint16_t kFrameMagic = 0xA4A1;
inline constexpr std::uint8_t kFrameVersion = 1;
inline constexpr std::size_t kFrameHeaderBytes = 11;

namespace frame_diag {
inline constexpr const char* kBadMagic = "ANAHY-F001";
inline constexpr const char* kTruncated = "ANAHY-F002";
inline constexpr const char* kChecksum = "ANAHY-F003";
inline constexpr const char* kMalformed = "ANAHY-F004";
inline constexpr const char* kVersion = "ANAHY-F005";
}  // namespace frame_diag

/// Outcome of decoding one wire frame. When `!ok`, `msg` is untouched
/// default state and `diagnostic` is "ANAHY-F00x: detail".
struct DecodeResult {
  bool ok = false;
  Message msg;
  std::string diagnostic;
};

/// Frame (de)serialization. Frames are self-contained byte vectors
/// carrying the hardened envelope above.
[[nodiscard]] std::vector<std::uint8_t> encode(const Message& msg);

/// Total-function decoder: never throws, never reads out of bounds.
/// Malformed input of any shape yields a rejection with a diagnostic.
[[nodiscard]] DecodeResult decode_frame(
    std::span<const std::uint8_t> frame) noexcept;

/// Throwing convenience wrapper over decode_frame (std::runtime_error with
/// the diagnostic as message). Prefer decode_frame on receive paths: a pump
/// thread must drop a bad frame, not die.
[[nodiscard]] Message decode(std::span<const std::uint8_t> frame);

[[nodiscard]] Message make_job_submit(std::uint32_t client,
                                      std::uint64_t request_id,
                                      std::uint8_t priority,
                                      std::int64_t timeout_ns, bool check,
                                      std::string function,
                                      std::vector<std::uint8_t> payload);
[[nodiscard]] Message make_job_done(std::uint64_t request_id,
                                    std::uint32_t error, std::uint64_t races,
                                    std::vector<std::uint8_t> payload,
                                    std::uint8_t flags = 0);
[[nodiscard]] Message make_stats_query(std::uint32_t client,
                                       std::uint64_t request_id);
[[nodiscard]] Message make_stats_reply(std::uint64_t request_id,
                                       std::string text);
[[nodiscard]] Message make_rejuvenate(std::uint32_t client,
                                      std::uint64_t request_id,
                                      std::uint32_t target = kRejuvTargetSelf);
[[nodiscard]] Message make_ping(std::uint32_t from, std::uint64_t token);
[[nodiscard]] Message make_pong(std::uint32_t from, std::uint64_t token);
[[nodiscard]] Message make_job_steal(std::uint32_t thief, std::uint64_t token,
                                     std::uint8_t priority,
                                     std::uint32_t max_jobs);
[[nodiscard]] Message make_job_migrate(std::uint32_t from, std::uint64_t token,
                                       std::vector<JobSubmitMsg> jobs);
[[nodiscard]] Message make_mesh_gossip(std::uint32_t from,
                                       std::vector<MeshGossipEntry> entries);
[[nodiscard]] Message make_job_started(std::uint32_t node,
                                       std::uint64_t request_id);

}  // namespace cluster
