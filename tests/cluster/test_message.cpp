#include "cluster/message.hpp"

#include <gtest/gtest.h>

#include "anahy/types.hpp"
#include "compress/crc32.hpp"

namespace {

using namespace cluster;

/// A validly enveloped frame around an arbitrary body, so tests can put
/// bytes on the wire that encode() would never produce.
std::vector<std::uint8_t> enveloped(const std::vector<std::uint8_t>& body) {
  ByteWriter w;
  w.u16(kFrameMagic);
  w.u8(kFrameVersion);
  w.u32(static_cast<std::uint32_t>(body.size()));
  w.u32(compress::crc32(body));
  std::vector<std::uint8_t> frame = w.take();
  frame.insert(frame.end(), body.begin(), body.end());
  return frame;
}

TEST(Message, JobSubmitRoundTrip) {
  const std::vector<std::uint8_t> payload = {9, 8, 7};
  const Message m = make_job_submit(3, 42, /*priority=*/2,
                                    /*timeout_ns=*/5'000, /*check=*/true,
                                    "compress_chunk", payload);
  const Message d = decode(encode(m));
  EXPECT_EQ(d.type, MsgType::kJobSubmit);
  EXPECT_EQ(d.job_submit.client, 3u);
  EXPECT_EQ(d.job_submit.request_id, 42u);
  EXPECT_EQ(d.job_submit.priority, 2);
  EXPECT_EQ(d.job_submit.timeout_ns, 5'000);
  EXPECT_EQ(d.job_submit.check, 1);
  EXPECT_EQ(d.job_submit.function, "compress_chunk");
  EXPECT_EQ(d.job_submit.payload, payload);
}

TEST(Message, ResultRoundTripOkAndError) {
  const Message ok = decode(encode(make_job_done(7, anahy::kOk, 0, {1, 2})));
  EXPECT_EQ(ok.type, MsgType::kJobDone);
  EXPECT_EQ(ok.job_done.error, static_cast<std::uint32_t>(anahy::kOk));
  EXPECT_EQ(ok.job_done.request_id, 7u);
  EXPECT_EQ(ok.job_done.payload, (std::vector<std::uint8_t>{1, 2}));

  const std::string error = "unregistered function";
  const Message bad = decode(encode(make_job_done(
      8, anahy::kInvalid, 0, {error.begin(), error.end()})));
  EXPECT_EQ(bad.job_done.error, static_cast<std::uint32_t>(anahy::kInvalid));
  EXPECT_EQ(
      std::string(bad.job_done.payload.begin(), bad.job_done.payload.end()),
      error);
}

TEST(Message, StatsQueryRoundTrip) {
  const Message d = decode(encode(make_stats_query(4, 99)));
  EXPECT_EQ(d.type, MsgType::kStatsQuery);
  EXPECT_EQ(d.stats_query.client, 4u);
  EXPECT_EQ(d.stats_query.request_id, 99u);
}

TEST(Message, StatsReplyRoundTrip) {
  const std::string text =
      "anahy_observe_epoch 3\nanahy_observe_anomaly{code=\"ANAHY-P001\"} 1\n";
  const Message d = decode(encode(make_stats_reply(99, text)));
  EXPECT_EQ(d.type, MsgType::kStatsReply);
  EXPECT_EQ(d.stats_reply.request_id, 99u);
  EXPECT_EQ(d.stats_reply.text, text);

  const Message empty = decode(encode(make_stats_reply(1, "")));
  EXPECT_TRUE(empty.stats_reply.text.empty());
}

TEST(Message, RejectsTruncatedStatsReply) {
  auto frame = encode(make_stats_reply(7, "some exposition text"));
  frame.resize(frame.size() - 5);
  EXPECT_THROW((void)decode(frame), std::runtime_error);
}

TEST(Message, RejectsUnknownType) {
  const std::vector<std::uint8_t> junk = {99};
  EXPECT_THROW((void)decode(junk), std::runtime_error);
  // Type bytes 1-5 (the retired task-shipping frames) and unassigned ones
  // are malformed bodies even inside an intact envelope.
  for (const int type : {0, 1, 2, 3, 4, 5, 17, 99}) {
    const auto d = decode_frame(enveloped({static_cast<std::uint8_t>(type)}));
    ASSERT_FALSE(d.ok) << type;
    EXPECT_EQ(d.diagnostic.rfind(frame_diag::kMalformed, 0), 0u)
        << d.diagnostic;
  }
  // The helper's envelope is byte-for-byte the one encode() writes.
  const auto real = encode(make_stats_query(1, 2));
  EXPECT_EQ(enveloped({real.begin() + kFrameHeaderBytes, real.end()}), real);
}

TEST(Message, RejectsTrailingGarbage) {
  auto frame = encode(make_stats_query(1, 2));
  frame.push_back(0xFF);
  EXPECT_THROW((void)decode(frame), std::runtime_error);
}

TEST(Message, RejectsTruncatedJobSubmit) {
  auto frame = encode(make_job_submit(1, 2, 1, -1, false, "fn", {1, 2, 3, 4}));
  frame.resize(frame.size() - 3);
  EXPECT_THROW((void)decode(frame), std::runtime_error);
}

TEST(Message, EmptyPayloadIsLegal) {
  const Message d =
      decode(encode(make_job_submit(0, 1, 1, -1, false, "noop", {})));
  EXPECT_TRUE(d.job_submit.payload.empty());
}

// --- Hardened envelope: magic + version + length + CRC-32 ------------------

TEST(Message, FrameCarriesTheMagicBytes) {
  const auto frame = encode(make_stats_query(1, 2));
  ASSERT_GE(frame.size(), kFrameHeaderBytes);
  // Little-endian u16 0xA4A1.
  EXPECT_EQ(frame[0], 0xA1);
  EXPECT_EQ(frame[1], 0xA4);
  EXPECT_EQ(frame[2], kFrameVersion);
}

TEST(Message, BitCorruptionTripsTheChecksum) {
  // Flip every single bit of the body in turn: CRC-32 must catch each one
  // (single-bit flips are its bread and butter).
  const auto clean =
      encode(make_job_submit(1, 2, 1, -1, false, "fn", {1, 2, 3}));
  for (std::size_t bit = kFrameHeaderBytes * 8; bit < clean.size() * 8;
       ++bit) {
    auto frame = clean;
    frame[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    const auto d = decode_frame(frame);
    ASSERT_FALSE(d.ok) << "bit " << bit;
    EXPECT_EQ(d.diagnostic.rfind(frame_diag::kChecksum, 0), 0u)
        << d.diagnostic;
  }
}

TEST(Message, BadMagicIsRejectedAsNotAnAnahyFrame) {
  auto frame = encode(make_stats_query(1, 2));
  frame[0] ^= 0xFF;
  const auto d = decode_frame(frame);
  ASSERT_FALSE(d.ok);
  EXPECT_EQ(d.diagnostic.rfind(frame_diag::kBadMagic, 0), 0u) << d.diagnostic;
}

TEST(Message, ShortAndLengthMismatchedFramesAreTruncations) {
  // Shorter than the envelope itself.
  for (std::size_t n = 0; n < kFrameHeaderBytes; ++n) {
    const std::vector<std::uint8_t> tiny(n, 0xA1);
    const auto d = decode_frame(tiny);
    ASSERT_FALSE(d.ok) << n;
    EXPECT_EQ(d.diagnostic.rfind(frame_diag::kTruncated, 0), 0u)
        << d.diagnostic;
  }
  // Envelope intact but the body shorter than the declared length.
  auto frame = encode(make_stats_reply(7, "some exposition text"));
  frame.resize(frame.size() - 5);
  const auto d = decode_frame(frame);
  ASSERT_FALSE(d.ok);
  EXPECT_EQ(d.diagnostic.rfind(frame_diag::kTruncated, 0), 0u)
      << d.diagnostic;
}

TEST(Message, UnsupportedVersionIsItsOwnDiagnostic) {
  auto frame = encode(make_stats_query(1, 2));
  frame[2] = kFrameVersion + 1;
  const auto d = decode_frame(frame);
  ASSERT_FALSE(d.ok);
  EXPECT_EQ(d.diagnostic.rfind(frame_diag::kVersion, 0), 0u) << d.diagnostic;
}

TEST(Message, DecodeFrameNeverThrowsOnGarbage) {
  // Arbitrary junk — including junk that passes no header check at all —
  // must come back as a rejection, not UB or an exception.
  const std::vector<std::vector<std::uint8_t>> garbage = {
      {},
      {0x00},
      {0xA1, 0xA4},
      std::vector<std::uint8_t>(11, 0x00),
      std::vector<std::uint8_t>(64, 0xFF),
  };
  for (const auto& g : garbage) {
    const auto d = decode_frame(g);
    EXPECT_FALSE(d.ok);
    EXPECT_EQ(d.diagnostic.rfind("ANAHY-F00", 0), 0u) << d.diagnostic;
  }
}

TEST(Message, PingPongRoundTrip) {
  const Message ping = decode(encode(make_ping(3, 77)));
  EXPECT_EQ(ping.type, MsgType::kPing);
  EXPECT_EQ(ping.ping.from, 3u);
  EXPECT_EQ(ping.ping.token, 77u);

  const Message pong = decode(encode(make_pong(4, 77)));
  EXPECT_EQ(pong.type, MsgType::kPong);
  EXPECT_EQ(pong.ping.from, 4u);
  EXPECT_EQ(pong.ping.token, 77u);
}

TEST(Message, RejuvenateRoundTrip) {
  const Message d = decode(encode(make_rejuvenate(6, 1234)));
  EXPECT_EQ(d.type, MsgType::kRejuvenate);
  EXPECT_EQ(d.rejuv.client, 6u);
  EXPECT_EQ(d.rejuv.request_id, 1234u);
}

TEST(Message, RejectsTruncatedRejuvenate) {
  auto frame = encode(make_rejuvenate(1, 2));
  frame.resize(frame.size() - 4);
  EXPECT_FALSE(decode_frame(frame).ok);
}

TEST(Message, RejuvenateCarriesItsTargetNode) {
  // Default: self-addressed.
  EXPECT_EQ(decode(encode(make_rejuvenate(6, 1))).rejuv.target,
            kRejuvTargetSelf);
  // Mesh addressing: any node reachable through any other (docs/MESH.md).
  const Message d = decode(encode(make_rejuvenate(6, 2, /*target=*/4)));
  EXPECT_EQ(d.rejuv.target, 4u);
}

TEST(Message, JobDoneFlagsRoundTrip) {
  const Message d =
      decode(encode(make_job_done(9, anahy::kAborted, 0, {},
                                  kJobDoneWithdrawn)));
  EXPECT_EQ(d.type, MsgType::kJobDone);
  EXPECT_EQ(d.job_done.flags, kJobDoneWithdrawn);
  // Flags default to zero so pre-mesh peers decode pre-mesh frames.
  EXPECT_EQ(decode(encode(make_job_done(9, 0, 0, {1, 2}))).job_done.flags, 0);
}

TEST(Message, JobStealRoundTrip) {
  const Message d = decode(encode(make_job_steal(2, 404, 1, 8)));
  EXPECT_EQ(d.type, MsgType::kJobSteal);
  EXPECT_EQ(d.job_steal.thief, 2u);
  EXPECT_EQ(d.job_steal.token, 404u);
  EXPECT_EQ(d.job_steal.priority, 1);
  EXPECT_EQ(d.job_steal.max_jobs, 8u);
}

TEST(Message, JobMigrateRoundTripPreservesWholeJobs) {
  std::vector<JobSubmitMsg> jobs(2);
  jobs[0].client = 7;
  jobs[0].request_id = 100;
  jobs[0].priority = 2;
  jobs[0].timeout_ns = 5'000'000;
  jobs[0].check = 1;
  jobs[0].function = "fn_a";
  jobs[0].payload = {1, 2, 3};
  jobs[1].client = 7;
  jobs[1].request_id = 101;
  jobs[1].function = "fn_b";
  const Message d = decode(encode(make_job_migrate(3, 404, jobs)));
  EXPECT_EQ(d.type, MsgType::kJobMigrate);
  EXPECT_EQ(d.job_migrate.from, 3u);
  EXPECT_EQ(d.job_migrate.token, 404u);
  ASSERT_EQ(d.job_migrate.jobs.size(), 2u);
  EXPECT_EQ(d.job_migrate.jobs[0].client, 7u);
  EXPECT_EQ(d.job_migrate.jobs[0].request_id, 100u);
  EXPECT_EQ(d.job_migrate.jobs[0].priority, 2);
  EXPECT_EQ(d.job_migrate.jobs[0].timeout_ns, 5'000'000);
  EXPECT_EQ(d.job_migrate.jobs[0].check, 1);
  EXPECT_EQ(d.job_migrate.jobs[0].function, "fn_a");
  EXPECT_EQ(d.job_migrate.jobs[0].payload, (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(d.job_migrate.jobs[1].request_id, 101u);
  EXPECT_EQ(d.job_migrate.jobs[1].function, "fn_b");

  // The negative grant: zero jobs is a legal, meaningful frame.
  const Message none = decode(encode(make_job_migrate(3, 405, {})));
  EXPECT_TRUE(none.job_migrate.jobs.empty());
}

TEST(Message, MeshGossipRoundTrip) {
  std::vector<MeshGossipEntry> entries(2);
  entries[0].client = 9;
  entries[0].request_id = 1;
  entries[0].frame = encode(make_job_done(1, 0, 0, {42}));
  entries[1].client = 9;
  entries[1].request_id = 2;
  entries[1].frame = encode(make_job_done(2, anahy::kFaulted, 0, {}));
  const Message d = decode(encode(make_mesh_gossip(5, entries)));
  EXPECT_EQ(d.type, MsgType::kMeshGossip);
  EXPECT_EQ(d.gossip.from, 5u);
  ASSERT_EQ(d.gossip.entries.size(), 2u);
  EXPECT_EQ(d.gossip.entries[0].client, 9u);
  EXPECT_EQ(d.gossip.entries[0].request_id, 1u);
  // The carried frame replays verbatim: decode it and check the verdict.
  const Message inner = decode(d.gossip.entries[0].frame);
  EXPECT_EQ(inner.type, MsgType::kJobDone);
  EXPECT_EQ(inner.job_done.payload, (std::vector<std::uint8_t>{42}));
  EXPECT_EQ(decode(d.gossip.entries[1].frame).job_done.error,
            static_cast<std::uint32_t>(anahy::kFaulted));
}

TEST(Message, JobStartedRoundTrip) {
  const Message d = decode(encode(make_job_started(2, 909)));
  EXPECT_EQ(d.type, MsgType::kJobStarted);
  EXPECT_EQ(d.job_started.node, 2u);
  EXPECT_EQ(d.job_started.request_id, 909u);
}

TEST(Message, RejectsTruncatedMeshFrames) {
  for (const Message& m :
       {make_job_steal(1, 2, 2, 4), make_job_migrate(1, 2, {}),
        make_mesh_gossip(1, {{3, 4, {9, 9}}}), make_job_started(1, 2)}) {
    auto frame = encode(m);
    frame.resize(frame.size() - 2);
    EXPECT_FALSE(decode_frame(frame).ok);
  }
}

}  // namespace
