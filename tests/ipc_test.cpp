// Shard worker processes (DESIGN.md §14): the framed wire protocol, the
// supervisor/worker handshake, and kill-and-restart containment.
//
// Five tiers:
//   1. Wire format — frame/message roundtrips, the pinned version-3 bytes
//      of one frame of every type, then the corruption sweep: truncations,
//      bit flips, oversized length headers and seeded garbage against both
//      the frame reader and every message decoder (clean Status, never a
//      crash or an unbounded allocation).
//   2. Worker protocol — a real worker process fed garbage or a bad
//      handshake exits with the protocol code instead of crashing.
//   3. Equivalence — the seeded workload (monitoring subscriptions plus a
//      continuous query over the remote document source) at shard_mode =
//      process with 2 and 4 workers delivers bit-for-bit the inline
//      1-shard mail, with the same MQP tree shape and document count; so
//      do 2 workers spawned by a supervisor started without stdin.
//   4. Containment — SIGKILL at every batch boundary, a mid-batch wedge
//      caught by the heartbeat, a worker dying mid-write, and a respawn
//      that fails: workers are respawned from their storage partitions, no
//      acked subscription is lost, and the supervisor never dies.
//   5. Shared barrier — contained stage throws account alike on thread
//      shards and workers, and a batch deadline quarantines a stalled
//      worker that the next batch boundary restarts from its partition.
//
// Wall-clock bounds scale with XYMON_TEST_TIME_SCALE (tests/time_scale.h).

#include <gtest/gtest.h>

#include <csignal>
#include <fcntl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "crash_sweep.h"
#include "stream_golden.h"
#include "time_scale.h"
#include "src/ipc/wire.h"
#include "src/system/monitor.h"
#include "src/system/stage_faults.h"
#include "src/system/worker_proxy.h"
#include "src/webstub/crawler.h"

namespace xymon {
namespace {

using ipc::MsgType;
using ipc::ReadFrame;
using ipc::WriteFrame;
using system::ShardMode;
using system::StageFaultInjector;
using system::StageFaultKind;
using system::StageFaultPlan;
using system::StageKind;
using system::XylemeMonitor;

constexpr char kWorkerBin[] = XYMON_WORKER_BIN_PATH;

/// Fresh directory under the ctest working directory (the build tree), so
/// process-mode partitions live on the real filesystem the workers can open.
struct TempDir {
  explicit TempDir(const std::string& name)
      : path("ipc_test_tmp_" + name) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string path;
};

bool WaitFor(const std::function<bool()>& pred, uint32_t ms) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(ScaledMs(ms));
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

// ------------------------------------------------------------ frame layer --

TEST(WireFrameTest, RoundtripsPayloadsOverAPipe) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  // Largest frame stays under the 64 KiB pipe buffer: the test writes and
  // reads on one thread, so the whole frame must fit without blocking.
  const std::string payloads[] = {std::string(), std::string("x"),
                                  std::string(40000, 'q'),
                                  std::string("\x00\xff\x7f binary \n", 12)};
  for (const std::string& payload : payloads) {
    ASSERT_TRUE(WriteFrame(fds[1], payload).ok());
    std::string got;
    ASSERT_TRUE(ReadFrame(fds[0], &got).ok());
    EXPECT_EQ(got, payload);
  }
  close(fds[0]);
  close(fds[1]);
}

TEST(WireFrameTest, PeekTypeRejectsEmptyAndUnknown) {
  MsgType type;
  EXPECT_FALSE(ipc::PeekType("", &type));
  EXPECT_FALSE(ipc::PeekType(std::string(1, '\x63'), &type));  // type 99
  EXPECT_FALSE(ipc::PeekType(std::string(1, '\x00'), &type));
  ASSERT_TRUE(ipc::PeekType(ipc::Encode(ipc::PingMsg{7}), &type));
  EXPECT_EQ(type, MsgType::kPing);
}

TEST(WireFrameTest, ReadDeadlineExpiresWithoutData) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  std::string payload;
  Status st = ReadFrame(fds[0], &payload, /*deadline_ms=*/50);
  EXPECT_FALSE(st.ok());
  close(fds[0]);
  close(fds[1]);
}

// --------------------------------------------------------- message layer --

TEST(WireMessageTest, HelloRoundtripsWithFaultPlan) {
  ipc::HelloMsg msg;
  msg.max_parse_failures = 7;
  msg.faults.push_back({2, 1, 5, 1500, "http://w0.example/doc.xml"});
  msg.faults.push_back({1, 3, 1, 0, "http://w1.example/x.xml"});

  std::string payload = ipc::Encode(msg);
  MsgType type;
  ASSERT_TRUE(ipc::PeekType(payload, &type));
  ASSERT_EQ(type, MsgType::kHello);
  ipc::HelloMsg got;
  ASSERT_TRUE(ipc::Decode(payload, &got).ok());
  EXPECT_EQ(got.magic, ipc::kWireMagic);
  EXPECT_EQ(got.version, ipc::kWireVersion);
  EXPECT_EQ(got.max_parse_failures, 7u);
  ASSERT_EQ(got.faults.size(), 2u);
  EXPECT_EQ(got.faults[0].stage, 2);
  EXPECT_EQ(got.faults[0].kind, 1);
  EXPECT_EQ(got.faults[0].nth, 5u);
  EXPECT_EQ(got.faults[0].stall_ms, 1500u);
  EXPECT_EQ(got.faults[0].url, "http://w0.example/doc.xml");
  EXPECT_EQ(got.faults[1].url, "http://w1.example/x.xml");
}

TEST(WireMessageTest, SlotResultRoundtripsActionsAndDeltas) {
  ipc::SlotResultMsg msg;
  msg.batch = 42;
  msg.slot = 7;
  msg.processed = 1;
  msg.alert = 1;
  msg.failed = 1;
  msg.failed_stage = "detect";
  msg.status_code = 5;
  msg.status_message = "stage threw";
  msg.payloads = {"<Changed/>", ""};
  msg.actions.push_back({17, 0});
  msg.actions.push_back({3, 1});
  msg.ingest = {3, 1200};
  msg.detect = {3, 450};
  msg.match = {2, 90};
  msg.notify = {1, 30};
  msg.document_count = 19;

  std::string payload = ipc::Encode(msg);
  ipc::SlotResultMsg got;
  ASSERT_TRUE(ipc::Decode(payload, &got).ok());
  EXPECT_EQ(got.batch, 42u);
  EXPECT_EQ(got.slot, 7u);
  EXPECT_EQ(got.processed, 1);
  EXPECT_EQ(got.alert, 1);
  EXPECT_EQ(got.failed, 1);
  EXPECT_EQ(got.failed_stage, "detect");
  EXPECT_EQ(got.status_code, 5);
  EXPECT_EQ(got.status_message, "stage threw");
  EXPECT_EQ(got.payloads, msg.payloads);
  ASSERT_EQ(got.actions.size(), 2u);
  EXPECT_EQ(got.actions[0].binding, 17u);
  EXPECT_EQ(got.actions[0].payload, 0u);
  EXPECT_EQ(got.actions[1].binding, 3u);
  EXPECT_EQ(got.actions[1].payload, 1u);
  EXPECT_EQ(got.ingest.micros, 1200u);
  EXPECT_EQ(got.notify.documents, 1u);
  EXPECT_EQ(got.document_count, 19u);
}

TEST(WireMessageTest, DecodedPayloadsAreSharedPerDistinctString) {
  // Workers ship each distinct payload string once; the supervisor maps the
  // actions naming one string back onto one shared payload.
  ipc::SlotResultMsg msg;
  msg.processed = 1;
  msg.alert = 1;
  msg.payloads = {"<Hit a=\"1\"/>", "<Other/>"};
  msg.actions = {{1, 0}, {2, 0}, {3, 1}, {4, 0}, {5, 1}};
  const std::vector<std::string> want = {msg.payloads[0], msg.payloads[0],
                                         msg.payloads[1], msg.payloads[0],
                                         msg.payloads[1]};

  auto known = [](manager::BindingId id) { return id >= 1 && id <= 5; };
  Result<system::DocOutcome> out = system::OutcomeFromWire(msg, known);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->actions.size(), 5u);
  EXPECT_TRUE(out->processed);
  EXPECT_TRUE(out->alert);
  const auto& a = out->actions;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].payload.xml(), want[i]) << i;
    EXPECT_EQ(a[i].binding, msg.actions[i].binding) << i;
  }
  EXPECT_TRUE(a[0].payload.SharesWith(a[1].payload));
  EXPECT_TRUE(a[0].payload.SharesWith(a[3].payload));
  EXPECT_TRUE(a[2].payload.SharesWith(a[4].payload));
  EXPECT_FALSE(a[0].payload.SharesWith(a[2].payload));

  // Sharing is per result: another SlotResult decodes its own objects.
  Result<system::DocOutcome> again = system::OutcomeFromWire(msg, known);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->actions[0].payload.SharesWith(a[0].payload));
}

TEST(WireMessageTest, IdsOutsideTheResultOrTheManagerAreCorruption) {
  ipc::SlotResultMsg msg;
  msg.payloads = {"<p/>"};
  msg.actions = {{1, 0}};
  auto known = [](manager::BindingId id) { return id == 1; };
  EXPECT_TRUE(system::OutcomeFromWire(msg, known).ok());

  msg.actions = {{1, 1}};  // payload index past the result's payloads
  EXPECT_TRUE(system::OutcomeFromWire(msg, known).status().IsCorruption());
  msg.actions = {{2, 0}};  // a binding the supervisor does not know
  EXPECT_TRUE(system::OutcomeFromWire(msg, known).status().IsCorruption());
}

TEST(WireMessageTest, DomainDocsRoundtripsMetaAndBody) {
  ipc::DomainDocsMsg msg;
  msg.seq = 9;
  ipc::DomainDocsMsg::Doc doc;
  doc.meta = {12,       "http://art/m.xml", "f12.xml", 1,    "museum",
              "art.dtd", 4,                 "culture", 1000, 2000,
              777,      2};
  doc.doc_xml = "<museum><painting><title>t</title></painting></museum>";
  doc.doctype_name = "museum";
  doc.dtd_url = "art.dtd";
  msg.docs.push_back(doc);

  std::string payload = ipc::Encode(msg);
  ipc::DomainDocsMsg got;
  ASSERT_TRUE(ipc::Decode(payload, &got).ok());
  EXPECT_EQ(got.seq, 9u);
  ASSERT_EQ(got.docs.size(), 1u);
  EXPECT_EQ(got.docs[0].meta.docid, 12u);
  EXPECT_EQ(got.docs[0].meta.url, "http://art/m.xml");
  EXPECT_EQ(got.docs[0].meta.signature, 777u);
  EXPECT_EQ(got.docs[0].meta.status, 2);
  EXPECT_EQ(got.docs[0].doc_xml, doc.doc_xml);
}

TEST(WireMessageTest, SmallMessagesRoundtrip) {
  {
    ipc::CmdAckMsg msg{11, 3, "nope"};
    ipc::CmdAckMsg got;
    std::string p = ipc::Encode(msg);
    ASSERT_TRUE(ipc::Decode(p, &got).ok());
    EXPECT_EQ(got.seq, 11u);
    EXPECT_EQ(got.status_code, 3);
    EXPECT_EQ(got.status_message, "nope");
  }
  {
    ipc::SlotMsg msg{5, 2, 1, 40, 1234, "http://w0.example/d.xml", "<p/>"};
    ipc::SlotMsg got;
    std::string p = ipc::Encode(msg);
    ASSERT_TRUE(ipc::Decode(p, &got).ok());
    EXPECT_EQ(got.batch, 5u);
    EXPECT_EQ(got.slot, 2u);
    EXPECT_EQ(got.deletion, 1);
    EXPECT_EQ(got.docid_hint, 40u);
    EXPECT_EQ(got.now, 1234);
    EXPECT_EQ(got.url, "http://w0.example/d.xml");
    EXPECT_EQ(got.body, "<p/>");
  }
  {
    ipc::PongMsg msg{99, 17};
    ipc::PongMsg got;
    std::string p = ipc::Encode(msg);
    ASSERT_TRUE(ipc::Decode(p, &got).ok());
    EXPECT_EQ(got.token, 99u);
    EXPECT_EQ(got.document_count, 17u);
  }
}

// ------------------------------------------------------ one frame per type --

/// One sample message of every frame type. The golden-bytes test and the
/// decoder sweep walk MsgType from kHello to kShutdown and fail on a type
/// missing here, so a frame added later cannot skip them.
const auto kSamples = std::make_tuple(
    ipc::HelloMsg{ipc::kWireMagic, ipc::kWireVersion, 3,
                  {{2, 1, 5, 1500, "http://u"},
                   {1, 3, 1, 0, "http://v/x.xml"}}},
    ipc::HelloAckMsg{1, 1234},
    ipc::OpenPartitionMsg{1, "wh.part0", 1, 1 << 20},
    ipc::SubscribeMsg{2, 99, 1, "subscription S\n", "a@x"},
    ipc::UnsubscribeMsg{3, 99, "S"},
    ipc::DomainRuleMsg{4, "culture", "museum", "museum", "art"},
    ipc::CmdAckMsg{5, 3, "nope"},
    ipc::SlotMsg{6, 1, 0, 7, 99, "http://u", "<p/>"},
    ipc::SlotResultMsg{7, 2, 1, 0, 1, 1, "detect", 10, "stage threw",
                       {"<x/>", ""}, {{1, 0}, {258, 1}, {3, 0}},
                       {3, 1200}, {3, 450}, {2, 90}, {1, 30}, 19},
    ipc::CheckpointMsg{8},
    ipc::CheckpointDoneMsg{8, 0, "", 12},
    ipc::PingMsg{9},
    ipc::PongMsg{9, 12},
    ipc::QueryDomainMsg{10, "culture"},
    ipc::DomainDocsMsg{10,
                       {{{1, "http://u", "f", 1, "d", "u", 1, "dom", 1, 2,
                          0x0123456789abcdefull, 1},
                         "<d/>", "d", "u"},
                        {{2, "http://v", "g", 0, "", "", 0, "dom", -5, -1, 0,
                          2},
                         "", "", ""}}},
    ipc::DtdIdReqMsg{"art.dtd"},
    ipc::DtdIdRespMsg{"art.dtd", 4},
    ipc::ShutdownMsg{});

/// The encoded sample frame of `type` ("" if kSamples has none).
std::string SamplePayload(MsgType type) {
  std::string payload;
  std::apply(
      [&](const auto&... sample) {
        auto pick = [&](const auto& msg) {
          if (msg.kType == type) payload = ipc::Encode(msg);
        };
        (pick(sample), ...);
      },
      kSamples);
  return payload;
}

/// Decodes `payload` with the decoder its type byte names: the message type
/// of the kSamples entry with that type.
Status DecodeAnyFrame(std::string_view payload) {
  MsgType type = MsgType::kHello;
  if (!ipc::PeekType(payload, &type)) {
    return Status::Corruption("unknown type");
  }
  Status status = Status::Corruption("no sample of this type");
  std::apply(
      [&](const auto&... sample) {
        auto decode_as = [&](const auto& like) {
          if (like.kType != type) return;
          std::remove_cvref_t<decltype(like)> msg;
          status = ipc::Decode(payload, &msg);
        };
        (decode_as(sample), ...);
      },
      kSamples);
  return status;
}

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out += kDigits[c >> 4];
    out += kDigits[c & 15];
  }
  return out;
}

TEST(WireMessageTest, EveryFrameKeepsItsVersion3Bytes) {
  // The version-3 bytes of each sample frame, one string per field. Any
  // change here is a wire format change: bump kWireVersion together with
  // this table.
  const std::map<MsgType, std::string> golden = {
      {MsgType::kHello,
       "01" "574d5958" "03000000" "03000000"
       "02000000"
       "02" "01" "05000000" "dc050000" "08000000" "687474703a2f2f75"
       "01" "03" "01000000" "00000000" "0e000000"
       "687474703a2f2f762f782e786d6c"},
      {MsgType::kHelloAck, "02" "01000000" "d204000000000000"},
      {MsgType::kOpenPartition,
       "03" "0100000000000000" "08000000" "77682e7061727430" "01000000"
       "0000100000000000"},
      {MsgType::kSubscribe,
       "04" "0200000000000000" "6300000000000000" "01"
       "0f000000" "737562736372697074696f6e20530a" "03000000" "614078"},
      {MsgType::kUnsubscribe,
       "05" "0300000000000000" "6300000000000000" "01000000" "53"},
      {MsgType::kDomainRule,
       "06" "0400000000000000" "07000000" "63756c74757265"
       "06000000" "6d757365756d" "06000000" "6d757365756d"
       "03000000" "617274"},
      {MsgType::kCmdAck, "07" "0500000000000000" "03" "04000000" "6e6f7065"},
      {MsgType::kSlot,
       "08" "0600000000000000" "01000000" "00" "0700000000000000"
       "6300000000000000" "08000000" "687474703a2f2f75"
       "04000000" "3c702f3e"},
      {MsgType::kSlotResult,
       "09" "0700000000000000" "02000000" "01" "00" "01" "01"
       "06000000" "646574656374" "0a" "0b000000" "7374616765207468726577"
       "02000000" "04000000" "3c782f3e" "00000000"
       "03000000"
       "01000000" "00000000" "02010000" "01000000" "03000000" "00000000"
       "0300000000000000" "b004000000000000"
       "0300000000000000" "c201000000000000"
       "0200000000000000" "5a00000000000000"
       "0100000000000000" "1e00000000000000"
       "1300000000000000"},
      {MsgType::kCheckpoint, "0a" "0800000000000000"},
      {MsgType::kCheckpointDone,
       "0b" "0800000000000000" "00" "00000000" "0c00000000000000"},
      {MsgType::kPing, "0c" "0900000000000000"},
      {MsgType::kPong, "0d" "0900000000000000" "0c00000000000000"},
      {MsgType::kQueryDomain,
       "0e" "0a00000000000000" "07000000" "63756c74757265"},
      {MsgType::kDomainDocs,
       "0f" "0a00000000000000" "02000000"
       "0100000000000000" "08000000" "687474703a2f2f75" "01000000" "66"
       "01" "01000000" "64" "01000000" "75" "01000000" "03000000" "646f6d"
       "0100000000000000" "0200000000000000" "efcdab8967452301" "01"
       "04000000" "3c642f3e" "01000000" "64" "01000000" "75"
       "0200000000000000" "08000000" "687474703a2f2f76" "01000000" "67"
       "00" "00000000" "00000000" "00000000" "03000000" "646f6d"
       "fbffffffffffffff" "ffffffffffffffff" "0000000000000000" "02"
       "00000000" "00000000" "00000000"},
      {MsgType::kDtdIdReq, "10" "07000000" "6172742e647464"},
      {MsgType::kDtdIdResp, "11" "07000000" "6172742e647464" "04000000"},
      {MsgType::kShutdown, "12"},
  };
  EXPECT_EQ(ipc::kWireVersion, 3u);
  for (auto t = static_cast<uint8_t>(MsgType::kHello);
       t <= static_cast<uint8_t>(MsgType::kShutdown); ++t) {
    const auto type = static_cast<MsgType>(t);
    SCOPED_TRACE(ipc::MsgTypeName(type));
    const std::string payload = SamplePayload(type);
    ASSERT_FALSE(payload.empty()) << "no sample frame of this type";
    auto want = golden.find(type);
    ASSERT_NE(want, golden.end()) << "no golden bytes for this type";
    EXPECT_EQ(Hex(payload), want->second);
  }
}

TEST(WireMessageTest, DecodeRejectsAFrameOfAnotherType) {
  // Some frames share a layout (Ping and Checkpoint are one u64 each): only
  // the type byte tells them apart, so every decoder must check it.
  for (auto t = static_cast<uint8_t>(MsgType::kHello);
       t <= static_cast<uint8_t>(MsgType::kShutdown); ++t) {
    const auto type = static_cast<MsgType>(t);
    SCOPED_TRACE(ipc::MsgTypeName(type));
    const std::string payload = SamplePayload(type);
    ASSERT_FALSE(payload.empty()) << "no sample frame of this type";
    std::apply(
        [&](const auto&... sample) {
          auto decode_as = [&](const auto& like) {
            std::remove_cvref_t<decltype(like)> msg;
            Status st = ipc::Decode(payload, &msg);
            EXPECT_EQ(st.ok(), like.kType == type)
                << "decoded as " << ipc::MsgTypeName(like.kType);
          };
          (decode_as(sample), ...);
        },
        kSamples);
  }
}

// -------------------------------------------------------- corruption sweep --

/// Writes `frame` raw, closes the write end (so a reader waiting for bytes a
/// corrupt length promised sees EOF instead of hanging), reads one frame.
Status ReadRawFrame(const std::string& frame) {
  int fds[2];
  EXPECT_EQ(pipe(fds), 0);
  ssize_t n = write(fds[1], frame.data(), frame.size());
  EXPECT_EQ(n, static_cast<ssize_t>(frame.size()));
  close(fds[1]);
  std::string payload;
  Status st = ReadFrame(fds[0], &payload);
  close(fds[0]);
  return st;
}

/// A valid encoded frame, captured through a pipe.
std::string CaptureFrame(const std::string& payload) {
  int fds[2];
  EXPECT_EQ(pipe(fds), 0);
  EXPECT_TRUE(WriteFrame(fds[1], payload).ok());
  close(fds[1]);
  std::string frame;
  char buf[4096];
  ssize_t n;
  while ((n = read(fds[0], buf, sizeof(buf))) > 0) frame.append(buf, n);
  close(fds[0]);
  return frame;
}

TEST(WireCorruptionTest, EveryBitFlipIsRejected) {
  const std::string frame = CaptureFrame(ipc::Encode(ipc::PingMsg{0x1234}));
  ASSERT_EQ(frame.size(), ipc::kFrameHeaderLen + 9);
  ASSERT_TRUE(ReadRawFrame(frame).ok());  // the unflipped control

  for (size_t bit = 0; bit < frame.size() * 8; ++bit) {
    std::string flipped = frame;
    flipped[bit / 8] ^= static_cast<char>(1u << (bit % 8));
    Status st = ReadRawFrame(flipped);
    EXPECT_FALSE(st.ok()) << "bit " << bit << " accepted";
  }
}

TEST(WireCorruptionTest, TruncationsAreRejectedAtEveryLength) {
  const std::string frame =
      CaptureFrame(ipc::Encode(
          ipc::SubscribeMsg{1, 99, 1, "subscription S\n", "a@x"}));
  for (size_t len = 0; len < frame.size(); ++len) {
    Status st = ReadRawFrame(frame.substr(0, len));
    EXPECT_FALSE(st.ok()) << "truncation at " << len << " accepted";
  }
}

TEST(WireCorruptionTest, OversizedLengthIsRejectedWithoutAllocating) {
  // Header promising just past the cap, and the degenerate all-ones header:
  // both must fail on the length check alone — no payload follows.
  for (uint32_t len : {ipc::kMaxFrameLen + 1, 0xFFFFFFFFu}) {
    std::string frame(ipc::kFrameHeaderLen, '\0');
    frame[0] = static_cast<char>(len);
    frame[1] = static_cast<char>(len >> 8);
    frame[2] = static_cast<char>(len >> 16);
    frame[3] = static_cast<char>(len >> 24);
    Status st = ReadRawFrame(frame);
    EXPECT_FALSE(st.ok());
    EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  }
}

TEST(WireCorruptionTest, SeededGarbageNeverCrashesTheFrameReader) {
  std::mt19937 rng(0x58594D57);  // deterministic: failures reproduce
  for (int i = 0; i < 300; ++i) {
    size_t len = rng() % 64;
    std::string frame(len, '\0');
    for (char& c : frame) c = static_cast<char>(rng());
    Status st = ReadRawFrame(frame);
    EXPECT_FALSE(st.ok());
  }
}

TEST(WireCorruptionTest, DecodersRejectTruncationAndSurviveBitFlips) {
  for (auto t = static_cast<uint8_t>(MsgType::kHello);
       t <= static_cast<uint8_t>(MsgType::kShutdown); ++t) {
    const auto type = static_cast<MsgType>(t);
    SCOPED_TRACE(ipc::MsgTypeName(type));
    const std::string payload = SamplePayload(type);
    ASSERT_FALSE(payload.empty()) << "no sample frame of this type";
    ASSERT_TRUE(DecodeAnyFrame(payload).ok());
    // Every proper prefix is missing at least one field (or fails the
    // trailing-bytes check): clean Corruption, never a crash.
    for (size_t len = 0; len < payload.size(); ++len) {
      Status st = DecodeAnyFrame(payload.substr(0, len));
      EXPECT_FALSE(st.ok()) << "prefix " << len << " accepted";
    }
    // Bit flips may still decode (a flipped string byte is just a different
    // string) — the requirement is bounded allocation and no crash.
    for (size_t bit = 0; bit < payload.size() * 8; ++bit) {
      std::string flipped = payload;
      flipped[bit / 8] ^= static_cast<char>(1u << (bit % 8));
      (void)DecodeAnyFrame(flipped);
    }
  }
}

// ---------------------------------------------------------- worker process --

/// Forks a worker wired to fd 3, the supervisor contract. Returns the
/// supervisor's end of the socketpair.
pid_t SpawnRawWorker(int* fd) {
  int sv[2];
  EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  pid_t pid = fork();
  if (pid == 0) {
    // Either end may itself be fd 3: never close what was just installed.
    if (sv[0] != 3) close(sv[0]);
    if (sv[1] != 3) {
      dup2(sv[1], 3);
      close(sv[1]);
    }
    char fd_arg[] = "3";
    char* const argv[] = {const_cast<char*>(kWorkerBin), fd_arg, nullptr};
    execv(kWorkerBin, argv);
    _exit(127);
  }
  close(sv[1]);
  *fd = sv[0];
  return pid;
}

/// Bounded reap: SIGKILL + test failure instead of a hung waitpid.
int ReapWorker(pid_t pid) {
  int wstatus = 0;
  if (!WaitFor(
          [&] { return waitpid(pid, &wstatus, WNOHANG) == pid; },
          5000)) {
    kill(pid, SIGKILL);
    waitpid(pid, &wstatus, 0);
    ADD_FAILURE() << "worker did not exit in time";
  }
  return wstatus;
}

TEST(WorkerProtocolTest, GarbageFrameExitsWithProtocolCode) {
  int fd;
  pid_t pid = SpawnRawWorker(&fd);
  ASSERT_GT(pid, 0);
  // A syntactically valid frame whose CRC lies about its payload.
  std::string frame = CaptureFrame(ipc::Encode(ipc::PingMsg{1}));
  frame.back() ^= 0x40;
  ASSERT_EQ(write(fd, frame.data(), frame.size()),
            static_cast<ssize_t>(frame.size()));
  int wstatus = ReapWorker(pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  EXPECT_EQ(WEXITSTATUS(wstatus), 3);
  close(fd);
}

TEST(WorkerProtocolTest, VersionMismatchIsRefusedBeforeAnyState) {
  int fd;
  pid_t pid = SpawnRawWorker(&fd);
  ASSERT_GT(pid, 0);
  ipc::HelloMsg hello;
  hello.version = ipc::kWireVersion + 1;
  ASSERT_TRUE(WriteFrame(fd, ipc::Encode(hello)).ok());
  int wstatus = ReapWorker(pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  EXPECT_EQ(WEXITSTATUS(wstatus), 3);
  close(fd);
}

TEST(WorkerProtocolTest, HandshakeAnswersVersionAndPid) {
  int fd;
  pid_t pid = SpawnRawWorker(&fd);
  ASSERT_GT(pid, 0);
  Status hello_st = WriteFrame(fd, ipc::Encode(ipc::HelloMsg{}));
  ASSERT_TRUE(hello_st.ok()) << hello_st.ToString();
  std::string payload;
  ASSERT_TRUE(ReadFrame(fd, &payload, ScaledMs(5000)).ok());
  MsgType type;
  ASSERT_TRUE(ipc::PeekType(payload, &type));
  ASSERT_EQ(type, MsgType::kHelloAck);
  ipc::HelloAckMsg ack;
  ASSERT_TRUE(ipc::Decode(payload, &ack).ok());
  EXPECT_EQ(ack.version, ipc::kWireVersion);
  EXPECT_EQ(ack.pid, static_cast<uint64_t>(pid));
  ASSERT_TRUE(WriteFrame(fd, ipc::Encode(ipc::ShutdownMsg{})).ok());
  int wstatus = ReapWorker(pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  EXPECT_EQ(WEXITSTATUS(wstatus), 0);
  close(fd);
}

// -------------------------------------------------------------- sigpipe ----

TEST(SigpipeTest, WritingToADeadPeerIsAStatusNotASignal) {
  ipc::InstallSigpipeIgnore();
  int sv[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  close(sv[0]);  // the "worker" dies
  // Big enough to defeat any kernel buffering of the first write.
  std::string payload(1 << 20, 'x');
  Status st = Status::OK();
  for (int i = 0; i < 4 && st.ok(); ++i) {
    st = WriteFrame(sv[1], payload);
  }
  EXPECT_FALSE(st.ok());  // and the process is alive to notice
  close(sv[1]);
}

// ----------------------------------------------------- monitor equivalence --

constexpr char kContinuousArt[] = R"(
subscription Art
continuous Paintings
select p/title from culture//painting p
when daily
report when immediate
)";

std::string MuseumUrl(int j) {
  return "http://art/m" + std::to_string(j) + ".xml";
}

std::string MuseumBody(int j, int round) {
  return "<museum><painting><title>t" + std::to_string(j) + "-" +
         std::to_string(round) + "</title></painting></museum>";
}

struct IpcRunResult {
  std::vector<std::pair<std::string, std::string>> mail;  // (to, body)
  uint64_t documents = 0;
  uint64_t notifications = 0;
  uint64_t respawns = 0;
  std::optional<testing::TreeShape> shape;
  bool probe_notified = false;
};

XylemeMonitor::Options IpcOptions(ShardMode mode, size_t shards,
                                  const std::string& dir) {
  XylemeMonitor::Options options = testing::SweepOptions(dir, nullptr);
  options.num_shards = shards;
  options.shard_mode = mode;
  options.worker_binary = kWorkerBin;
  return options;
}

/// The seeded workload: 4 monitoring subscriptions with shared URL
/// prefixes, one continuous query over the `culture` domain (in process
/// mode this reads the partitions back over the kQueryDomain RPC), three
/// versioned rounds with a checkpoint in the middle, then a liveness probe.
/// `between_rounds` runs before each round — the kill sweep's hook.
IpcRunResult RunSeededWorkload(
    ShardMode mode, size_t shards, const std::string& dir,
    const std::function<void(XylemeMonitor&, int round)>& between_rounds =
        {}) {
  IpcRunResult out;
  SimClock clock(1000);
  auto monitor = XylemeMonitor::Open(&clock, IpcOptions(mode, shards, dir));
  EXPECT_TRUE(monitor.ok()) << monitor.status().ToString();
  if (!monitor.ok()) return out;

  (*monitor)->AddDomainRule({"culture", "", "museum", ""});
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE((*monitor)
                    ->Subscribe(testing::SweepSubText(i),
                                "u" + std::to_string(i) + "@x")
                    .ok());
  }
  EXPECT_TRUE((*monitor)->Subscribe(kContinuousArt, "curator@x").ok());

  for (int round = 1; round <= 3; ++round) {
    if (between_rounds) between_rounds(**monitor, round);
    std::vector<webstub::FetchedDoc> batch;
    for (int j = 0; j < 12; ++j) {
      batch.push_back({testing::SweepUrl(j), testing::SweepBody(j, round)});
    }
    for (int j = 0; j < 2; ++j) {
      batch.push_back({MuseumUrl(j), MuseumBody(j, round)});
    }
    (*monitor)->ProcessFetchBatch(batch);
    clock.Advance(kDay);
    (*monitor)->Tick();
    if (round == 2) {
      EXPECT_TRUE((*monitor)->CheckpointStorage().ok());
    }
  }

  for (const reporter::Email& email : (*monitor)->outbox().sent()) {
    out.mail.emplace_back(email.to, email.body);
  }
  out.documents = (*monitor)->pipeline().total_document_count();
  out.notifications = (*monitor)->stats().notifications;
  out.respawns = (*monitor)->pipeline_stats().worker_respawns;
  out.shape = testing::ShapeOf(**monitor);

  // No acked subscription lost: a modified page must still notify.
  uint64_t before = (*monitor)->stats().notifications;
  (*monitor)->ProcessFetch("http://w0.example/probe.xml", "<p>v1</p>");
  (*monitor)->ProcessFetch("http://w0.example/probe.xml", "<p>v2</p>");
  out.probe_notified = (*monitor)->stats().notifications > before;
  return out;
}

TEST(ProcessModeTest, TwoAndFourWorkersMatchInlineBitForBit) {
  TempDir inline_dir("equiv_inline");
  IpcRunResult inline_run =
      RunSeededWorkload(ShardMode::kThread, 1, inline_dir.path);
  ASSERT_FALSE(inline_run.mail.empty());
  ASSERT_TRUE(inline_run.probe_notified);
  ASSERT_TRUE(inline_run.shape.has_value());

  for (size_t workers : {size_t{2}, size_t{4}}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    TempDir dir("equiv_p" + std::to_string(workers));
    IpcRunResult run =
        RunSeededWorkload(ShardMode::kProcess, workers, dir.path);
    EXPECT_EQ(run.mail, inline_run.mail);
    EXPECT_EQ(run.documents, inline_run.documents);
    EXPECT_EQ(run.notifications, inline_run.notifications);
    EXPECT_EQ(run.respawns, 0u);
    EXPECT_TRUE(run.probe_notified);
    ASSERT_TRUE(run.shape.has_value());
    EXPECT_TRUE(*run.shape == *inline_run.shape)
        << "MQP tree shape diverged from the inline build";
  }
}

/// The mail (to, body) of 12 subscriptions sharing a URL prefix, one word
/// each, after a subscribe that failed past its monitoring query: on 2
/// shards of `mode`, for one page holding all 12 words.
std::vector<std::pair<std::string, std::string>> MailAfterFailedSubscribe(
    ShardMode mode) {
  static constexpr const char* kWords[] = {
      "amber", "bronze", "cobalt", "denim", "ebony", "fawn",
      "garnet", "hazel", "indigo", "jade", "khaki", "lilac"};
  SimClock clock(1000);
  XylemeMonitor::Options options;
  options.num_shards = 2;
  options.shard_mode = mode;
  options.worker_binary = kWorkerBin;
  XylemeMonitor monitor(&clock, options);
  EXPECT_TRUE(monitor.pipeline().worker_status().ok());
  // The continuous query does not parse: the subscription fails after its
  // monitoring query took two fresh atomic codes. It is never replicated.
  EXPECT_FALSE(monitor
                   .Subscribe(R"(
subscription Broken
monitoring M
select default
where URL extends "http://s.org/" and self contains "zebra"
continuous Q
select ~~~nonsense~~~
when daily
report when immediate
)",
                              "broken@x")
                   .ok());
  std::string page = "<p>";
  for (int i = 0; i < 12; ++i) {
    const std::string number = std::to_string(i);
    EXPECT_TRUE(monitor
                    .Subscribe("subscription W" + number +
                                   "\nmonitoring M\nselect default\n"
                                   "where URL extends \"http://s.org/\" and "
                                   "self contains \"" +
                                   kWords[i] + "\"\nreport when immediate\n",
                               std::string(kWords[i]) + "@x")
                    .ok());
    page += std::string(kWords[i]) + " ";
  }
  monitor.ProcessFetch("http://s.org/page.xml", page + "</p>");
  std::vector<std::pair<std::string, std::string>> mail;
  for (const reporter::Email& email : monitor.outbox().sent()) {
    mail.emplace_back(email.to, email.body);
  }
  return mail;
}

TEST(ProcessModeTest, FailedSubscribeKeepsWorkersInThreadOrder) {
  // A failed Subscribe rolls back what it registered and the ids it took,
  // so the workers — which never see it — hand out the same codes and
  // deliver in the same order as thread shards.
  const auto threads = MailAfterFailedSubscribe(ShardMode::kThread);
  ASSERT_EQ(threads.size(), 12u);
  EXPECT_EQ(MailAfterFailedSubscribe(ShardMode::kProcess), threads);
}

TEST(ProcessModeTest, NotificationStreamGoldenOnTwoWorkers) {
  // The digest tests/system_test.cpp pins at 1 and 2 thread shards.
  XylemeMonitor::Options options;
  options.num_shards = 2;
  options.shard_mode = ShardMode::kProcess;
  options.worker_binary = kWorkerBin;
  EXPECT_EQ(testing::RunGoldenStream(options),
            "mails=824 received=1273 digest=9413162cc5b6eb43");
}

constexpr char kTwoDomainQuery[] = R"(
subscription Deals
continuous Pairs
select p/name, a/title from shop//Product p, press//article a
where a/title contains "sale"
when daily
report when immediate
)";

/// The mail (to, body) of one daily continuous query that joins the `shop`
/// and `press` domains, over two rounds of 6 catalog and 6 news pages, on
/// 2 shards of `mode`.
std::vector<std::pair<std::string, std::string>> TwoDomainMail(
    ShardMode mode) {
  SimClock clock(1000);
  XylemeMonitor::Options options;
  options.num_shards = 2;
  options.shard_mode = mode;
  options.worker_binary = kWorkerBin;
  XylemeMonitor monitor(&clock, options);
  EXPECT_TRUE(monitor.pipeline().worker_status().ok());
  monitor.AddDomainRule({"shop", "", "catalog", ""});
  monitor.AddDomainRule({"press", "", "news", ""});
  EXPECT_TRUE(monitor.Subscribe(kTwoDomainQuery, "buyer@x").ok());
  for (int round = 1; round <= 2; ++round) {
    std::vector<webstub::FetchedDoc> batch;
    for (int j = 0; j < 6; ++j) {
      const std::string tag = std::to_string(j) + "-" + std::to_string(round);
      batch.push_back({"http://shop.example/c" + std::to_string(j) + ".xml",
                       "<catalog><Product><name>item" + tag +
                           "</name></Product></catalog>"});
      batch.push_back({"http://press.example/n" + std::to_string(j) + ".xml",
                       "<news><article><title>" +
                           std::string(j % 2 == 0 ? "sale " : "note ") + tag +
                           "</title></article></news>"});
    }
    monitor.ProcessFetchBatch(batch);
    clock.Advance(kDay);
    monitor.Tick();
  }
  std::vector<std::pair<std::string, std::string>> mail;
  for (const reporter::Email& email : monitor.outbox().sent()) {
    mail.emplace_back(email.to, email.body);
  }
  return mail;
}

TEST(ProcessModeTest, TwoDomainBindingsMatchThreadMode) {
  // The inner `press` binding ranges over its domain for every outer `shop`
  // tuple. A worker proxy frees a domain's previous fetch when it fetches
  // that domain again, so the engine fetches each domain once per
  // evaluation and the `shop` documents stay alive under the tuple.
  const auto threads = TwoDomainMail(ShardMode::kThread);
  ASSERT_EQ(threads.size(), 2u);
  EXPECT_NE(threads[0].second.find("item5-1"), std::string::npos);
  EXPECT_NE(threads[0].second.find("sale 4-1"), std::string::npos);
  EXPECT_EQ(threads[0].second.find("note"), std::string::npos);
  EXPECT_EQ(TwoDomainMail(ShardMode::kProcess), threads);
}

TEST(ProcessModeTest, StatusReportListsWorkersOnlyInProcessMode) {
  TempDir dir("report");
  SimClock clock(1000);
  auto monitor =
      XylemeMonitor::Open(&clock, IpcOptions(ShardMode::kProcess, 2, dir.path));
  ASSERT_TRUE(monitor.ok()) << monitor.status().ToString();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE((*monitor)
                    ->Subscribe(testing::SweepSubText(i),
                                "u" + std::to_string(i) + "@x")
                    .ok());
  }
  // Second versions raise alerts on both workers.
  for (int version = 1; version <= 2; ++version) {
    std::vector<webstub::FetchedDoc> batch;
    for (int j = 0; j < 6; ++j) {
      batch.push_back(
          {testing::SweepUrl(j), testing::SweepBody(j, version)});
    }
    (*monitor)->ProcessFetchBatch(batch);
  }

  std::string report = (*monitor)->StatusReport();
  // The matchers that ran are the workers'; the report counts what they
  // matched.
  const uint64_t alerts = (*monitor)->stats().alerts_raised;
  EXPECT_GT(alerts, 0u);
  EXPECT_NE(report.find("documents_matched=\"" + std::to_string(alerts) +
                        "\""),
            std::string::npos)
      << report;
  EXPECT_NE(report.find("<Worker pid=\""), std::string::npos);
  EXPECT_NE(report.find("shard=\"0\""), std::string::npos);
  EXPECT_NE(report.find("shard=\"1\""), std::string::npos);
  EXPECT_NE(report.find("restarts=\"0\""), std::string::npos);
  EXPECT_NE(report.find("last_heartbeat_ms="), std::string::npos);
  EXPECT_NE(report.find("worker_crashes=\"0\""), std::string::npos);
  EXPECT_NE(report.find("worker_respawns=\"0\""), std::string::npos);

  system::PipelineStats ps = (*monitor)->pipeline_stats();
  ASSERT_EQ(ps.workers.size(), 2u);
  for (size_t i = 0; i < ps.workers.size(); ++i) {
    EXPECT_TRUE(ps.workers[i].alive);
    EXPECT_EQ(ps.workers[i].shard, i);
    EXPECT_GT(ps.workers[i].pid, 0);
    EXPECT_EQ(ps.workers[i].pid, (*monitor)->pipeline().worker_pid(i));
  }

  // Thread mode keeps the historical report byte-exactly: no Worker rows.
  SimClock clock2(1000);
  XylemeMonitor thread_monitor(&clock2, {});
  EXPECT_EQ(thread_monitor.StatusReport().find("<Worker"),
            std::string::npos);
}

TEST(ProcessModeTest, MissingWorkerBinaryFailsOpen) {
  TempDir dir("nobin");
  SimClock clock(1000);
  auto options = IpcOptions(ShardMode::kProcess, 2, dir.path);
  options.worker_binary = "/nonexistent/xymon_shard_worker";
  auto monitor = XylemeMonitor::Open(&clock, options);
  EXPECT_FALSE(monitor.ok());
}

/// Frees `fd` for its lifetime and then restores whatever it was.
class FreedFd {
 public:
  explicit FreedFd(int fd) : fd_(fd), saved_(fcntl(fd, F_DUPFD_CLOEXEC, 10)) {
    if (saved_ >= 0) close(fd_);
  }
  ~FreedFd() {
    if (saved_ >= 0) {
      dup2(saved_, fd_);
      close(saved_);
    }
  }
  FreedFd(const FreedFd&) = delete;
  FreedFd& operator=(const FreedFd&) = delete;

 private:
  int fd_;
  int saved_;
};

/// The mail of a small in-memory workload, on `mode` with two shards.
std::vector<std::pair<std::string, std::string>> TwoShardMail(
    ShardMode mode, Status* worker_status) {
  SimClock clock(1000);
  XylemeMonitor::Options options;
  options.num_shards = 2;
  options.shard_mode = mode;
  options.worker_binary = kWorkerBin;
  XylemeMonitor monitor(&clock, options);
  *worker_status = monitor.pipeline().worker_status();
  if (!worker_status->ok()) return {};
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(monitor
                    .Subscribe(testing::SweepSubText(i),
                               "u" + std::to_string(i) + "@x")
                    .ok());
  }
  for (int round = 1; round <= 3; ++round) {
    std::vector<webstub::FetchedDoc> batch;
    for (int j = 0; j < 6; ++j) {
      batch.push_back({testing::SweepUrl(j), testing::SweepBody(j, round)});
    }
    monitor.ProcessFetchBatch(batch);
    clock.Advance(kDay);
    monitor.Tick();
  }
  std::vector<std::pair<std::string, std::string>> mail;
  for (const reporter::Email& email : monitor.outbox().sent()) {
    mail.emplace_back(email.to, email.body);
  }
  return mail;
}

TEST(ProcessModeTest, WorkerGetsItsSocketWhenTheSupervisorStartsWithoutStdin) {
  Status thread_status;
  auto thread_mail = TwoShardMail(ShardMode::kThread, &thread_status);
  ASSERT_FALSE(thread_mail.empty());

  // With fds 0 and 3 free, the first worker's socketpair is {0, 3}: its end
  // is already fd 3 when the child would dup2 it there.
  Status process_status;
  std::vector<std::pair<std::string, std::string>> process_mail;
  {
    FreedFd stdin_fd(0);
    FreedFd fd3(3);
    process_mail = TwoShardMail(ShardMode::kProcess, &process_status);
  }
  EXPECT_TRUE(process_status.ok()) << process_status.ToString();
  EXPECT_EQ(process_mail, thread_mail);
}

// ------------------------------------------------------------- kill sweep --

TEST(KillSweepTest, SigkillAtEveryBatchBoundaryRespawnsFromStorage) {
  const size_t kWorkers = 2;
  TempDir control_dir("kill_control");
  IpcRunResult control =
      RunSeededWorkload(ShardMode::kProcess, kWorkers, control_dir.path);
  ASSERT_FALSE(control.mail.empty());

  // Before every round after the first, SIGKILL one worker (rotating) and
  // wait for the supervisor to notice. The monitor restarts it from its
  // partition before scattering the round, so the sweep must deliver
  // bit-for-bit the unkilled run's mail.
  int kills = 0;
  auto killer = [&](XylemeMonitor& monitor, int round) {
    if (round == 1) return;
    size_t victim = static_cast<size_t>(round) % kWorkers;
    int pid = monitor.pipeline().worker_pid(victim);
    ASSERT_GT(pid, 0);
    ASSERT_EQ(kill(pid, SIGKILL), 0);
    ++kills;
    ASSERT_TRUE(WaitFor(
        [&] {
          monitor.pipeline().PollWorkers();
          system::PipelineStats ps = monitor.pipeline_stats();
          return !ps.workers[victim].alive;
        },
        5000))
        << "supervisor never noticed the SIGKILL";
  };

  TempDir dir("kill_sweep");
  IpcRunResult run =
      RunSeededWorkload(ShardMode::kProcess, kWorkers, dir.path, killer);
  EXPECT_EQ(kills, 2);
  EXPECT_EQ(run.mail, control.mail);
  EXPECT_EQ(run.documents, control.documents);
  EXPECT_EQ(run.respawns, static_cast<uint64_t>(kills));
  EXPECT_TRUE(run.probe_notified);
}

TEST(KillSweepTest, MidBatchWedgeIsKilledByHeartbeatAndRespawned) {
  const std::string faulty = testing::SweepUrl(0);
  // Detect call #2 stalls far past the heartbeat timeout: the worker goes
  // silent mid-slot, the heartbeat SIGKILLs it, the barrier fails the
  // outstanding slots, and the post-batch restart rebuilds the shard from
  // its partition.
  StageFaultInjector injector(StageFaultPlan{
      {{StageKind::kDetect, faulty, 2, StageFaultKind::kStall,
        ScaledMs(3000)}}});
  TempDir dir("wedge");
  SimClock clock(1000);
  auto options = IpcOptions(ShardMode::kProcess, 2, dir.path);
  options.stage_faults = &injector;
  options.worker_heartbeat_interval_ms = ScaledMs(50);
  options.worker_heartbeat_timeout_ms = ScaledMs(500);
  auto monitor = XylemeMonitor::Open(&clock, options);
  ASSERT_TRUE(monitor.ok()) << monitor.status().ToString();
  ASSERT_TRUE(
      (*monitor)->Subscribe(testing::SweepSubText(0), "u0@x").ok());

  // Version 1 is `new` — detect call #1 passes clean everywhere.
  (*monitor)->ProcessFetchBatch({{faulty, testing::SweepBody(0, 1)},
                                 {testing::SweepUrl(1),
                                  testing::SweepBody(1, 1)}});
  ASSERT_EQ((*monitor)->stats().failed_documents, 0u);

  // Version 2 wedges the worker at detect. The batch must complete (the
  // heartbeat bounds the barrier), fail the wedged slot, and respawn.
  (*monitor)->ProcessFetchBatch({{faulty, testing::SweepBody(0, 2)},
                                 {testing::SweepUrl(1),
                                  testing::SweepBody(1, 2)}});
  system::PipelineStats ps = (*monitor)->pipeline_stats();
  EXPECT_GE((*monitor)->stats().failed_documents, 1u);
  EXPECT_GE(ps.worker_crashes, 1u);
  EXPECT_GE(ps.worker_respawns, 1u);
  EXPECT_TRUE((*monitor)->restart_status().ok())
      << (*monitor)->restart_status().ToString();
  for (const system::WorkerStatus& w : ps.workers) {
    EXPECT_TRUE(w.alive);
  }

  // The respawned worker recovered its partition (version 1 of the faulty
  // page was ingested before the wedge): the next version still diffs and
  // notifies, and so does an untouched URL.
  uint64_t before = (*monitor)->stats().notifications;
  (*monitor)->ProcessFetch(faulty, testing::SweepBody(0, 3));
  (*monitor)->ProcessFetch("http://w0.example/probe.xml", "<p>v1</p>");
  (*monitor)->ProcessFetch("http://w0.example/probe.xml", "<p>v2</p>");
  EXPECT_GT((*monitor)->stats().notifications, before);
}

TEST(KillSweepTest, FailedRespawnLeavesTheMonitorUsable) {
  // A restart destroys the shard's detection replica before it starts the
  // worker again; when that start fails, the subscription manager must
  // still be rebound to the fresh replica, or the next Subscribe writes
  // into the destroyed one.
  TempDir dir("failed_respawn");
  const std::string binary = dir.path + "/worker";
  std::filesystem::copy_file(kWorkerBin, binary);
  SimClock clock(1000);
  XylemeMonitor::Options options;
  options.num_shards = 2;
  options.shard_mode = ShardMode::kProcess;
  options.worker_binary = binary;
  XylemeMonitor monitor(&clock, options);
  ASSERT_TRUE(monitor.pipeline().worker_status().ok());
  ASSERT_TRUE(monitor.Subscribe(testing::SweepSubText(0), "u0@x").ok());

  // The binary disappears, then worker 0 dies: every respawn fails.
  std::filesystem::remove(binary);
  kill(monitor.pipeline().worker_pid(0), SIGKILL);
  ASSERT_TRUE(WaitFor(
      [&] {
        monitor.pipeline().PollWorkers();
        return !monitor.pipeline_stats().workers[0].alive;
      },
      ScaledMs(5000)));
  for (int i = 1; i < 4; ++i) {
    EXPECT_TRUE(monitor
                    .Subscribe(testing::SweepSubText(i),
                               "u" + std::to_string(i) + "@x")
                    .ok());
  }
  EXPECT_FALSE(monitor.restart_status().ok());

  // With the binary back, the next batch respawns the worker, which
  // replays every subscription.
  std::filesystem::copy_file(kWorkerBin, binary);
  for (int round = 1; round <= 2; ++round) {
    std::vector<webstub::FetchedDoc> batch;
    for (int j = 0; j < 6; ++j) {
      batch.push_back({testing::SweepUrl(j), testing::SweepBody(j, round)});
    }
    monitor.ProcessFetchBatch(batch);
  }
  EXPECT_TRUE(monitor.pipeline_stats().workers[0].alive);
  EXPECT_GT(monitor.stats().notifications, 0u);
}

TEST(KillSweepTest, WorkerDeathMidBatchDoesNotKillTheSupervisor) {
  // No spin-wait here: the kill races the next scatter on purpose, so slot
  // writes can land on the dead socket (EPIPE, not SIGPIPE) or on a freshly
  // respawned worker — either way the supervisor survives and heals.
  TempDir dir("sigpipe_mon");
  SimClock clock(1000);
  auto monitor =
      XylemeMonitor::Open(&clock, IpcOptions(ShardMode::kProcess, 2, dir.path));
  ASSERT_TRUE(monitor.ok()) << monitor.status().ToString();
  ASSERT_TRUE(
      (*monitor)->Subscribe(testing::SweepSubText(0), "u0@x").ok());

  std::vector<webstub::FetchedDoc> batch;
  for (int j = 0; j < 12; ++j) {
    batch.push_back({testing::SweepUrl(j), testing::SweepBody(j, 1)});
  }
  (*monitor)->ProcessFetchBatch(batch);

  int pid = (*monitor)->pipeline().worker_pid(0);
  ASSERT_GT(pid, 0);
  ASSERT_EQ(kill(pid, SIGKILL), 0);
  for (int j = 0; j < 12; ++j) {
    batch[j].body = testing::SweepBody(j, 2);
  }
  (*monitor)->ProcessFetchBatch(batch);  // must not die

  // Heals: the next boundary restarts the worker and the flow notifies.
  (*monitor)->ProcessFetchBatch(batch);
  ASSERT_TRUE(WaitFor(
      [&] {
        (*monitor)->pipeline().PollWorkers();
        system::PipelineStats ps = (*monitor)->pipeline_stats();
        return ps.workers[0].alive && ps.workers[1].alive;
      },
      5000));
  uint64_t before = (*monitor)->stats().notifications;
  (*monitor)->ProcessFetch("http://w0.example/probe.xml", "<p>v1</p>");
  (*monitor)->ProcessFetch("http://w0.example/probe.xml", "<p>v2</p>");
  EXPECT_GT((*monitor)->stats().notifications, before);
}

// --------------------------------------------------------- shared barrier --
// Thread shards and worker processes run one scatter/barrier/gather; only
// the ShardTransport under it differs. These pin the barrier's containment
// accounting and its deadline on the process substrate.

/// The four sweep subscriptions; false if any was refused.
bool SubscribeSweep(XylemeMonitor& monitor) {
  for (int i = 0; i < 4; ++i) {
    if (!monitor
             .Subscribe(testing::SweepSubText(i),
                        "u" + std::to_string(i) + "@x")
             .ok()) {
      return false;
    }
  }
  return true;
}

/// Version `round` of the twelve sweep URLs.
std::vector<webstub::FetchedDoc> SweepBatch(int round) {
  std::vector<webstub::FetchedDoc> batch;
  for (int j = 0; j < 12; ++j) {
    batch.push_back({testing::SweepUrl(j), testing::SweepBody(j, round)});
  }
  return batch;
}

struct AccountingRun {
  std::vector<std::pair<std::string, std::string>> mail;  // (to, body)
  XylemeMonitor::Stats stats;
  system::PipelineStats pipeline;
};

/// Four rounds over the sweep URLs while `poison`'s detect stage throws on
/// its first two calls: two contained failures quarantine the URL, and the
/// last two rounds reject it at the scatter.
AccountingRun RunPoisonWorkload(ShardMode mode, const std::string& dir,
                                const std::string& poison) {
  AccountingRun out;
  // Per run: in process mode each worker builds its own injector from the
  // plan, so a shared one would carry the thread run's call counts over.
  StageFaultInjector injector(StageFaultPlan{
      {{StageKind::kDetect, poison, 1, StageFaultKind::kThrow},
       {StageKind::kDetect, poison, 2, StageFaultKind::kThrow}}});
  SimClock clock(1000);
  auto options = IpcOptions(mode, 2, dir);
  options.stage_faults = &injector;
  options.max_stage_failures_per_url = 2;
  auto monitor = XylemeMonitor::Open(&clock, options);
  EXPECT_TRUE(monitor.ok()) << monitor.status().ToString();
  if (!monitor.ok()) return out;
  EXPECT_TRUE(SubscribeSweep(**monitor));
  for (int round = 1; round <= 4; ++round) {
    (*monitor)->ProcessFetchBatch(SweepBatch(round));
    clock.Advance(kDay);
    (*monitor)->Tick();
  }
  for (const reporter::Email& email : (*monitor)->outbox().sent()) {
    out.mail.emplace_back(email.to, email.body);
  }
  out.stats = (*monitor)->stats();
  out.pipeline = (*monitor)->pipeline_stats();
  return out;
}

TEST(SharedBarrierTest, ContainedThrowsAccountAlikeOnThreadsAndWorkers) {
  const std::string poison = testing::SweepUrl(0);
  TempDir thread_dir("poison_threads");
  AccountingRun threads =
      RunPoisonWorkload(ShardMode::kThread, thread_dir.path, poison);
  ASSERT_FALSE(threads.mail.empty());
  EXPECT_EQ(threads.pipeline.stage_failures, 2u);
  EXPECT_EQ(threads.pipeline.poisoned_urls, 1u);
  EXPECT_EQ(threads.pipeline.poison_rejections, 2u);
  EXPECT_EQ(threads.stats.failed_documents, 4u);

  TempDir worker_dir("poison_workers");
  AccountingRun workers =
      RunPoisonWorkload(ShardMode::kProcess, worker_dir.path, poison);
  EXPECT_EQ(workers.mail, threads.mail);
  EXPECT_EQ(workers.stats, threads.stats);
  EXPECT_EQ(workers.stats.failed_documents, threads.stats.failed_documents);
  EXPECT_EQ(workers.pipeline.stage_failures, threads.pipeline.stage_failures);
  EXPECT_EQ(workers.pipeline.poisoned_urls, threads.pipeline.poisoned_urls);
  EXPECT_EQ(workers.pipeline.poison_rejections,
            threads.pipeline.poison_rejections);
  ASSERT_EQ(workers.pipeline.shard_status.size(), 2u);
  EXPECT_EQ(workers.pipeline.shard_status, threads.pipeline.shard_status);
  EXPECT_EQ(workers.pipeline.worker_crashes, 0u);
}

TEST(SharedBarrierTest, DeadlineQuarantinesAStalledWorkerAndRestartsIt) {
  const std::string stalled = testing::SweepUrl(0);
  // Round 1 establishes every document. Round 2 sends the stalled URL plus
  // only the *other* worker's documents straight to the pipeline, so its
  // outcomes are visible (and undelivered in both runs). Round 3 goes
  // through the monitor, which restarts the quarantined shard first; its
  // mail must equal the unstalled run's.
  auto run = [&](bool stall, std::vector<std::string>* round3_mail) {
    // The stall outlives the batch deadline but not the heartbeat timeout:
    // the barrier's watchdog, not the wedge detector, releases the batch.
    // All three bounds stretch together under XYMON_TEST_TIME_SCALE.
    StageFaultInjector injector(StageFaultPlan{
        {{StageKind::kDetect, stalled, 2, StageFaultKind::kStall,
          ScaledMs(2000)}}});
    TempDir dir(stall ? "deadline_stalled" : "deadline_clean");
    SimClock clock(1000);
    auto options = IpcOptions(ShardMode::kProcess, 2, dir.path);
    if (stall) options.stage_faults = &injector;
    options.batch_deadline_ms = ScaledMs(300);
    options.worker_heartbeat_timeout_ms = ScaledMs(5000);
    auto monitor = XylemeMonitor::Open(&clock, options);
    ASSERT_TRUE(monitor.ok()) << monitor.status().ToString();
    ASSERT_TRUE(SubscribeSweep(**monitor));
    (*monitor)->ProcessFetchBatch(SweepBatch(1));
    clock.Advance(kDay);
    (*monitor)->Tick();

    system::IngestPipeline& pipeline = (*monitor)->pipeline();
    const size_t stuck = pipeline.ShardFor(stalled);
    std::vector<system::DocJob> jobs;
    for (const webstub::FetchedDoc& doc : SweepBatch(2)) {
      if (doc.url == stalled || pipeline.ShardFor(doc.url) != stuck) {
        jobs.push_back({doc.url, doc.body, /*deletion=*/false});
      }
    }
    ASSERT_GT(jobs.size(), 1u);
    ASSERT_EQ(jobs[0].url, stalled);
    std::vector<system::DocOutcome> outcomes;
    pipeline.ProcessBatch(jobs, clock.Now(), /*sink=*/nullptr, &outcomes);
    ASSERT_EQ(outcomes.size(), jobs.size());
    for (size_t i = 1; i < outcomes.size(); ++i) {
      EXPECT_FALSE(outcomes[i].failed) << jobs[i].url;
    }
    system::PipelineStats ps = (*monitor)->pipeline_stats();
    if (stall) {
      EXPECT_TRUE(outcomes[0].failed);
      EXPECT_EQ(outcomes[0].failed_stage, "deadline");
      EXPECT_EQ(outcomes[0].status.code(), StatusCode::kDeadlineExceeded)
          << outcomes[0].status.ToString();
      EXPECT_EQ(ps.deadline_exceeded, 1u);
      EXPECT_EQ(ps.shard_status[stuck].health,
                system::ShardHealth::kQuarantined);
      EXPECT_EQ(ps.shard_status[stuck].deadline_failures, 1u);
      EXPECT_EQ(ps.shard_status[1 - stuck].health,
                system::ShardHealth::kHealthy);
    } else {
      EXPECT_FALSE(outcomes[0].failed);
      EXPECT_EQ(ps.deadline_exceeded, 0u);
    }

    size_t sent_before = (*monitor)->outbox().sent().size();
    (*monitor)->ProcessFetchBatch(SweepBatch(3));
    clock.Advance(kDay);
    (*monitor)->Tick();
    for (size_t i = sent_before; i < (*monitor)->outbox().sent().size();
         ++i) {
      round3_mail->push_back((*monitor)->outbox().sent()[i].body);
    }

    ps = (*monitor)->pipeline_stats();
    // One restart from the partition, by the supervisor's own hand: the
    // kill that stopped the stalled worker is not a crash.
    EXPECT_EQ(ps.shard_restarts, stall ? 1u : 0u);
    EXPECT_EQ(ps.worker_respawns, stall ? 1u : 0u);
    EXPECT_EQ(ps.worker_crashes, 0u);
    EXPECT_TRUE((*monitor)->restart_status().ok())
        << (*monitor)->restart_status().ToString();
    for (const system::ShardStatus& ss : ps.shard_status) {
      EXPECT_EQ(ss.health, system::ShardHealth::kHealthy);
    }
    for (const system::WorkerStatus& w : ps.workers) {
      EXPECT_TRUE(w.alive);
    }
    EXPECT_EQ(pipeline.total_document_count(), 12u);
  };

  std::vector<std::string> stalled_round3;
  run(/*stall=*/true, &stalled_round3);
  if (::testing::Test::HasFatalFailure()) return;
  std::vector<std::string> clean_round3;
  run(/*stall=*/false, &clean_round3);

  ASSERT_FALSE(clean_round3.empty());
  EXPECT_EQ(stalled_round3, clean_round3);
}

}  // namespace
}  // namespace xymon
