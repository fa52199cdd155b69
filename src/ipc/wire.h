#ifndef XYMON_IPC_WIRE_H_
#define XYMON_IPC_WIRE_H_

#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/status.h"

namespace xymon::ipc {

// ---------------------------------------------------------------------------
// The wire format between the supervisor (IngestPipeline in process mode)
// and its shard worker processes (src/ipc/worker_main.cc) — the stage-seam
// messages of DESIGN.md §14 serialized over a socketpair.
//
// Framing mirrors LogStore's record framing (the same torn/corrupt-input
// discipline, including the 64 MiB length cap that bounds what a corrupt
// header can make a decoder allocate):
//
//   [u32 payload_len][u32 crc32(payload)][payload bytes]
//
// The first payload byte is the MsgType; the rest are the message's fields
// in the order of its one field list, written by WireWriter and read back
// by the bounds-checked WireReader (a truncated or bit-flipped payload
// yields Status::Corruption, never a crash or an oversized allocation —
// every string length is checked against the bytes actually present).
//
// The first frame in each direction is the versioned handshake
// (kHello / kHelloAck); a version or magic mismatch kills the worker before
// any state is exchanged.
// ---------------------------------------------------------------------------

/// "XYMW" — first field of the handshake frame.
inline constexpr uint32_t kWireMagic = 0x58594D57;
inline constexpr uint32_t kWireVersion = 3;
/// Frame-length cap, mirroring storage::kMaxLogRecordLen: a corrupt length
/// field cannot drive an unbounded allocation.
inline constexpr uint32_t kMaxFrameLen = 64u << 20;  // 64 MiB
/// Bytes of frame header preceding the payload.
inline constexpr size_t kFrameHeaderLen = 8;

enum class MsgType : uint8_t {
  kHello = 1,        // sup → wrk: versioned handshake + shard config
  kHelloAck = 2,     // wrk → sup: version + pid
  kOpenPartition = 3,  // sup → wrk: attach the shard's storage partition
  kSubscribe = 4,    // sup → wrk: subscription replay (register)
  kUnsubscribe = 5,  // sup → wrk: subscription replay (unregister)
  kDomainRule = 6,   // sup → wrk: domain-classifier rule replay
  kCmdAck = 7,       // wrk → sup: ack for the four commands above
  kSlot = 8,         // sup → wrk: one scattered batch slot
  kSlotResult = 9,   // wrk → sup: the slot's DocOutcome + stage counters
  kCheckpoint = 10,  // sup → wrk: checkpoint marker (batch boundary)
  kCheckpointDone = 11,  // wrk → sup: partition checkpoint finished
  kPing = 12,        // sup → wrk: heartbeat probe
  kPong = 13,        // wrk → sup: heartbeat answer (+ document count)
  kQueryDomain = 14,  // sup → wrk: continuous-query collection request
  kDomainDocs = 15,  // wrk → sup: the partition's documents in a domain
  kDtdIdReq = 16,    // wrk → sup: global DTDID assignment request
  kDtdIdResp = 17,   // sup → wrk: the assigned id
  kShutdown = 18,    // sup → wrk: clean exit request
};

const char* MsgTypeName(MsgType type);

// -- Bounded encode/decode ---------------------------------------------------

/// A struct that lists its fields in wire order,
///   static auto Fields(auto& m) { return std::tie(m.a, m.b, ...); }
/// Every message, and every struct nested in one, has such a list; it is the
/// one place where the byte layout of a frame is written down.
template <typename T>
concept HasWireFields = requires(T& m) { T::Fields(m); };

template <typename T>
inline constexpr bool kIsWireVector = false;
template <typename T>
inline constexpr bool kIsWireVector<std::vector<T>> = true;

/// Append-only payload builder. Integers are little-endian fixed width;
/// strings and vectors are prefixed with a u32 count; a struct's fields
/// follow inline in the order of its field list.
class WireWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v);
  void U64(uint64_t v);
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void Str(std::string_view s);
  /// Appends a field of any wire type by the rules above.
  template <typename T>
  void Put(const T& v);
  std::string Take() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Bounds-checked payload consumer: every accessor returns false (and poisons
/// the reader) instead of reading past the end, and a string length is
/// validated against the bytes remaining before anything is allocated.
class WireReader {
 public:
  explicit WireReader(std::string_view data) : data_(data) {}

  bool U8(uint8_t* out);
  bool U32(uint32_t* out);
  bool U64(uint64_t* out);
  bool I64(int64_t* out);
  bool Str(std::string* out);
  /// Reads a field of any wire type, the inverse of WireWriter::Put. A
  /// vector is read element by element, with nothing reserved for its
  /// count, and stops at the first short read.
  template <typename T>
  bool Get(T* out);
  bool ok() const { return ok_; }
  bool AtEnd() const { return ok_ && pos_ == data_.size(); }

 private:
  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

template <typename T>
void WireWriter::Put(const T& v) {
  if constexpr (HasWireFields<T>) {
    std::apply([this](const auto&... f) { (Put(f), ...); }, T::Fields(v));
  } else if constexpr (kIsWireVector<T>) {
    U32(static_cast<uint32_t>(v.size()));
    for (const auto& e : v) Put(e);
  } else if constexpr (std::is_same_v<T, std::string>) {
    Str(v);
  } else if constexpr (std::is_same_v<T, uint8_t>) {
    U8(v);
  } else if constexpr (std::is_same_v<T, uint32_t>) {
    U32(v);
  } else if constexpr (std::is_same_v<T, uint64_t>) {
    U64(v);
  } else {
    static_assert(std::is_same_v<T, int64_t>, "no wire encoding for T");
    I64(v);
  }
}

template <typename T>
bool WireReader::Get(T* out) {
  if constexpr (HasWireFields<T>) {
    return std::apply([this](auto&... f) { return (Get(&f) && ...); },
                      T::Fields(*out));
  } else if constexpr (kIsWireVector<T>) {
    uint32_t n = 0;
    if (!U32(&n)) return false;
    out->clear();
    for (uint32_t i = 0; i < n; ++i) {
      if (!Get(&out->emplace_back())) return false;
    }
    return true;
  } else if constexpr (std::is_same_v<T, std::string>) {
    return Str(out);
  } else if constexpr (std::is_same_v<T, uint8_t>) {
    return U8(out);
  } else if constexpr (std::is_same_v<T, uint32_t>) {
    return U32(out);
  } else if constexpr (std::is_same_v<T, uint64_t>) {
    return U64(out);
  } else {
    static_assert(std::is_same_v<T, int64_t>, "no wire encoding for T");
    return I64(out);
  }
}

/// Rebuilds a Status from its wire (code, message) pair.
Status DecodeStatus(uint8_t code, std::string message);

// -- Messages ----------------------------------------------------------------
// Each message names its type byte (`kType`) and lists its fields once;
// Encode and Decode below are generic over both. Decode returns Corruption
// on a type byte other than the message's, a field cut short, a string
// length over the bytes that remain, or trailing bytes (the frame reader
// has already capped the payload at kMaxFrameLen). It does not range-check
// values: an enum byte decodes as sent.

/// One injected stage fault, shipped to the worker so its FaultyStage
/// decorators replay the supervisor's StageFaultPlan.
struct WireFault {
  uint8_t stage = 0;  // system::StageKind
  uint8_t kind = 0;   // system::StageFaultKind
  uint32_t nth = 1;
  uint32_t stall_ms = 0;
  std::string url;

  static auto Fields(auto& m) {
    return std::tie(m.stage, m.kind, m.nth, m.stall_ms, m.url);
  }
};

struct HelloMsg {
  static constexpr MsgType kType = MsgType::kHello;
  uint32_t magic = kWireMagic;
  uint32_t version = kWireVersion;
  uint32_t max_parse_failures = 3;
  std::vector<WireFault> faults;

  static auto Fields(auto& m) {
    return std::tie(m.magic, m.version, m.max_parse_failures, m.faults);
  }
};

struct HelloAckMsg {
  static constexpr MsgType kType = MsgType::kHelloAck;
  uint32_t version = kWireVersion;
  uint64_t pid = 0;

  static auto Fields(auto& m) { return std::tie(m.version, m.pid); }
};

struct OpenPartitionMsg {
  static constexpr MsgType kType = MsgType::kOpenPartition;
  uint64_t seq = 0;
  std::string path;
  uint32_t fsync_every_n = 0;
  uint64_t auto_checkpoint_bytes = 0;

  static auto Fields(auto& m) {
    return std::tie(m.seq, m.path, m.fsync_every_n, m.auto_checkpoint_bytes);
  }
};

struct SubscribeMsg {
  static constexpr MsgType kType = MsgType::kSubscribe;
  uint64_t seq = 0;
  int64_t now = 0;
  uint8_t privileged = 0;
  std::string text;
  std::string email;

  static auto Fields(auto& m) {
    return std::tie(m.seq, m.now, m.privileged, m.text, m.email);
  }
};

struct UnsubscribeMsg {
  static constexpr MsgType kType = MsgType::kUnsubscribe;
  uint64_t seq = 0;
  int64_t now = 0;
  std::string name;

  static auto Fields(auto& m) { return std::tie(m.seq, m.now, m.name); }
};

struct DomainRuleMsg {
  static constexpr MsgType kType = MsgType::kDomainRule;
  uint64_t seq = 0;
  std::string domain;
  std::string doctype_name;
  std::string root_tag;
  std::string url_substring;

  static auto Fields(auto& m) {
    return std::tie(m.seq, m.domain, m.doctype_name, m.root_tag,
                    m.url_substring);
  }
};

struct CmdAckMsg {
  static constexpr MsgType kType = MsgType::kCmdAck;
  uint64_t seq = 0;
  uint8_t status_code = 0;
  std::string status_message;

  static auto Fields(auto& m) {
    return std::tie(m.seq, m.status_code, m.status_message);
  }
};

struct SlotMsg {
  static constexpr MsgType kType = MsgType::kSlot;
  uint64_t batch = 0;
  uint32_t slot = 0;
  uint8_t deletion = 0;
  uint64_t docid_hint = 0;
  int64_t now = 0;
  std::string url;
  std::string body;

  static auto Fields(auto& m) {
    return std::tie(m.batch, m.slot, m.deletion, m.docid_hint, m.now, m.url,
                    m.body);
  }
};

/// system::DeliveryAction over the wire: the binding id (the worker's and
/// the supervisor's managers assign the same ones, DESIGN.md §14) and an
/// index into SlotResultMsg::payloads.
struct WireAction {
  uint32_t binding = 0;
  uint32_t payload = 0;

  static auto Fields(auto& m) { return std::tie(m.binding, m.payload); }
};

struct WireStageDelta {
  uint64_t documents = 0;
  uint64_t micros = 0;

  static auto Fields(auto& m) { return std::tie(m.documents, m.micros); }
};

struct SlotResultMsg {
  static constexpr MsgType kType = MsgType::kSlotResult;
  uint64_t batch = 0;
  uint32_t slot = 0;
  uint8_t processed = 0;
  uint8_t degraded = 0;
  uint8_t alert = 0;
  uint8_t failed = 0;
  std::string failed_stage;
  uint8_t status_code = 0;
  std::string status_message;
  /// Each distinct payload string of the slot, once.
  std::vector<std::string> payloads;
  std::vector<WireAction> actions;
  WireStageDelta ingest, detect, match, notify;
  /// Worker warehouse size after the slot (keeps the supervisor's
  /// total_document_count() current without a round trip).
  uint64_t document_count = 0;

  static auto Fields(auto& m) {
    return std::tie(m.batch, m.slot, m.processed, m.degraded, m.alert,
                    m.failed, m.failed_stage, m.status_code, m.status_message,
                    m.payloads, m.actions, m.ingest, m.detect, m.match,
                    m.notify, m.document_count);
  }
};

struct CheckpointMsg {
  static constexpr MsgType kType = MsgType::kCheckpoint;
  uint64_t seq = 0;

  static auto Fields(auto& m) { return std::tie(m.seq); }
};

struct CheckpointDoneMsg {
  static constexpr MsgType kType = MsgType::kCheckpointDone;
  uint64_t seq = 0;
  uint8_t status_code = 0;
  std::string status_message;
  uint64_t document_count = 0;

  static auto Fields(auto& m) {
    return std::tie(m.seq, m.status_code, m.status_message, m.document_count);
  }
};

struct PingMsg {
  static constexpr MsgType kType = MsgType::kPing;
  uint64_t token = 0;

  static auto Fields(auto& m) { return std::tie(m.token); }
};

struct PongMsg {
  static constexpr MsgType kType = MsgType::kPong;
  uint64_t token = 0;
  uint64_t document_count = 0;

  static auto Fields(auto& m) { return std::tie(m.token, m.document_count); }
};

struct QueryDomainMsg {
  static constexpr MsgType kType = MsgType::kQueryDomain;
  uint64_t seq = 0;
  std::string domain;

  static auto Fields(auto& m) { return std::tie(m.seq, m.domain); }
};

/// warehouse::DocMeta over the wire.
struct WireDocMeta {
  uint64_t docid = 0;
  std::string url;
  std::string filename;
  uint8_t is_xml = 0;
  std::string doctype_name;
  std::string dtd_url;
  uint32_t dtdid = 0;
  std::string domain;
  int64_t last_accessed = 0;
  int64_t last_updated = 0;
  uint64_t signature = 0;
  uint8_t status = 0;  // warehouse::DocStatus

  static auto Fields(auto& m) {
    return std::tie(m.docid, m.url, m.filename, m.is_xml, m.doctype_name,
                    m.dtd_url, m.dtdid, m.domain, m.last_accessed,
                    m.last_updated, m.signature, m.status);
  }
};

struct DomainDocsMsg {
  static constexpr MsgType kType = MsgType::kDomainDocs;
  struct Doc {
    WireDocMeta meta;
    /// Serialized current version (xml::Serialize of the whole Document —
    /// Parse∘Serialize is a fixpoint, so the supervisor re-parses losslessly).
    std::string doc_xml;
    std::string doctype_name;
    std::string dtd_url;

    static auto Fields(auto& m) {
      return std::tie(m.meta, m.doc_xml, m.doctype_name, m.dtd_url);
    }
  };
  uint64_t seq = 0;
  std::vector<Doc> docs;

  static auto Fields(auto& m) { return std::tie(m.seq, m.docs); }
};

struct DtdIdReqMsg {
  static constexpr MsgType kType = MsgType::kDtdIdReq;
  std::string dtd_url;

  static auto Fields(auto& m) { return std::tie(m.dtd_url); }
};

struct DtdIdRespMsg {
  static constexpr MsgType kType = MsgType::kDtdIdResp;
  std::string dtd_url;
  uint32_t id = 0;

  static auto Fields(auto& m) { return std::tie(m.dtd_url, m.id); }
};

struct ShutdownMsg {
  static constexpr MsgType kType = MsgType::kShutdown;

  static auto Fields(auto&) { return std::tie(); }
};

/// A message: a field list plus the type byte that leads its frames.
template <typename Msg>
concept WireMessage = HasWireFields<Msg> && requires {
  { Msg::kType } -> std::convertible_to<MsgType>;
};

/// The full frame payload of `msg`: its type byte, then its fields.
template <WireMessage Msg>
std::string Encode(const Msg& msg) {
  WireWriter w;
  w.U8(static_cast<uint8_t>(Msg::kType));
  w.Put(msg);
  return w.Take();
}

/// Decodes a full frame payload, type byte included, into `out`.
template <WireMessage Msg>
Status Decode(std::string_view payload, Msg* out) {
  WireReader r(payload);
  uint8_t type = 0;
  if (!r.U8(&type) || type != static_cast<uint8_t>(Msg::kType) ||
      !r.Get(out) || !r.AtEnd()) {
    return Status::Corruption(std::string("wire: malformed ") +
                              MsgTypeName(Msg::kType));
  }
  return Status::OK();
}

// -- Frame I/O ---------------------------------------------------------------

/// Ignores SIGPIPE process-wide (idempotent). A worker dying mid-write must
/// surface as an EPIPE Status on the supervisor, never a signal death; both
/// the supervisor (at first spawn) and the worker main call this.
void InstallSigpipeIgnore();

/// Writes one frame. Socket writes use send(MSG_NOSIGNAL) (EPIPE instead of
/// SIGPIPE even if the handler was replaced); pipes fall back to write().
/// `deadline_ms` bounds the total blocking time (0 = no bound): the fd is
/// polled for writability and written in non-blocking slices, so a wedged
/// peer with a full socket buffer yields DeadlineExceeded instead of
/// blocking the scatter thread forever.
Status WriteFrame(int fd, std::string_view payload, uint32_t deadline_ms = 0);

/// Reads exactly one frame into `payload`. Blocking (EINTR-safe).
/// Errors: IOError on EOF/read failure, Corruption on a bad length or CRC.
/// `deadline_ms` bounds the wait for the *first* header byte (0 = block).
Status ReadFrame(int fd, std::string* payload, uint32_t deadline_ms = 0);

/// The MsgType of a frame payload; returns false on an empty or unknown-type
/// payload.
bool PeekType(std::string_view payload, MsgType* out);

}  // namespace xymon::ipc

#endif  // XYMON_IPC_WIRE_H_
