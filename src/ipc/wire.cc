#include "src/ipc/wire.h"

#include <errno.h>
#include <poll.h>
#include <signal.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <mutex>

#include "src/storage/log_store.h"

namespace xymon::ipc {

namespace {

using steady = std::chrono::steady_clock;

uint32_t ElapsedMs(steady::time_point start) {
  return static_cast<uint32_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(steady::now() -
                                                            start)
          .count());
}

void PutU32(std::string* buf, uint32_t v) {
  char b[4];
  b[0] = static_cast<char>(v & 0xFF);
  b[1] = static_cast<char>((v >> 8) & 0xFF);
  b[2] = static_cast<char>((v >> 16) & 0xFF);
  b[3] = static_cast<char>((v >> 24) & 0xFF);
  buf->append(b, 4);
}

uint32_t GetU32(const char* p) {
  return static_cast<uint32_t>(static_cast<unsigned char>(p[0])) |
         static_cast<uint32_t>(static_cast<unsigned char>(p[1])) << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(p[2])) << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(p[3])) << 24;
}

}  // namespace

const char* MsgTypeName(MsgType type) {
  switch (type) {
    case MsgType::kHello: return "Hello";
    case MsgType::kHelloAck: return "HelloAck";
    case MsgType::kOpenPartition: return "OpenPartition";
    case MsgType::kSubscribe: return "Subscribe";
    case MsgType::kUnsubscribe: return "Unsubscribe";
    case MsgType::kDomainRule: return "DomainRule";
    case MsgType::kCmdAck: return "CmdAck";
    case MsgType::kSlot: return "Slot";
    case MsgType::kSlotResult: return "SlotResult";
    case MsgType::kCheckpoint: return "Checkpoint";
    case MsgType::kCheckpointDone: return "CheckpointDone";
    case MsgType::kPing: return "Ping";
    case MsgType::kPong: return "Pong";
    case MsgType::kQueryDomain: return "QueryDomain";
    case MsgType::kDomainDocs: return "DomainDocs";
    case MsgType::kDtdIdReq: return "DtdIdReq";
    case MsgType::kDtdIdResp: return "DtdIdResp";
    case MsgType::kShutdown: return "Shutdown";
  }
  return "unknown";
}

// -- WireWriter / WireReader -------------------------------------------------

void WireWriter::U32(uint32_t v) { PutU32(&buf_, v); }

void WireWriter::U64(uint64_t v) {
  U32(static_cast<uint32_t>(v & 0xFFFFFFFFu));
  U32(static_cast<uint32_t>(v >> 32));
}

void WireWriter::Str(std::string_view s) {
  U32(static_cast<uint32_t>(s.size()));
  buf_.append(s.data(), s.size());
}

bool WireReader::U8(uint8_t* out) {
  if (!ok_ || data_.size() - pos_ < 1) return ok_ = false;
  *out = static_cast<uint8_t>(data_[pos_++]);
  return true;
}

bool WireReader::U32(uint32_t* out) {
  if (!ok_ || data_.size() - pos_ < 4) return ok_ = false;
  *out = GetU32(data_.data() + pos_);
  pos_ += 4;
  return true;
}

bool WireReader::U64(uint64_t* out) {
  uint32_t lo = 0, hi = 0;
  if (!U32(&lo) || !U32(&hi)) return false;
  *out = static_cast<uint64_t>(lo) | static_cast<uint64_t>(hi) << 32;
  return true;
}

bool WireReader::I64(int64_t* out) {
  uint64_t v = 0;
  if (!U64(&v)) return false;
  *out = static_cast<int64_t>(v);
  return true;
}

bool WireReader::Str(std::string* out) {
  uint32_t len = 0;
  if (!U32(&len)) return false;
  // The length is validated against the bytes actually present before any
  // allocation — a bit-flipped length cannot drive an oversized reserve.
  if (data_.size() - pos_ < len) return ok_ = false;
  out->assign(data_.data() + pos_, len);
  pos_ += len;
  return true;
}

Status DecodeStatus(uint8_t code, std::string message) {
  switch (static_cast<StatusCode>(code)) {
    case StatusCode::kOk: return Status::OK();
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(std::move(message));
    case StatusCode::kNotFound: return Status::NotFound(std::move(message));
    case StatusCode::kAlreadyExists:
      return Status::AlreadyExists(std::move(message));
    case StatusCode::kCorruption: return Status::Corruption(std::move(message));
    case StatusCode::kIOError: return Status::IOError(std::move(message));
    case StatusCode::kFailedPrecondition:
      return Status::FailedPrecondition(std::move(message));
    case StatusCode::kResourceExhausted:
      return Status::ResourceExhausted(std::move(message));
    case StatusCode::kUnimplemented:
      return Status::Unimplemented(std::move(message));
    case StatusCode::kParseError: return Status::ParseError(std::move(message));
    case StatusCode::kUnavailable:
      return Status::Unavailable(std::move(message));
    case StatusCode::kDeadlineExceeded:
      return Status::DeadlineExceeded(std::move(message));
  }
  return Status::Corruption("wire: unknown status code " +
                            std::to_string(code));
}

// -- Frame I/O ---------------------------------------------------------------

void InstallSigpipeIgnore() {
  static std::once_flag once;
  std::call_once(once, [] { ::signal(SIGPIPE, SIG_IGN); });
}

namespace {

/// One bounded write attempt: send(MSG_NOSIGNAL | MSG_DONTWAIT) on sockets,
/// plain write on pipes. Returns bytes written, 0 on would-block, -1 on
/// error (errno preserved).
ssize_t WriteSome(int fd, const char* data, size_t len, bool* is_socket) {
  if (*is_socket) {
    ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n >= 0) return n;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
    if (errno != ENOTSOCK) return -1;
    *is_socket = false;  // a pipe (tests); fall through to write()
  }
  ssize_t n = ::write(fd, data, len);
  if (n >= 0) return n;
  return errno == EAGAIN || errno == EWOULDBLOCK ? 0 : -1;
}

}  // namespace

Status WriteFrame(int fd, std::string_view payload, uint32_t deadline_ms) {
  if (payload.size() > kMaxFrameLen) {
    return Status::InvalidArgument("wire: frame payload over " +
                                   std::to_string(kMaxFrameLen) + " bytes");
  }
  std::string frame;
  frame.reserve(kFrameHeaderLen + payload.size());
  PutU32(&frame, static_cast<uint32_t>(payload.size()));
  PutU32(&frame, storage::Crc32(payload));
  frame.append(payload.data(), payload.size());

  const auto start = steady::now();
  bool is_socket = true;
  size_t off = 0;
  while (off < frame.size()) {
    ssize_t n = WriteSome(fd, frame.data() + off, frame.size() - off,
                          &is_socket);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("wire: write failed: ") +
                             ::strerror(errno));
    }
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    // Would block: poll for writability, bounded by the deadline.
    int wait = -1;
    if (deadline_ms > 0) {
      uint32_t elapsed = ElapsedMs(start);
      if (elapsed >= deadline_ms) {
        return Status::DeadlineExceeded(
            "wire: write blocked past " + std::to_string(deadline_ms) + "ms");
      }
      wait = static_cast<int>(deadline_ms - elapsed);
    }
    struct pollfd pfd{fd, POLLOUT, 0};
    int rc = ::poll(&pfd, 1, wait);
    if (rc < 0 && errno != EINTR) {
      return Status::IOError(std::string("wire: poll failed: ") +
                             ::strerror(errno));
    }
    if (rc == 0) {
      return Status::DeadlineExceeded(
          "wire: write blocked past " + std::to_string(deadline_ms) + "ms");
    }
    if (pfd.revents & (POLLERR | POLLHUP | POLLNVAL)) {
      // Keep trying to write: the error surfaces as EPIPE/ECONNRESET from
      // send, with a precise errno.
      continue;
    }
  }
  return Status::OK();
}

namespace {

Status ReadExact(int fd, char* buf, size_t len) {
  size_t off = 0;
  while (off < len) {
    ssize_t n = ::read(fd, buf + off, len - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("wire: read failed: ") +
                             ::strerror(errno));
    }
    if (n == 0) {
      return Status::IOError(off == 0 ? "wire: peer closed"
                                      : "wire: truncated frame (EOF)");
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

Status ReadFrame(int fd, std::string* payload, uint32_t deadline_ms) {
  if (deadline_ms > 0) {
    const auto start = steady::now();
    while (true) {
      uint32_t elapsed = ElapsedMs(start);
      if (elapsed >= deadline_ms) {
        return Status::DeadlineExceeded("wire: no frame within " +
                                        std::to_string(deadline_ms) + "ms");
      }
      struct pollfd pfd{fd, POLLIN, 0};
      int rc = ::poll(&pfd, 1, static_cast<int>(deadline_ms - elapsed));
      if (rc < 0) {
        if (errno == EINTR) continue;
        return Status::IOError(std::string("wire: poll failed: ") +
                               ::strerror(errno));
      }
      if (rc == 0) {
        return Status::DeadlineExceeded("wire: no frame within " +
                                        std::to_string(deadline_ms) + "ms");
      }
      break;  // readable (or EOF/err — read() reports which)
    }
  }
  char header[kFrameHeaderLen];
  XYMON_RETURN_IF_ERROR(ReadExact(fd, header, sizeof(header)));
  uint32_t len = GetU32(header);
  uint32_t crc = GetU32(header + 4);
  if (len > kMaxFrameLen) {
    return Status::Corruption("wire: frame length " + std::to_string(len) +
                              " over the " + std::to_string(kMaxFrameLen) +
                              "-byte cap");
  }
  payload->resize(len);
  if (len > 0) XYMON_RETURN_IF_ERROR(ReadExact(fd, payload->data(), len));
  if (storage::Crc32(*payload) != crc) {
    return Status::Corruption("wire: frame CRC mismatch");
  }
  return Status::OK();
}

bool PeekType(std::string_view payload, MsgType* out) {
  if (payload.empty()) return false;
  uint8_t t = static_cast<uint8_t>(payload[0]);
  if (t < static_cast<uint8_t>(MsgType::kHello) ||
      t > static_cast<uint8_t>(MsgType::kShutdown)) {
    return false;
  }
  *out = static_cast<MsgType>(t);
  return true;
}

}  // namespace xymon::ipc
