#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/system/monitor.h"

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
int64_t NowNs();

/// One timed call into a module. Spans of the caller thread nest by
/// `parent`; stage spans on a shard name the batch span that caused them
/// and the document (URL) they processed.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = top level
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int shard = -1;  // -1 = the caller thread
  std::string doc;
};

/// The shard-side layers the probe times from outside the program.
enum Layer { kIngest, kDetect, kMatch, kResolve, kLayerCount };

/// Instrumentation of a traced run. Install() wraps every shard's stage
/// seams (ingest/detect/match) and the stage-4a resolver in timing
/// decorators that report here. Recording is switched per round, so one
/// run can alternate traced and untraced rounds; while off, the decorators
/// only forward.
///
/// Spans live in per-thread buffers and are collected once the run is over.
/// Counters are atomics: the shard threads write them during a batch and
/// the caller reads them between batches.
class Probe {
 public:
  explicit Probe(size_t shards);

  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  /// Swaps timing decorators into every shard of `monitor`'s pipeline and
  /// installs a timing resolver over a BindingResolver of the monitor's
  /// manager. Thread and inline topologies only: in process mode the seams
  /// run inside the workers. The probe must outlive the monitor.
  void Install(xymon::system::XylemeMonitor& monitor);

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Parent id for the stage spans of the batch about to run.
  void set_batch_span(uint64_t id) {
    batch_span_.store(id, std::memory_order_relaxed);
  }
  uint64_t NewSpanId() { return next_id_.fetch_add(1) + 1; }

  /// A stage call on `shard` (any thread).
  void RecordStage(Layer layer, size_t shard, int64_t start, int64_t end,
                   const std::string& url);
  /// A span of the calling thread.
  void Record(Span span);

  /// Per-shard stage time since the last call (caller thread, between
  /// batches).
  std::vector<int64_t> TakeShardBusy();

  /// Every recorded span, buffers of all threads concatenated.
  std::vector<Span> CollectSpans();

  std::atomic<int64_t> layer_ns[kLayerCount] = {};
  std::atomic<uint64_t> layer_calls[kLayerCount] = {};
  std::atomic<uint64_t> changes{0};  // diff ElementChanges from ingest
  std::atomic<uint64_t> alerts{0};   // detect calls that raised an alert
  std::atomic<uint64_t> matches{0};  // MQP notifications
  std::atomic<uint64_t> actions{0};  // resolved DeliveryActions

 private:
  std::vector<Span>& LocalBuffer();

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> batch_span_{0};
  std::atomic<uint64_t> next_id_{0};
  std::unique_ptr<std::atomic<int64_t>[]> shard_busy_;
  size_t shards_;
  std::unique_ptr<xymon::system::NotifyResolver> resolver_;
  std::mutex mutex_;  // guards buffers_ (registration and collection)
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;
};

/// Self time per span name: each span's duration minus the part of it that
/// its children cover (children on several shards may overlap; their union
/// counts once).
std::map<std::string, int64_t> SelfTimes(const std::vector<Span>& spans);

/// Writes one JSON object per span; false when the file cannot be written.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans,
                int64_t origin_ns);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
