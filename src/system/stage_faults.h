#ifndef XYMON_SYSTEM_STAGE_FAULTS_H_
#define XYMON_SYSTEM_STAGE_FAULTS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/system/pipeline.h"

namespace xymon::system {

// ---------------------------------------------------------------------------
// Stage-level fault injection (DESIGN.md §13) — the SyntheticWeb FaultPlan
// idiom lifted one layer up: instead of the *web* misbehaving, a pipeline
// *stage* does. A StageFaultPlan names exact call points (stage, url, nth
// call for that url) and what goes wrong there; the FaultyStage decorators
// wrap a shard's real stages and consult a shared StageFaultInjector on
// every call. Keying by (stage, url, per-url call index) rather than a
// global call counter makes a plan shard-count invariant: each URL's calls
// are FIFO on its owning shard, so its nth ingest is the same document
// version at 1 shard and at 8.
// ---------------------------------------------------------------------------

/// The stage a fault targets.
enum class StageKind { kIngest, kDetect, kMatch };

const char* StageKindName(StageKind stage);

/// What goes wrong at the targeted call (mirrors the FetchFault taxonomy):
///   * kThrow   — the stage throws (a bug / OOM / assertion stand-in); the
///     containment layer must absorb it into a failed DocOutcome.
///   * kCorrupt — the stage returns a well-formed but wrong result (ingest:
///     nothing stored, a degraded placeholder comes back; detect: an alert
///     with its events stripped; match: the real matches replaced by a
///     complex-event id that exists nowhere).
///   * kStall   — the stage sleeps for `stall_ms`, then runs normally (a
///     wedged dependency; what the batch deadline/watchdog is for).
enum class StageFaultKind { kThrow, kCorrupt, kStall };

const char* StageFaultKindName(StageFaultKind kind);

/// One injected fault: the `nth` call (1-based) of `stage` for `url`.
struct StageFaultSpec {
  StageKind stage = StageKind::kIngest;
  std::string url;
  uint32_t nth = 1;
  StageFaultKind kind = StageFaultKind::kThrow;
  uint32_t stall_ms = 0;  // kStall only

  bool operator==(const StageFaultSpec&) const = default;
};

struct StageFaultPlan {
  std::vector<StageFaultSpec> faults;
};

/// Thread-safe fault oracle shared by every shard's decorators. Counts the
/// per-(stage, url) calls, fires the plan's matching specs, and — in record
/// mode — logs every call point so a sweep can first enumerate a clean
/// run's call points and then replay the workload faulting each one
/// (crash-sweep style).
class StageFaultInjector {
 public:
  StageFaultInjector() = default;
  explicit StageFaultInjector(StageFaultPlan plan) : plan_(std::move(plan)) {}

  void set_plan(StageFaultPlan plan) {
    std::lock_guard<std::mutex> lock(mutex_);
    plan_ = std::move(plan);
  }

  void set_recording(bool on) {
    std::lock_guard<std::mutex> lock(mutex_);
    recording_ = on;
  }

  /// The active plan (copied). The process-mode pipeline ships it to every
  /// shard worker so their decorators replay the same faults.
  StageFaultPlan plan() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return plan_;
  }

  /// Decorator hook: advances the (stage, url) call counter and returns the
  /// fault to apply to this call, if the plan names it.
  std::optional<StageFaultSpec> OnCall(StageKind stage, const std::string& url);

  /// Every call point observed while recording, as replayable specs
  /// (kind/stall_ms left at their defaults), in observation order. Sort
  /// before comparing across shard counts: the *set* is invariant, the
  /// interleaving is not.
  std::vector<StageFaultSpec> recorded_calls() const;

  uint64_t faults_fired() const;

  /// Clears counters and recordings (not the plan) — call between runs that
  /// reuse one injector.
  void Reset();

 private:
  mutable std::mutex mutex_;
  StageFaultPlan plan_;
  bool recording_ = false;
  std::map<std::pair<int, std::string>, uint32_t> counts_;
  std::vector<StageFaultSpec> recorded_;
  uint64_t fired_ = 0;
};

// -- Decorators --------------------------------------------------------------
// Installed by the pipeline over each shard's default stage adapters when
// Options::stage_faults is set; every shard shares the one injector.

class FaultyIngestStage : public IngestStage {
 public:
  FaultyIngestStage(std::unique_ptr<IngestStage> inner,
                    StageFaultInjector* injector)
      : inner_(std::move(inner)), injector_(injector) {}

  warehouse::IngestResult Ingest(const warehouse::FetchedContent& page,
                                 Timestamp now,
                                 uint64_t preassigned_docid) override;
  Result<warehouse::IngestResult> Delete(const std::string& url,
                                         Timestamp now) override;

 private:
  std::unique_ptr<IngestStage> inner_;
  StageFaultInjector* injector_;
};

class FaultyDetectStage : public DetectStage {
 public:
  FaultyDetectStage(std::unique_ptr<DetectStage> inner,
                    StageFaultInjector* injector)
      : inner_(std::move(inner)), injector_(injector) {}

  std::optional<mqp::AlertMessage> Detect(const warehouse::IngestResult& ingest,
                                          std::string_view raw_body) override;

 private:
  std::unique_ptr<DetectStage> inner_;
  StageFaultInjector* injector_;
};

class FaultyMatchStage : public MatchStage {
 public:
  FaultyMatchStage(std::unique_ptr<MatchStage> inner,
                   StageFaultInjector* injector)
      : inner_(std::move(inner)), injector_(injector) {}

  void Match(const mqp::AlertMessage& alert,
             std::vector<mqp::MqpNotification>* out) override;

 private:
  std::unique_ptr<MatchStage> inner_;
  StageFaultInjector* injector_;
};

}  // namespace xymon::system

#endif  // XYMON_SYSTEM_STAGE_FAULTS_H_
