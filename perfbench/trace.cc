#include "perfbench/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>
#include <utility>

#include "src/system/binding_resolver.h"

namespace perfbench {

using xymon::system::DetectStage;
using xymon::system::DocOutcome;
using xymon::system::IngestStage;
using xymon::system::MatchStage;
using xymon::system::NotifyResolver;

namespace {

// Shard of the document the calling thread is processing: the ingest
// decorator sets it, the shared resolver (one instance for all shards)
// reads it. Stages 1-4a of a document run on one thread.
thread_local size_t tls_shard = 0;

class TimedIngest : public IngestStage {
 public:
  TimedIngest(std::unique_ptr<IngestStage> inner, size_t shard, Probe* probe)
      : inner_(std::move(inner)), shard_(shard), probe_(probe) {}

  xymon::warehouse::IngestResult Ingest(
      const xymon::warehouse::FetchedContent& page, xymon::Timestamp now,
      uint64_t preassigned_docid) override {
    tls_shard = shard_;
    if (!probe_->enabled()) return inner_->Ingest(page, now, preassigned_docid);
    int64_t start = NowNs();
    xymon::warehouse::IngestResult result =
        inner_->Ingest(page, now, preassigned_docid);
    probe_->RecordStage(kIngest, shard_, start, NowNs(), page.url);
    probe_->changes.fetch_add(result.diff.changes.size(),
                              std::memory_order_relaxed);
    return result;
  }

  xymon::Result<xymon::warehouse::IngestResult> Delete(
      const std::string& url, xymon::Timestamp now) override {
    return inner_->Delete(url, now);
  }

 private:
  std::unique_ptr<IngestStage> inner_;
  size_t shard_;
  Probe* probe_;
};

class TimedDetect : public DetectStage {
 public:
  TimedDetect(std::unique_ptr<DetectStage> inner, size_t shard, Probe* probe)
      : inner_(std::move(inner)), shard_(shard), probe_(probe) {}

  std::optional<xymon::mqp::AlertMessage> Detect(
      const xymon::warehouse::IngestResult& ingest,
      std::string_view raw_body) override {
    if (!probe_->enabled()) return inner_->Detect(ingest, raw_body);
    int64_t start = NowNs();
    std::optional<xymon::mqp::AlertMessage> alert =
        inner_->Detect(ingest, raw_body);
    probe_->RecordStage(kDetect, shard_, start, NowNs(), ingest.meta.url);
    if (alert.has_value()) probe_->alerts.fetch_add(1, std::memory_order_relaxed);
    return alert;
  }

 private:
  std::unique_ptr<DetectStage> inner_;
  size_t shard_;
  Probe* probe_;
};

class TimedMatch : public MatchStage {
 public:
  TimedMatch(std::unique_ptr<MatchStage> inner, size_t shard, Probe* probe)
      : inner_(std::move(inner)), shard_(shard), probe_(probe) {}

  void Match(const xymon::mqp::AlertMessage& alert,
             std::vector<xymon::mqp::MqpNotification>* out) override {
    if (!probe_->enabled()) return inner_->Match(alert, out);
    size_t before = out->size();
    int64_t start = NowNs();
    inner_->Match(alert, out);
    probe_->RecordStage(kMatch, shard_, start, NowNs(), alert.url);
    probe_->matches.fetch_add(out->size() - before, std::memory_order_relaxed);
  }

 private:
  std::unique_ptr<MatchStage> inner_;
  size_t shard_;
  Probe* probe_;
};

class TimedResolver : public NotifyResolver {
 public:
  TimedResolver(const xymon::manager::SubscriptionManager* manager,
                Probe* probe)
      : inner_(manager), probe_(probe) {}

  void Resolve(const xymon::warehouse::IngestResult& ingest,
               const std::vector<xymon::mqp::MqpNotification>& matches,
               DocOutcome* out) const override {
    if (!probe_->enabled()) return inner_.Resolve(ingest, matches, out);
    size_t before = out->actions.size();
    int64_t start = NowNs();
    inner_.Resolve(ingest, matches, out);
    probe_->RecordStage(kResolve, tls_shard, start, NowNs(), ingest.meta.url);
    probe_->actions.fetch_add(out->actions.size() - before,
                              std::memory_order_relaxed);
  }

 private:
  xymon::system::BindingResolver inner_;
  Probe* probe_;
};

const char* LayerSpanName(Layer layer) {
  switch (layer) {
    case kIngest:
      return "warehouse.ingest";
    case kDetect:
      return "alerters.detect";
    case kMatch:
      return "mqp.match";
    case kResolve:
      return "system.resolve";
    case kLayerCount:
      break;
  }
  return "?";
}

void AppendJsonString(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') out->push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out->push_back(c);
  }
  out->push_back('"');
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Probe::Probe(size_t shards)
    : shard_busy_(std::make_unique<std::atomic<int64_t>[]>(shards)),
      shards_(shards) {}

std::vector<Span>& Probe::LocalBuffer() {
  // One probe per process: a thread registers its buffer on first use.
  thread_local std::vector<Span>* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::make_unique<std::vector<Span>>());
    buffer = buffers_.back().get();
  }
  return *buffer;
}

void Probe::RecordStage(Layer layer, size_t shard, int64_t start, int64_t end,
                        const std::string& url) {
  layer_ns[layer].fetch_add(end - start, std::memory_order_relaxed);
  layer_calls[layer].fetch_add(1, std::memory_order_relaxed);
  shard_busy_[shard].fetch_add(end - start, std::memory_order_relaxed);
  Record(Span{NewSpanId(), batch_span_.load(std::memory_order_relaxed),
              LayerSpanName(layer), start, end, static_cast<int>(shard), url});
}

void Probe::Record(Span span) { LocalBuffer().push_back(std::move(span)); }

std::vector<int64_t> Probe::TakeShardBusy() {
  std::vector<int64_t> out(shards_);
  for (size_t i = 0; i < shards_; ++i) {
    out[i] = shard_busy_[i].exchange(0, std::memory_order_relaxed);
  }
  return out;
}

std::vector<Span> Probe::CollectSpans() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> out;
  for (const auto& buffer : buffers_) {
    out.insert(out.end(), buffer->begin(), buffer->end());
  }
  return out;
}

void Probe::Install(xymon::system::XylemeMonitor& monitor) {
  xymon::system::IngestPipeline& pipeline = monitor.pipeline();
  for (size_t i = 0; i < pipeline.shard_count(); ++i) {
    xymon::system::PipelineShard& shard = pipeline.shard(i);
    shard.ingest_stage = std::make_unique<TimedIngest>(
        std::move(shard.ingest_stage), i, this);
    shard.detect_stage = std::make_unique<TimedDetect>(
        std::move(shard.detect_stage), i, this);
    shard.match_stage = std::make_unique<TimedMatch>(
        std::move(shard.match_stage), i, this);
  }
  resolver_ = std::make_unique<TimedResolver>(&monitor.manager(), this);
  pipeline.set_resolver(resolver_.get());
}

std::map<std::string, int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<const Span*>> children;
  for (const Span& span : spans) {
    if (span.parent != 0) children[span.parent].push_back(&span);
  }
  std::map<std::string, int64_t> out;
  std::vector<std::pair<int64_t, int64_t>> cover;
  for (const Span& span : spans) {
    int64_t covered = 0;
    auto it = children.find(span.id);
    if (it != children.end()) {
      cover.clear();
      for (const Span* child : it->second) {
        int64_t lo = std::max(child->start_ns, span.start_ns);
        int64_t hi = std::min(child->end_ns, span.end_ns);
        if (lo < hi) cover.emplace_back(lo, hi);
      }
      std::sort(cover.begin(), cover.end());
      int64_t run_lo = 0, run_hi = -1;
      for (const auto& [lo, hi] : cover) {
        if (lo > run_hi) {
          if (run_hi > run_lo) covered += run_hi - run_lo;
          run_lo = lo;
          run_hi = hi;
        } else {
          run_hi = std::max(run_hi, hi);
        }
      }
      if (run_hi > run_lo) covered += run_hi - run_lo;
    }
    out[span.name] += (span.end_ns - span.start_ns) - covered;
  }
  return out;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans,
                int64_t origin_ns) {
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::string line;
  for (const Span& span : spans) {
    line = "{\"id\": " + std::to_string(span.id) +
           ", \"parent\": " + std::to_string(span.parent) + ", \"name\": ";
    AppendJsonString(span.name, &line);
    line += ", \"start_ns\": " + std::to_string(span.start_ns - origin_ns) +
            ", \"end_ns\": " + std::to_string(span.end_ns - origin_ns) +
            ", \"shard\": " + std::to_string(span.shard) + ", \"doc\": ";
    AppendJsonString(span.doc, &line);
    line += "}\n";
    fputs(line.c_str(), f);
  }
  return fclose(f) == 0;
}

}  // namespace perfbench
