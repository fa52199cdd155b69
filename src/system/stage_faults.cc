#include "src/system/stage_faults.h"

#include <chrono>
#include <stdexcept>
#include <thread>

namespace xymon::system {

const char* StageKindName(StageKind stage) {
  switch (stage) {
    case StageKind::kIngest:
      return "ingest";
    case StageKind::kDetect:
      return "detect";
    case StageKind::kMatch:
      return "match";
  }
  return "unknown";
}

const char* StageFaultKindName(StageFaultKind kind) {
  switch (kind) {
    case StageFaultKind::kThrow:
      return "throw";
    case StageFaultKind::kCorrupt:
      return "corrupt";
    case StageFaultKind::kStall:
      return "stall";
  }
  return "unknown";
}

std::optional<StageFaultSpec> StageFaultInjector::OnCall(
    StageKind stage, const std::string& url) {
  std::lock_guard<std::mutex> lock(mutex_);
  uint32_t nth = ++counts_[{static_cast<int>(stage), url}];
  if (recording_) {
    StageFaultSpec call;
    call.stage = stage;
    call.url = url;
    call.nth = nth;
    recorded_.push_back(std::move(call));
  }
  for (const StageFaultSpec& spec : plan_.faults) {
    if (spec.stage == stage && spec.nth == nth && spec.url == url) {
      ++fired_;
      return spec;
    }
  }
  return std::nullopt;
}

std::vector<StageFaultSpec> StageFaultInjector::recorded_calls() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return recorded_;
}

uint64_t StageFaultInjector::faults_fired() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return fired_;
}

void StageFaultInjector::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  counts_.clear();
  recorded_.clear();
  fired_ = 0;
}

namespace {

[[noreturn]] void ThrowInjected(StageKind stage, const std::string& url) {
  throw std::runtime_error(std::string("injected ") + StageKindName(stage) +
                           " fault for " + url);
}

void Stall(uint32_t stall_ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms));
}

}  // namespace

warehouse::IngestResult FaultyIngestStage::Ingest(
    const warehouse::FetchedContent& page, Timestamp now,
    uint64_t preassigned_docid) {
  auto fault = injector_->OnCall(StageKind::kIngest, page.url);
  if (fault.has_value()) {
    switch (fault->kind) {
      case StageFaultKind::kThrow:
        ThrowInjected(StageKind::kIngest, page.url);
      case StageFaultKind::kCorrupt: {
        // Nothing reaches the warehouse; a degraded placeholder comes back
        // (the shape of a parse failure, so downstream stages skip cleanly).
        warehouse::IngestResult corrupt;
        corrupt.meta.url = page.url;
        corrupt.degraded = true;
        return corrupt;
      }
      case StageFaultKind::kStall:
        Stall(fault->stall_ms);
        break;
    }
  }
  return inner_->Ingest(page, now, preassigned_docid);
}

Result<warehouse::IngestResult> FaultyIngestStage::Delete(
    const std::string& url, Timestamp now) {
  auto fault = injector_->OnCall(StageKind::kIngest, url);
  if (fault.has_value()) {
    switch (fault->kind) {
      case StageFaultKind::kThrow:
        ThrowInjected(StageKind::kIngest, url);
      case StageFaultKind::kCorrupt:
        // The deletion never reaches the warehouse.
        return Status::Unavailable("injected ingest corruption for " + url);
      case StageFaultKind::kStall:
        Stall(fault->stall_ms);
        break;
    }
  }
  return inner_->Delete(url, now);
}

std::optional<mqp::AlertMessage> FaultyDetectStage::Detect(
    const warehouse::IngestResult& ingest, std::string_view raw_body) {
  auto fault = injector_->OnCall(StageKind::kDetect, ingest.meta.url);
  if (fault.has_value()) {
    switch (fault->kind) {
      case StageFaultKind::kThrow:
        ThrowInjected(StageKind::kDetect, ingest.meta.url);
      case StageFaultKind::kCorrupt: {
        // A detected alert with its event set stripped: well-formed, wrong,
        // and inert in the matcher (no events -> no complex-event match).
        mqp::AlertMessage corrupt;
        corrupt.docid = ingest.meta.docid;
        corrupt.url = ingest.meta.url;
        return corrupt;
      }
      case StageFaultKind::kStall:
        Stall(fault->stall_ms);
        break;
    }
  }
  return inner_->Detect(ingest, raw_body);
}

void FaultyMatchStage::Match(const mqp::AlertMessage& alert,
                             std::vector<mqp::MqpNotification>* out) {
  auto fault = injector_->OnCall(StageKind::kMatch, alert.url);
  if (fault.has_value()) {
    switch (fault->kind) {
      case StageFaultKind::kThrow:
        ThrowInjected(StageKind::kMatch, alert.url);
      case StageFaultKind::kCorrupt: {
        // The real matches are replaced by a complex-event id no binding
        // knows — resolution must shrug it off.
        out->push_back(
            mqp::MqpNotification{~mqp::ComplexEventId{0}, &alert});
        return;
      }
      case StageFaultKind::kStall:
        Stall(fault->stall_ms);
        break;
    }
  }
  inner_->Match(alert, out);
}

}  // namespace xymon::system
