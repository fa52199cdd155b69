// xybench — the repository benchmark. Drives the public XylemeMonitor API
// with one seeded workload in a closed loop with one caller: each crawl
// round's batch is generated before its timer starts, then the round is
// ProcessFetchBatch(batch) followed by Tick(). Afterwards the same inputs are
// replayed, untimed, on another shard topology and the mail must agree.
//
//   xybench --workload ingest|fanout|churn --seed N --seconds S --trace 0|1
//           [--short] [--out-dir DIR] [--git-sha SHA] [--source-digest D]
//
// --trace 0 prints the end-to-end metrics; --trace 1 alternates traced and
// untraced rounds, prints the per-layer split and writes the span file into
// --out-dir. The last line of stdout is one JSON object (see README.md).

#include <sys/personality.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/trace.h"
#include "perfbench/workloads.h"
#include "src/common/hash.h"
#include "src/sublang/parser.h"
#include "src/sublang/validator.h"
#include "src/system/monitor.h"
#include "src/xml/parser.h"
#include "src/xmldiff/diff.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using xymon::system::ShardMode;
using xymon::system::StageCounters;
using xymon::system::XylemeMonitor;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool short_mode = false;
  std::string out_dir = ".";
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--short") {
      args->short_mode = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else if (flag == "--git-sha") {
      args->git_sha = value;
    } else if (flag == "--source-digest") {
      args->source_digest = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// The highest percentile with at least ten samples beyond it: the sample
/// at sorted index n-11. Sets `percentile` to the share of samples at or
/// below it.
double Tail(std::vector<double> v, int* percentile) {
  std::sort(v.begin(), v.end());
  size_t index = v.size() > 10 ? v.size() - 11 : 0;
  *percentile = static_cast<int>(100 * (index + 1) / std::max<size_t>(1, v.size()));
  return v.empty() ? 0 : v[index];
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

uint64_t DirBytes(const fs::path& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(dir, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

/// What the output check compares between the measured run and the replay.
struct Outputs {
  uint64_t inputs = 0;  // digest of every generated input
  uint64_t documents = 0;
  uint64_t alerts = 0;
  uint64_t notifications = 0;
  uint64_t received = 0;  // notifications the reporter buffered or dropped
  uint64_t mails = 0;
  uint64_t mail_digest = xymon::kFnvOffset;  // (to, subject, body, seq) in order

  bool operator==(const Outputs&) const = default;
};

std::string Describe(const Outputs& out) {
  char buf[256];
  snprintf(buf, sizeof buf,
           "documents=%llu alerts=%llu notifications=%llu received=%llu "
           "mails=%llu mail_digest=%016llx inputs=%016llx",
           static_cast<unsigned long long>(out.documents),
           static_cast<unsigned long long>(out.alerts),
           static_cast<unsigned long long>(out.notifications),
           static_cast<unsigned long long>(out.received),
           static_cast<unsigned long long>(out.mails),
           static_cast<unsigned long long>(out.mail_digest),
           static_cast<unsigned long long>(out.inputs));
  return buf;
}

/// A monitor, its simulated clock and the digest of the mail it sends.
struct Live {
  xymon::SimClock clock{0};
  Outputs out;
  std::unique_ptr<XylemeMonitor> monitor;
};

XylemeMonitor::Options MonitorOptions(const Topology& topology,
                                      const std::string& state_dir) {
  XylemeMonitor::Options options;
  options.num_shards = topology.shards;
  options.shard_mode = topology.mode;
  options.worker_binary = XYBENCH_WORKER_BIN;
  if (!state_dir.empty()) {
    options.storage_path = state_dir + "/subscriptions";
    options.warehouse_path = state_dir + "/warehouse";
    options.user_registry_path = state_dir + "/users";
    options.outbox_path = state_dir + "/outbox";
  }
  return options;
}

/// Set-up: construction, every subscription, the warm (all-new) pass.
/// Empty on success, else what failed.
std::string StartMonitor(const Topology& topology, const std::string& state_dir,
                         const std::vector<SubscriptionInput>& subscriptions,
                         const std::vector<xymon::webstub::FetchedDoc>& warm,
                         Live* live) {
  live->monitor = std::make_unique<XylemeMonitor>(
      &live->clock, MonitorOptions(topology, state_dir));
  XylemeMonitor& monitor = *live->monitor;
  if (!monitor.storage_status().ok()) {
    return "storage: " + monitor.storage_status().ToString();
  }
  if (!monitor.pipeline().worker_status().ok()) {
    return "workers: " + monitor.pipeline().worker_status().ToString();
  }
  Outputs* out = &live->out;
  monitor.outbox().set_send_hook([out](const xymon::reporter::Email& email) {
    uint64_t h = out->mail_digest;
    h = xymon::HashCombine(h, xymon::Fnv1a(email.to));
    h = xymon::HashCombine(h, xymon::Fnv1a(email.subject));
    h = xymon::HashCombine(h, xymon::Fnv1a(email.body));
    out->mail_digest = xymon::HashCombine(h, email.seq);
    ++out->mails;
    return true;
  });
  monitor.AddDomainRule(WorkloadInputs::DomainRule());
  for (const SubscriptionInput& sub : subscriptions) {
    auto name = monitor.Subscribe(sub.text, sub.email);
    if (!name.ok()) return sub.name + ": " + name.status().ToString();
  }
  monitor.ProcessFetchBatch(warm);
  monitor.Tick();
  return "";
}

void Capture(Live* live) {
  const XylemeMonitor::Stats& stats = live->monitor->stats();
  live->out.documents = stats.documents_processed;
  live->out.alerts = stats.alerts_raised;
  live->out.notifications = stats.notifications;
  live->out.received = live->monitor->reporter().notifications_received();
}

/// Untimed health verdict of a clean run: empty when healthy.
std::string HealthProblems(XylemeMonitor& monitor) {
  std::string problems;
  auto note = [&](const std::string& what) {
    problems += (problems.empty() ? "" : "; ") + what;
  };
  if (!monitor.storage_status().ok()) {
    note("storage_status " + monitor.storage_status().ToString());
  }
  if (!monitor.pipeline().worker_status().ok()) {
    note("worker_status " + monitor.pipeline().worker_status().ToString());
  }
  if (!monitor.restart_status().ok()) {
    note("restart_status " + monitor.restart_status().ToString());
  }
  xymon::system::PipelineStats ps = monitor.pipeline_stats();
  if (ps.shard_restarts != 0) note(std::to_string(ps.shard_restarts) + " shard restarts");
  if (ps.worker_crashes != 0) note(std::to_string(ps.worker_crashes) + " worker crashes");
  if (ps.worker_respawns != 0) note(std::to_string(ps.worker_respawns) + " worker respawns");
  if (ps.worker_proto_errors != 0) {
    note(std::to_string(ps.worker_proto_errors) + " wire protocol errors");
  }
  return problems;
}

// -- Per-shard program counters (the only stage split in process mode) -----

struct ShardCounters {
  StageCounters stage[kLayerCount];
};

std::vector<ShardCounters> ReadShardCounters(XylemeMonitor& monitor) {
  std::vector<ShardCounters> out;
  for (size_t i = 0; i < monitor.pipeline().shard_count(); ++i) {
    const xymon::system::PipelineShard& shard = monitor.pipeline().shard(i);
    std::lock_guard<std::mutex> lock(shard.mutex);
    out.push_back({{shard.ingest_counts, shard.detect_counts,
                    shard.match_counts, shard.notify_counts}});
  }
  return out;
}

// -- Measurements -------------------------------------------------------------

/// Everything a run measures. Layer sums cover traced rounds only.
struct Measure {
  uint64_t docs = 0;
  std::vector<double> setup_s;
  std::vector<double> round_ms;
  std::vector<double> subscribe_us, unsubscribe_us, checkpoint_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double peak_rss_mb = 0;

  // Traced rounds.
  int traced_rounds = 0;
  uint64_t traced_docs = 0;
  std::vector<double> traced_round_ms, untraced_round_ms, tick_ms;
  double critical_stage_ms = 0;  // Σ busiest shard's stage time per batch
  double gather_deliver_ms = 0;  // Σ (batch wall − busiest shard)
  double round_sum_ms = 0;
  std::vector<double> skew;
  uint64_t notifications = 0, mails = 0;
  // Replays on the traced rounds' bodies.
  double parse_ms = 0, parse_mb = 0, diff_ms = 0;
  uint64_t parsed = 0, diffed = 0, diff_changes = 0;
  // Process mode: summed per-shard counters; thread modes: the probe.
  StageCounters counter[kLayerCount];
  StageCounters pipeline_stage[kLayerCount];
  double state_mb = 0;
};

StageCounters Delta(const StageCounters& after, const StageCounters& before) {
  return {after.documents - before.documents, after.micros - before.micros};
}

void ReplayParseDiff(const std::vector<xymon::webstub::FetchedDoc>& batch,
                     std::map<std::string, std::string>* previous,
                     Measure* m) {
  for (const xymon::webstub::FetchedDoc& doc : batch) {
    int64_t start = NowNs();
    auto parsed = xymon::xml::Parse(doc.body);
    m->parse_ms += static_cast<double>(NowNs() - start) / 1e6;
    m->parse_mb += static_cast<double>(doc.body.size()) / 1e6;
    ++m->parsed;
    auto prev = previous->find(doc.url);
    if (parsed.ok() && parsed->root != nullptr && prev != previous->end()) {
      auto old_doc = xymon::xml::Parse(prev->second);
      if (old_doc.ok() && old_doc->root != nullptr) {
        xymon::xmldiff::XidAllocator alloc;
        alloc.AssignAll(old_doc->root.get());
        start = NowNs();
        xymon::xmldiff::DiffResult diff =
            xymon::xmldiff::Diff(*old_doc->root, parsed->root.get(), &alloc);
        m->diff_ms += static_cast<double>(NowNs() - start) / 1e6;
        m->diff_changes += diff.changes.size();
        ++m->diffed;
      }
    }
    (*previous)[doc.url] = doc.body;
  }
}

double SublangMicrosPerSub(const std::vector<std::string>& texts) {
  int64_t start = NowNs();
  size_t ok = 0;
  for (const std::string& text : texts) {
    auto ast = xymon::sublang::ParseSubscription(text);
    if (ast.ok() && xymon::sublang::Validate(*ast).ok()) ++ok;
  }
  double us = static_cast<double>(NowNs() - start) / 1e3;
  return ok == texts.size() && !texts.empty() ? us / static_cast<double>(texts.size())
                                              : 0;
}

struct RoundTiming {
  int64_t start = 0, batch_end = 0, end = 0;
};

/// One crawl round on `live`: clock step, churn, checkpoint, then the timed
/// part — batch and tick. `m` (null for the replay) collects the churn and
/// checkpoint latencies and failures; `spans`, when set, records them.
RoundTiming RunRound(const WorkloadSpec& spec, const RoundInput& in, Live* live,
                     Measure* m, Probe* spans) {
  XylemeMonitor& monitor = *live->monitor;
  live->clock.Advance(spec.clock_step);
  for (size_t i = 0; i < in.unsubscribe.size(); ++i) {
    int64_t t0 = NowNs();
    xymon::Status st = monitor.Unsubscribe(in.unsubscribe[i]);
    int64_t t1 = NowNs();
    auto name = monitor.Subscribe(in.subscribe[i].text, in.subscribe[i].email);
    int64_t t2 = NowNs();
    if (spans != nullptr) {
      spans->Record({spans->NewSpanId(), 0, "manager.unsubscribe", t0, t1, -1,
                     in.unsubscribe[i]});
      spans->Record({spans->NewSpanId(), 0, "manager.subscribe", t1, t2, -1,
                     in.subscribe[i].name});
    }
    if (m != nullptr) {
      m->unsubscribe_us.push_back(static_cast<double>(t1 - t0) / 1e3);
      m->subscribe_us.push_back(static_cast<double>(t2 - t1) / 1e3);
      m->attempted += 2;
      m->failed += (st.ok() ? 0 : 1) + (name.ok() ? 0 : 1);
    }
  }
  if (in.checkpoint) {
    int64_t t0 = NowNs();
    xymon::Status st = monitor.CheckpointStorage();
    int64_t t1 = NowNs();
    if (spans != nullptr) {
      spans->Record({spans->NewSpanId(), 0, "storage.checkpoint", t0, t1, -1, ""});
    }
    if (m != nullptr) {
      m->checkpoint_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
      ++m->attempted;
      if (!st.ok()) ++m->failed;
    }
  }
  RoundTiming t;
  t.start = NowNs();
  monitor.ProcessFetchBatch(in.batch);
  t.batch_end = NowNs();
  monitor.Tick();
  t.end = NowNs();
  return t;
}

// -- Output ------------------------------------------------------------------

std::string Num(double v) {
  char buf[40];
  snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

struct Metric {
  Metric(std::string name, double value, std::string unit, bool exercised = true,
         std::string note = "")
      : name(std::move(name)),
        value(value),
        unit(std::move(unit)),
        exercised(exercised),
        note(std::move(note)) {}

  std::string name;
  double value;
  std::string unit;
  bool exercised;
  std::string note;
};

void PrintMetrics(const char* kind, const std::vector<Metric>& metrics) {
  for (const Metric& metric : metrics) {
    if (metric.exercised) {
      printf("%s %-40s %14.4f %-8s %s\n", kind, metric.name.c_str(),
             metric.value, metric.unit.c_str(), metric.note.c_str());
    } else {
      printf("%s %-40s %14s %-8s %s\n", kind, metric.name.c_str(), "-",
             metric.unit.c_str(), "(not exercised by this workload)");
    }
  }
}

std::string ResultJson(bool correct, const Measure& m,
                       const std::vector<Metric>& metrics) {
  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(m.attempted) +
                     ", \"failed\": " + std::to_string(m.failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const Metric& metric : metrics) {
    if (!metric.exercised) continue;
    json += std::string(first ? "" : ", ") + "\"" + metric.name +
            "\": {\"value\": " + Num(metric.value) + ", \"unit\": \"" +
            metric.unit + "\"}";
    first = false;
  }
  return json + "}}";
}

double PerDoc(double total, double docs) { return docs > 0 ? total / docs : 0; }

int Run(const Args& args) {
  WorkloadSpec spec;
  if (!MakeWorkload(args.workload, args.short_mode, &spec)) {
    fprintf(stderr, "unknown workload '%s' (ingest, fanout, churn)\n",
            args.workload.c_str());
    return 2;
  }
  const int rounds = RoundCount(spec, args.seconds);
  const bool process_mode = spec.topology.mode == ShardMode::kProcess;
  const fs::path out_dir = fs::absolute(args.out_dir);
  const std::string tag =
      spec.name + "-" + std::to_string(args.seed) + "-" + std::to_string(getpid());
  const std::string state_dir =
      spec.durable ? (out_dir / ("state-" + tag)).string() : "";
  std::error_code ec;
  fs::create_directories(out_dir, ec);

  Measure m;
  const int64_t setup_start = NowNs();

  // Set-up, repeated: each repetition builds a fresh monitor from the same
  // inputs; the last one is measured.
  std::unique_ptr<WorkloadInputs> inputs;
  std::unique_ptr<Live> live;
  for (int rep = 0; rep < spec.setup_repeats; ++rep) {
    live.reset();
    if (!state_dir.empty()) {
      fs::remove_all(state_dir, ec);
      fs::create_directories(state_dir, ec);
    }
    inputs = std::make_unique<WorkloadInputs>(spec, args.seed);
    std::vector<xymon::webstub::FetchedDoc> warm = inputs->WarmBatch();
    live = std::make_unique<Live>();
    int64_t start = NowNs();
    std::string error = StartMonitor(spec.topology, state_dir,
                                     inputs->subscriptions(), warm, live.get());
    m.setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    if (!error.empty()) {
      fprintf(stderr, "set-up failed: %s\n", error.c_str());
      return 2;
    }
  }
  XylemeMonitor& monitor = *live->monitor;

  Probe probe(spec.topology.shards);
  const bool probed = args.trace && !process_mode;
  if (probed) probe.Install(monitor);
  std::vector<Span> round_spans;
  std::map<std::string, std::string> previous_bodies;
  std::vector<std::string> sublang_texts;
  for (const SubscriptionInput& sub : inputs->subscriptions()) {
    if (sublang_texts.size() < 2000) sublang_texts.push_back(sub.text);
  }

  const int64_t run_start = NowNs();
  for (int r = 0; r < rounds; ++r) {
    RoundInput in = inputs->NextRound();
    for (const SubscriptionInput& sub : in.subscribe) {
      if (sublang_texts.size() < 4000) sublang_texts.push_back(sub.text);
    }
    const bool traced = args.trace && r % 2 == 1;
    probe.set_enabled(traced && probed);
    const uint64_t round_id = probe.NewSpanId(), batch_id = probe.NewSpanId(),
                   tick_id = probe.NewSpanId();
    probe.set_batch_span(batch_id);
    XylemeMonitor::Stats before = monitor.stats();
    uint64_t mails_before = live->out.mails;
    std::vector<ShardCounters> counters_before;
    xymon::system::PipelineStats pipeline_before;
    if (traced) {
      counters_before = ReadShardCounters(monitor);
      pipeline_before = monitor.pipeline_stats();
    }

    RoundTiming t = RunRound(spec, in, live.get(), &m, traced ? &probe : nullptr);

    const XylemeMonitor::Stats& after = monitor.stats();
    const double round_ms = static_cast<double>(t.end - t.start) / 1e6;
    m.round_ms.push_back(round_ms);
    m.docs += in.batch.size();
    m.attempted += in.batch.size();
    m.failed += after.failed_documents - before.failed_documents;
    if (!args.trace) continue;
    if (!traced) {
      m.untraced_round_ms.push_back(round_ms);
      if (probed) probe.TakeShardBusy();
      for (const auto& doc : in.batch) previous_bodies[doc.url] = doc.body;
      continue;
    }

    // Traced round: layer split of this round, then the replays (untimed).
    ++m.traced_rounds;
    m.traced_docs += in.batch.size();
    m.traced_round_ms.push_back(round_ms);
    const double batch_ms = static_cast<double>(t.batch_end - t.start) / 1e6;
    const double tick_ms = static_cast<double>(t.end - t.batch_end) / 1e6;
    m.tick_ms.push_back(tick_ms);
    m.round_sum_ms += round_ms;
    std::vector<double> busy_ms;
    if (probed) {
      for (int64_t ns : probe.TakeShardBusy()) busy_ms.push_back(static_cast<double>(ns) / 1e6);
    } else {
      std::vector<ShardCounters> counters_after = ReadShardCounters(monitor);
      for (size_t s = 0; s < counters_after.size(); ++s) {
        double busy = 0;
        for (int l = 0; l < kLayerCount; ++l) {
          StageCounters d = Delta(counters_after[s].stage[l], counters_before[s].stage[l]);
          m.counter[l].documents += d.documents;
          m.counter[l].micros += d.micros;
          busy += static_cast<double>(d.micros) / 1e3;
        }
        busy_ms.push_back(busy);
      }
    }
    double busiest = *std::max_element(busy_ms.begin(), busy_ms.end());
    double mean = 0;
    for (double b : busy_ms) mean += b / static_cast<double>(busy_ms.size());
    m.critical_stage_ms += busiest;
    m.gather_deliver_ms += batch_ms - busiest;
    if (mean > 0) m.skew.push_back(busiest / mean);
    xymon::system::PipelineStats pipeline_after = monitor.pipeline_stats();
    const StageCounters* pa[] = {&pipeline_after.ingest, &pipeline_after.detect,
                                 &pipeline_after.match, &pipeline_after.notify};
    const StageCounters* pb[] = {&pipeline_before.ingest, &pipeline_before.detect,
                                 &pipeline_before.match, &pipeline_before.notify};
    for (int l = 0; l < kLayerCount; ++l) {
      StageCounters d = Delta(*pa[l], *pb[l]);
      m.pipeline_stage[l].documents += d.documents;
      m.pipeline_stage[l].micros += d.micros;
    }
    m.notifications += after.notifications - before.notifications;
    m.mails += live->out.mails - mails_before;
    round_spans.push_back({round_id, 0, "round", t.start, t.end, -1, ""});
    round_spans.push_back({batch_id, round_id, "system.batch", t.start, t.batch_end, -1, ""});
    round_spans.push_back({tick_id, round_id, "reporter.tick", t.batch_end, t.end, -1, ""});
    ReplayParseDiff(in.batch, &previous_bodies, &m);
  }
  probe.set_enabled(false);
  m.peak_rss_mb = PeakRssMb();
  const int64_t check_start = NowNs();

  // Output check, part 1: health of the measured run.
  std::string problems = HealthProblems(monitor);
  if (!state_dir.empty()) {
    xymon::Status st = monitor.CheckpointStorage();
    if (!st.ok()) {
      problems += (problems.empty() ? "" : "; ") + ("final checkpoint " + st.ToString());
    }
    m.state_mb = static_cast<double>(DirBytes(state_dir)) / 1e6;
  }
  Capture(live.get());
  Outputs measured = live->out;
  measured.inputs = inputs->digest();
  live.reset();
  inputs.reset();
  if (!state_dir.empty()) fs::remove_all(state_dir, ec);

  // Output check, part 2: replay the same inputs, untimed, on the reference
  // topology. N shards ≡ 1 shard ≡ worker processes, bit for bit.
  Outputs reference;
  {
    WorkloadInputs ref_inputs(spec, args.seed);
    std::vector<xymon::webstub::FetchedDoc> warm = ref_inputs.WarmBatch();
    Live ref;
    std::string error = StartMonitor(spec.reference, "", ref_inputs.subscriptions(),
                                     warm, &ref);
    if (!error.empty()) {
      fprintf(stderr, "reference set-up failed: %s\n", error.c_str());
      return 2;
    }
    for (int r = 0; r < rounds; ++r) RunRound(spec, ref_inputs.NextRound(), &ref, nullptr, nullptr);
    Capture(&ref);
    reference = ref.out;
    reference.inputs = ref_inputs.digest();
  }
  const bool outputs_agree = measured == reference;
  const bool correct = outputs_agree && problems.empty();
  ++m.attempted;  // the output check itself
  if (!correct) ++m.failed;

  // -- Report -----------------------------------------------------------------
  int tail_pct = 0;
  const double round_tail = Tail(m.round_ms, &tail_pct);
  double round_total_ms = 0;
  for (double v : m.round_ms) round_total_ms += v;
  int sub_tail_pct = 0;
  const double subscribe_tail = Tail(m.subscribe_us, &sub_tail_pct);
  const bool churn = !m.subscribe_us.empty();
  const bool checkpoints = !m.checkpoint_ms.empty();
  const std::string rounds_note = "(p" + std::to_string(tail_pct) + " of " +
                                  std::to_string(m.round_ms.size()) + " rounds)";

  printf("xybench workload=%s seed=%llu topology=%s reference=%s rounds=%d "
         "docs=%llu trace=%d\n",
         spec.name.c_str(), static_cast<unsigned long long>(args.seed),
         TopologyName(spec.topology).c_str(), TopologyName(spec.reference).c_str(),
         rounds, static_cast<unsigned long long>(m.docs), args.trace ? 1 : 0);
  std::vector<Metric> e2e = {
      {"docs_per_s", PerDoc(static_cast<double>(m.docs), round_total_ms / 1e3), "docs/s"},
      {"round_p50_ms", Median(m.round_ms), "ms"},
      {"round_tail_ms", round_tail, "ms", true, rounds_note},
      {"setup_s", Median(m.setup_s), "s", true,
       "(median of " + std::to_string(m.setup_s.size()) + " set-ups)"},
      {"peak_rss_mb", m.peak_rss_mb, "MB"},
  };
  std::vector<Metric> churn_metrics = {
      {"subscribe_p50_us", Median(m.subscribe_us), "us", churn},
      {"subscribe_tail_us", subscribe_tail, "us", churn,
       "(p" + std::to_string(sub_tail_pct) + " of " +
           std::to_string(m.subscribe_us.size()) + " calls)"},
      {"unsubscribe_p50_us", Median(m.unsubscribe_us), "us", churn},
      {"checkpoint_p50_ms", Median(m.checkpoint_ms), "ms", checkpoints,
       "(" + std::to_string(m.checkpoint_ms.size()) + " checkpoints)"},
      {"failed_frac", PerDoc(static_cast<double>(m.failed), static_cast<double>(m.attempted)),
       "ratio", true,
       "(" + std::to_string(m.failed) + " of " + std::to_string(m.attempted) + ")"},
  };
  if (!args.trace) {
    PrintMetrics("metric", e2e);
    PrintMetrics("metric", churn_metrics);
  }
  printf("check %s: %s; reference %s: %s%s%s\n", correct ? "ok" : "FAILED",
         Describe(measured).c_str(), TopologyName(spec.reference).c_str(),
         Describe(reference).c_str(), problems.empty() ? "" : "; health: ",
         problems.c_str());

  std::vector<Metric> layers;
  if (args.trace) {
    const double docs = static_cast<double>(m.traced_docs);
    const char* source = process_mode ? "(program counter)" : "";
    std::vector<double> us(kLayerCount), calls(kLayerCount);
    for (int l = 0; l < kLayerCount; ++l) {
      if (probed) {
        us[l] = static_cast<double>(probe.layer_ns[l].load()) / 1e3;
        calls[l] = static_cast<double>(probe.layer_calls[l].load());
      } else {
        us[l] = static_cast<double>(m.counter[l].micros);
        calls[l] = static_cast<double>(m.counter[l].documents);
      }
    }
    const double alerts = probed ? static_cast<double>(probe.alerts.load()) : calls[kMatch];
    const double matches = probed ? static_cast<double>(probe.matches.load())
                                  : static_cast<double>(m.notifications);
    const double actions = probed ? static_cast<double>(probe.actions.load())
                                  : static_cast<double>(m.notifications);
    auto stage = [&](int l) {
      return PerDoc(static_cast<double>(m.pipeline_stage[l].micros),
                    static_cast<double>(m.pipeline_stage[l].documents));
    };
    const char* counter_note = "(program counter)";
    layers = {
        {"warehouse.ingest_us_per_doc", PerDoc(us[kIngest], calls[kIngest]), "us", true, source},
        {"xml.parse_us_per_doc", PerDoc(m.parse_ms * 1e3, static_cast<double>(m.parsed)), "us",
         true, "(replay)"},
        {"xml.parse_mb_per_s", PerDoc(m.parse_mb, m.parse_ms / 1e3), "MB/s", true, "(replay)"},
        {"xmldiff.diff_us_per_doc", PerDoc(m.diff_ms * 1e3, static_cast<double>(m.diffed)), "us",
         true, "(replay)"},
        {"xmldiff.changes_per_doc",
         PerDoc(static_cast<double>(m.diff_changes), static_cast<double>(m.diffed)), "count",
         true, "(replay)"},
        {"alerters.detect_us_per_doc", PerDoc(us[kDetect], calls[kDetect]), "us", true, source},
        {"alerters.alert_frac", PerDoc(alerts, calls[kDetect]), "ratio", true, source},
        {"mqp.match_us_per_alert", PerDoc(us[kMatch], calls[kMatch]), "us", true, source},
        {"mqp.matches_per_alert", PerDoc(matches, alerts), "count", true,
         process_mode ? "(notifications per alert, monitor stats)" : ""},
        {"system.resolve_us_per_doc", PerDoc(us[kResolve], docs), "us", true, source},
        {"system.actions_per_doc", PerDoc(actions, docs), "count", true,
         process_mode ? "(notifications per doc, monitor stats)" : ""},
        {"system.gather_deliver_us_per_doc", PerDoc(m.gather_deliver_ms * 1e3, docs), "us"},
        {"system.shard_skew", Median(m.skew), "ratio"},
        {"reporter.tick_ms_p50", Median(m.tick_ms), "ms"},
        {"reporter.tick_ms_max",
         m.tick_ms.empty() ? 0 : *std::max_element(m.tick_ms.begin(), m.tick_ms.end()), "ms"},
        {"reporter.notifications_per_doc", PerDoc(static_cast<double>(m.notifications), docs),
         "count"},
        {"outbox.mails_per_round",
         PerDoc(static_cast<double>(m.mails), static_cast<double>(m.traced_rounds)), "count"},
        {"sublang.parse_us_per_sub", SublangMicrosPerSub(sublang_texts), "us", true, "(replay)"},
        {"pipeline.stage_us_per_doc.ingest", stage(kIngest), "us", true, counter_note},
        {"pipeline.stage_us_per_doc.detect", stage(kDetect), "us", true, counter_note},
        {"pipeline.stage_us_per_doc.match", stage(kMatch), "us", true, counter_note},
        {"pipeline.stage_us_per_doc.notify", stage(kResolve), "us", true, counter_note},
    };
    PrintMetrics("layer", layers);
    PrintMetrics("layer", {{"storage.state_mb", m.state_mb, "MB", spec.durable,
                            "(store directory after the final checkpoint)"}});

    // Spans: written out, then self time per layer.
    std::vector<Span> spans = probe.CollectSpans();
    spans.insert(spans.end(), round_spans.begin(), round_spans.end());
    const std::string span_path = (out_dir / ("spans-" + tag + ".jsonl")).string();
    if (!WriteSpans(span_path, spans, run_start)) {
      fprintf(stderr, "cannot write %s\n", span_path.c_str());
      return 2;
    }
    printf("trace spans=%zu file=%s\n", spans.size(), span_path.c_str());
    for (const auto& [name, ns] : SelfTimes(spans)) {
      printf("trace self %-24s %12.3f ms total %10.2f us/doc\n", name.c_str(),
             static_cast<double>(ns) / 1e6, PerDoc(static_cast<double>(ns) / 1e3, docs));
    }
    // Round accounting: busiest shard's stages + gather/deliver + tick.
    double tick_sum = 0;
    for (double v : m.tick_ms) tick_sum += v;
    const double accounted = m.critical_stage_ms + m.gather_deliver_ms + tick_sum;
    const double overhead =
        Median(m.untraced_round_ms) > 0
            ? Median(m.traced_round_ms) / Median(m.untraced_round_ms) - 1
            : 0;
    printf("trace accounting: stages on the busiest shard %.3f ms + gather/deliver "
           "%.3f ms + tick %.3f ms = %.3f ms of %.3f ms round time (%+.2f%%); "
           "tracing overhead %+.2f%% (median of %d traced vs %zu untraced rounds)\n",
           m.critical_stage_ms, m.gather_deliver_ms, tick_sum, accounted, m.round_sum_ms,
           m.round_sum_ms > 0 ? (accounted / m.round_sum_ms - 1) * 100 : 0, overhead * 100,
           m.traced_rounds, m.untraced_round_ms.size());
  }

  const int64_t end = NowNs();
  printf("phases setup=%.2fs rounds=%.2fs check=%.2fs (wall, input generation "
         "included)\n",
         static_cast<double>(run_start - setup_start) / 1e9,
         static_cast<double>(check_start - run_start) / 1e9,
         static_cast<double>(end - check_start) / 1e9);
  printf("provenance {\"nproc\": %ld, \"build_type\": \"%s\", \"optimized\": %s, "
         "\"sanitized\": %s, \"compiler\": \"%s\", \"cxx_flags\": \"%s\", "
         "\"git_sha\": \"%s\", \"source_digest\": \"%s\", \"seed\": %llu, "
         "\"rounds\": %d, \"round_tail_percentile\": %d, \"workload\": \"%s\", "
         "\"short\": %s, \"fixed_layout\": %s}\n",
         sysconf(_SC_NPROCESSORS_ONLN), XYBENCH_BUILD_TYPE,
#ifdef NDEBUG
         "true",
#else
         "false",
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
         "true",
#else
         "false",
#endif
         __VERSION__, XYBENCH_CXX_FLAGS, args.git_sha.c_str(),
         args.source_digest.c_str(), static_cast<unsigned long long>(args.seed), rounds,
         tail_pct, spec.name.c_str(), args.short_mode ? "true" : "false",
         (personality(0xffffffff) & ADDR_NO_RANDOMIZE) != 0 ? "true" : "false");
  printf("%s\n", ResultJson(correct, m, args.trace ? layers : e2e).c_str());
  fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    fprintf(stderr,
            "usage: xybench --workload ingest|fanout|churn --seed N --seconds S "
            "--trace 0|1 [--short] [--out-dir DIR] [--git-sha SHA] "
            "[--source-digest D]\n");
    return 2;
  }
  return perfbench::Run(args);
}
