#ifndef XYMON_WEBSTUB_CRAWLER_H_
#define XYMON_WEBSTUB_CRAWLER_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/common/clock.h"
#include "src/webstub/synthetic_web.h"

namespace xymon::webstub {

/// One fetched page handed to the monitoring chain.
struct FetchedDoc {
  std::string url;
  std::string body;
  Timestamp fetch_time = 0;
  /// Simulated time the server took to deliver the response.
  Timestamp latency = 0;
};

/// A document-status transition the crawler observed — the paper's weak
/// events surfaced by Xyleme's URL alerter (`document disappeared`, and the
/// reappearance that ends such an episode). Drained with TakeEvents() and
/// routed into the alerter chain by XylemeMonitor::ProcessDocStatusEvents.
struct DocStatusEvent {
  enum class Kind { kDisappeared, kReappeared };
  Kind kind;
  std::string url;
  Timestamp time = 0;
};

/// Resilience knobs of the Acquisition & Refresh module. All delays are
/// simulated Timestamps; all jitter is deterministic (hash of URL and
/// attempt number), so a fixed seed reproduces the exact fetch schedule.
struct CrawlerOptions {
  /// Re-read period for pages without a `refresh` hint.
  Timestamp default_period = kDay;
  /// Transient-failure backoff: delay = min(cap, base * 2^(n-1)) + jitter,
  /// n = consecutive failures. Jitter is in [0, delay/2].
  Timestamp retry_base_delay = 5 * kMinute;
  Timestamp retry_max_delay = 2 * kHour;
  /// Consecutive transient failures that open the per-URL circuit breaker.
  uint32_t quarantine_threshold = 4;
  /// Probe period while quarantined or disappeared (the slow lane).
  Timestamp quarantine_probe_period = kDay;
  /// Consecutive 404 probes after which a disappeared URL is dropped
  /// entirely (0 = keep probing forever).
  uint32_t forget_after_missing_probes = 0;
};

/// Monotone fault/outcome counters (quarantined_count() is the gauge).
struct CrawlerStats {
  uint64_t fetch_attempts = 0;
  uint64_t fetch_successes = 0;
  uint64_t fetch_errors = 0;  // attempts that returned no document
  uint64_t retries_scheduled = 0;
  uint64_t timeouts = 0;
  uint64_t server_errors = 0;
  uint64_t not_found = 0;
  uint64_t quarantines_opened = 0;
  uint64_t quarantines_closed = 0;
  uint64_t disappeared_events = 0;
  uint64_t reappeared_events = 0;
  uint64_t urls_forgotten = 0;

  bool operator==(const CrawlerStats&) const = default;
};

/// The Acquisition & Refresh module (Figure 1), reduced to its observable
/// behaviour: it decides *when to (re)read* each page. Pages carry a refresh
/// period — the default one, or a shorter one when a subscription names the
/// page in a `refresh` statement ("such pages will be read more often",
/// §2.2). FetchNext returns the most overdue page, so importance hints shape
/// the fetch order exactly as the paper describes.
///
/// The live web misbehaves, so the crawler classifies every failure:
///   * transient (timeout, 5xx) — retried with capped exponential backoff
///     and deterministic jitter; after `quarantine_threshold` consecutive
///     failures the per-URL circuit breaker opens and the page is demoted to
///     the slow probe period until a fetch succeeds again;
///   * disappearance (404 of a previously fetched page) — emits a
///     `disappeared` DocStatusEvent once per episode and keeps probing
///     slowly; a later success emits `reappeared`;
///   * a 404 on first contact — the URL never existed; it is forgotten.
class Crawler {
 public:
  explicit Crawler(const SyntheticWeb* web, Timestamp default_period = kDay)
      : web_(web) {
    options_.default_period = default_period;
  }
  Crawler(const SyntheticWeb* web, const CrawlerOptions& options)
      : web_(web), options_(options) {}

  /// Learns all URLs currently on the web; newly appeared URLs are due
  /// immediately (discovery). Call again after the web gains pages.
  void DiscoverAll(Timestamp now);

  /// `refresh url <freq>` hint: read this page at least every `period`.
  void SetRefreshHint(const std::string& url, Timestamp period);

  /// Follows the links of a fetched page: unknown URLs become due
  /// immediately (page discovery, paper §1). Returns how many were new.
  size_t DiscoverFromPage(const FetchedDoc& doc, Timestamp now);

  /// Fetches the most overdue page due at `now`, absorbing failures: a
  /// failed candidate is rescheduled (backoff/quarantine/probe) and the
  /// next-most-overdue one is tried. nullopt when no due page yields a
  /// document.
  std::optional<FetchedDoc> FetchNext(Timestamp now);

  /// Fetches everything due at `now`, in due order. A page rescheduled *by
  /// this round* (e.g. an immediate retry) is not fetched again in the same
  /// round — each URL is attempted at most once per call.
  std::vector<FetchedDoc> FetchAllDue(Timestamp now);

  /// Doc-status transitions observed since the last call (drains the queue).
  std::vector<DocStatusEvent> TakeEvents();

  const CrawlerStats& stats() const { return stats_; }
  uint64_t fetch_count() const { return stats_.fetch_successes; }
  size_t known_urls() const { return urls_.size(); }
  size_t quarantined_count() const { return quarantined_count_; }
  size_t missing_count() const { return missing_count_; }
  bool IsQuarantined(const std::string& url) const;
  bool IsMissing(const std::string& url) const;
  /// Next scheduled fetch time for `url`; nullopt if unknown.
  std::optional<Timestamp> NextDue(const std::string& url) const;

 private:
  struct UrlState {
    Timestamp next_due = 0;
    uint32_t consecutive_failures = 0;
    uint32_t missing_probes = 0;
    bool quarantined = false;
    bool missing = false;       // currently in a disappeared episode
    bool ever_fetched = false;  // at least one successful fetch
  };

  Timestamp PeriodFor(const std::string& url) const;
  Timestamp BackoffDelay(const std::string& url, uint32_t failures) const;
  std::optional<FetchedDoc> FetchNextInternal(
      Timestamp now, std::unordered_set<std::string>* attempted);
  /// Handles one failed attempt; true if the URL was forgotten.
  bool HandleFailure(const std::string& url, UrlState* state,
                     const Status& error, Timestamp now);

  const SyntheticWeb* web_;
  CrawlerOptions options_;
  std::map<std::string, UrlState> urls_;
  std::map<std::string, Timestamp> refresh_hints_;
  std::vector<DocStatusEvent> events_;
  CrawlerStats stats_;
  size_t quarantined_count_ = 0;
  size_t missing_count_ = 0;
};

}  // namespace xymon::webstub

#endif  // XYMON_WEBSTUB_CRAWLER_H_
