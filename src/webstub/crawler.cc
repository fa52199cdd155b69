#include "src/webstub/crawler.h"

#include <algorithm>

#include "src/alerters/html_alerter.h"
#include "src/common/hash.h"

namespace xymon::webstub {

void Crawler::DiscoverAll(Timestamp now) {
  for (const std::string& url : web_->Urls()) {
    urls_.emplace(url, UrlState{now});  // Existing entries keep their state.
  }
}

size_t Crawler::DiscoverFromPage(const FetchedDoc& doc, Timestamp now) {
  size_t discovered = 0;
  for (const std::string& link :
       alerters::HtmlAlerter::ExtractLinks(doc.body)) {
    if (urls_.emplace(link, UrlState{now}).second) ++discovered;
  }
  return discovered;
}

void Crawler::SetRefreshHint(const std::string& url, Timestamp period) {
  auto it = refresh_hints_.find(url);
  if (it == refresh_hints_.end() || it->second > period) {
    refresh_hints_[url] = period;
  }
}

Timestamp Crawler::PeriodFor(const std::string& url) const {
  auto it = refresh_hints_.find(url);
  if (it != refresh_hints_.end() && it->second < options_.default_period) {
    return it->second;
  }
  return options_.default_period;
}

Timestamp Crawler::BackoffDelay(const std::string& url,
                                uint32_t failures) const {
  uint32_t shift = std::min(failures > 0 ? failures - 1 : 0u, 16u);
  Timestamp delay = options_.retry_base_delay;
  for (uint32_t i = 0; i < shift && delay < options_.retry_max_delay; ++i) {
    delay *= 2;
  }
  delay = std::min(delay, options_.retry_max_delay);
  // Deterministic jitter in [0, delay/2]: the same URL at the same attempt
  // count always lands on the same slot, so a seeded run replays exactly,
  // while distinct URLs failing together spread out instead of stampeding.
  uint64_t jitter_space = static_cast<uint64_t>(delay / 2) + 1;
  Timestamp jitter = static_cast<Timestamp>(
      HashCombine(Fnv1a(url), failures) % jitter_space);
  return delay + jitter;
}

bool Crawler::IsQuarantined(const std::string& url) const {
  auto it = urls_.find(url);
  return it != urls_.end() && it->second.quarantined;
}

bool Crawler::IsMissing(const std::string& url) const {
  auto it = urls_.find(url);
  return it != urls_.end() && it->second.missing;
}

std::optional<Timestamp> Crawler::NextDue(const std::string& url) const {
  auto it = urls_.find(url);
  if (it == urls_.end()) return std::nullopt;
  return it->second.next_due;
}

bool Crawler::HandleFailure(const std::string& url, UrlState* state,
                            const Status& error, Timestamp now) {
  ++stats_.fetch_errors;
  if (error.IsNotFound()) {
    ++stats_.not_found;
    if (!state->ever_fetched) {
      // First contact 404: the link was dead on arrival — forget it.
      ++stats_.urls_forgotten;
      return true;
    }
    if (!state->missing) {
      state->missing = true;
      ++missing_count_;
      ++stats_.disappeared_events;
      events_.push_back(
          DocStatusEvent{DocStatusEvent::Kind::kDisappeared, url, now});
    }
    ++state->missing_probes;
    if (options_.forget_after_missing_probes > 0 &&
        state->missing_probes >= options_.forget_after_missing_probes) {
      ++stats_.urls_forgotten;
      --missing_count_;
      if (state->quarantined) --quarantined_count_;
      return true;
    }
    state->next_due = now + options_.quarantine_probe_period;
    return false;
  }

  // Transient (timeout / 5xx): retry with backoff, quarantine when the
  // failure streak crosses the threshold.
  if (error.IsIOError()) ++stats_.timeouts;
  if (error.IsUnavailable()) ++stats_.server_errors;
  ++state->consecutive_failures;
  if (state->quarantined) {
    state->next_due = now + options_.quarantine_probe_period;
  } else if (state->consecutive_failures >= options_.quarantine_threshold) {
    state->quarantined = true;
    ++quarantined_count_;
    ++stats_.quarantines_opened;
    state->next_due = now + options_.quarantine_probe_period;
  } else {
    ++stats_.retries_scheduled;
    state->next_due = now + BackoffDelay(url, state->consecutive_failures);
  }
  return false;
}

std::optional<FetchedDoc> Crawler::FetchNextInternal(
    Timestamp now, std::unordered_set<std::string>* attempted) {
  while (true) {
    // Most-overdue-first. The URL population is modest in simulations, so a
    // linear scan keeps the structure trivially consistent under hint
    // updates and in-loop reschedules.
    auto best = urls_.end();
    for (auto it = urls_.begin(); it != urls_.end(); ++it) {
      if (it->second.next_due > now) continue;
      if (attempted->count(it->first) != 0) continue;
      if (best == urls_.end() || it->second.next_due < best->second.next_due) {
        best = it;
      }
    }
    if (best == urls_.end()) return std::nullopt;

    const std::string& url = best->first;
    UrlState& state = best->second;
    attempted->insert(url);
    ++stats_.fetch_attempts;

    Result<FetchResponse> response = web_->Fetch(url);
    if (!response.ok()) {
      if (HandleFailure(url, &state, response.status(), now)) {
        urls_.erase(best);
      }
      continue;  // Try the next-most-overdue candidate.
    }

    // Success: close any open circuit, end any disappearance episode.
    if (state.quarantined) {
      state.quarantined = false;
      --quarantined_count_;
      ++stats_.quarantines_closed;
    }
    if (state.missing) {
      state.missing = false;
      --missing_count_;
      state.missing_probes = 0;
      ++stats_.reappeared_events;
      events_.push_back(
          DocStatusEvent{DocStatusEvent::Kind::kReappeared, url, now});
    }
    state.consecutive_failures = 0;
    state.ever_fetched = true;
    state.next_due = now + PeriodFor(url);
    ++stats_.fetch_successes;
    return FetchedDoc{url, std::move(response.value().body), now,
                      response.value().latency};
  }
}

std::optional<FetchedDoc> Crawler::FetchNext(Timestamp now) {
  std::unordered_set<std::string> attempted;
  return FetchNextInternal(now, &attempted);
}

std::vector<FetchedDoc> Crawler::FetchAllDue(Timestamp now) {
  std::vector<FetchedDoc> out;
  // One attempted-set for the whole round: a URL rescheduled for `now` by an
  // earlier fetch in this call (zero-delay retry) must wait for the next
  // round instead of being re-fetched — and a page failing with no backoff
  // can no longer spin this loop forever.
  std::unordered_set<std::string> attempted;
  while (auto doc = FetchNextInternal(now, &attempted)) {
    out.push_back(std::move(*doc));
  }
  return out;
}

std::vector<DocStatusEvent> Crawler::TakeEvents() {
  std::vector<DocStatusEvent> out;
  out.swap(events_);
  return out;
}

}  // namespace xymon::webstub
