// T-MEM (§4.2, in text): "The data structures we use require about 500MB of
// memory for Card(A)=1e6, Card(C)=1e7 and D=10."
//
// Measures the AES structure footprint across Card(C) and D, then
// extrapolates linearly to the paper's configuration (the structure grows
// ~linearly in Card(C)·D: one cell chain per complex event). The same fill
// times the inserts: every complex event is generated first, so the insert
// column is the AES tree alone (registration cost, §4.2).

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/mqp/aes_matcher.h"

using xymon::Status;
using xymon::bench::PrintHeader;
using xymon::bench::TimeMicros;
using xymon::mqp::AesMatcher;
using xymon::mqp::ComplexEventId;
using xymon::mqp::EventSet;
using xymon::mqp::WorkloadGenerator;
using xymon::mqp::WorkloadParams;

namespace {

double Mb(size_t bytes) { return static_cast<double>(bytes) / (1024.0 * 1024.0); }

}  // namespace

int main() {
  PrintHeader(
      "T-MEM: AES structure memory and insert cost vs Card(C) and D\n"
      "(paper: ~500 MB at Card(A)=1e6, Card(C)=1e7, D=10)");

  printf("%10s %4s %14s %12s %16s %14s %12s\n", "Card(C)", "D", "arena (MB)",
         "live (MB)", "w/ registry (MB)", "bytes/complex", "insert (ns)");
  double last_per_complex_d10 = 0;
  for (uint32_t d : {4u, 10u}) {
    for (uint32_t card_c : {10'000u, 100'000u, 500'000u, 1'000'000u}) {
      WorkloadParams params;
      params.card_a = 100'000;
      params.card_c = card_c;
      params.d = d;
      params.seed = 11;
      const std::vector<EventSet> events =
          WorkloadGenerator(params).GenerateComplexEvents();
      AesMatcher matcher;
      const double insert_us = TimeMicros([&] {
        ComplexEventId id = 0;
        for (const EventSet& set : events) {
          Status st = matcher.Insert(id++, set);
          (void)st;
        }
      });
      size_t arena = matcher.StructureBytes();
      size_t live = matcher.LiveBytes();
      size_t total = matcher.MemoryUsage();
      double per_complex = static_cast<double>(live) / card_c;
      printf("%10u %4u %14.1f %12.1f %16.1f %14.1f %12.0f\n", card_c, d,
             Mb(arena), Mb(live), Mb(total), per_complex,
             insert_us * 1000.0 / card_c);
      if (d == 10 && card_c == 1'000'000) last_per_complex_d10 = per_complex;
    }
  }

  double projected = last_per_complex_d10 * 1e7;
  printf(
      "\nextrapolation to the paper's point (Card(C)=1e7, D=10):\n"
      "  %.0f live bytes/complex-event x 1e7 = %.1f MB of structure\n"
      "  (paper reports ~500 MB; its 2001 build used 32-bit pointers — cells\n"
      "  are 24B here vs ~12B there — and its test sets share prefixes,\n"
      "  so scale the projection by ~2-4x downward for a like-for-like view)\n",
      last_per_complex_d10, Mb(static_cast<size_t>(projected)));
  return 0;
}
