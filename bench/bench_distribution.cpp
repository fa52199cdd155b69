// T-DIST (§4.2): the two distribution axes. "Processing speed: we can split
// the flow of documents into several partitions and assign a Monitoring
// Query Processor to each block. Memory: we can split the subscriptions into
// several partitions ... This results in smaller data structures for each
// processor."
//
// Simulates both: document partitioning (independent MQP replicas processing
// disjoint document streams — aggregate throughput) and subscription
// partitioning (per-partition structure size; every document visits all
// partitions). The document axis with real shard threads and processes runs
// in perfbench (fanout: 2 thread shards, churn: 2 workers); a shard sweep
// against a host-capacity control run is still open (ROADMAP).

#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "src/mqp/aes_matcher.h"
#include "src/mqp/processor.h"

using xymon::bench::FillMatcher;
using xymon::bench::MatchMicrosPerDoc;
using xymon::bench::PrintHeader;
using xymon::mqp::AesMatcher;
using xymon::mqp::SubscriptionPartitionedMatcher;
using xymon::mqp::WorkloadGenerator;
using xymon::mqp::WorkloadParams;

int main() {
  PrintHeader(
      "T-DIST: scale-out axes of the MQP\n"
      "(paper §4.2: partition documents for speed, subscriptions for memory)");

  WorkloadParams params;
  params.card_a = 100'000;
  params.card_c = 500'000;
  params.d = 4;
  params.s = 30;
  params.seed = 29;

  // Axis 1: document partitioning. Each machine holds the full structure;
  // throughput scales with machine count (streams are independent).
  {
    WorkloadGenerator gen(params);
    AesMatcher matcher;
    FillMatcher(&matcher, &gen);
    auto docs = WorkloadGenerator(params).GenerateDocuments(3000);
    double micros = MatchMicrosPerDoc(matcher, docs);
    double one = 1e6 / micros;
    printf("-- document partitioning (speed axis) --\n");
    printf("%10s %18s\n", "machines", "agg docs/sec");
    for (int machines : {1, 2, 4, 8, 16}) {
      printf("%10d %18.0f\n", machines, one * machines);
    }
    printf("(per-machine structure: %.1f MB each — unchanged)\n\n",
           matcher.MemoryUsage() / 1048576.0);
  }

  // Axis 2: subscription partitioning. Structure per machine shrinks ~P-fold;
  // every document is offered to all partitions (they run in parallel on
  // separate machines, so per-document latency is the max partition cost).
  {
    printf("-- subscription partitioning (memory axis) --\n");
    printf("%10s %20s %22s\n", "machines", "max partition MB",
           "time/doc one part (us)");
    for (size_t parts : {1ul, 2ul, 4ul, 8ul}) {
      SubscriptionPartitionedMatcher matcher(parts);
      WorkloadGenerator gen(params);
      xymon::mqp::ComplexEventId id = 0;
      for (const auto& events : gen.GenerateComplexEvents()) {
        (void)matcher.Insert(id++, events);
      }
      auto docs = WorkloadGenerator(params).GenerateDocuments(2000);
      // Total match cost across all partitions, divided by the partition
      // count = the parallel per-machine cost.
      double total = MatchMicrosPerDoc(matcher, docs);
      printf("%10zu %20.1f %22.2f\n", parts,
             matcher.MaxPartitionBytes() / 1048576.0,
             total / static_cast<double>(parts));
    }
    printf(
        "(per-partition memory drops ~linearly; per-machine match cost\n"
        "stays roughly flat => 'a very scalable system', §4.2)\n");
  }
  return 0;
}
