#ifndef WSD_TRAFFIC_DEMAND_H_
#define WSD_TRAFFIC_DEMAND_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "traffic/traffic_log.h"
#include "traffic/url_patterns.h"
#include "util/status.h"
#include "util/statusor.h"

namespace wsd {

/// Estimated demand per entity of one site: "we use unique (anonymized)
/// cookies as a proxy for unique users, and define the demand for a URL
/// (and hence the entity it mentions) as the number of visits from unique
/// cookies" (§4.1). Search demand deduplicates cookies per month; browse
/// demand per year (the paper's footnote 2).
struct DemandTable {
  TrafficSite site = TrafficSite::kYelp;
  std::vector<double> search_demand;  // per entity
  std::vector<double> browse_demand;  // per entity
  uint64_t events_consumed = 0;
  uint64_t events_skipped = 0;  // URLs that matched no entity pattern
};

/// Accumulates visit events (any order, both channels interleaved) and
/// produces per-entity demand estimates. It keeps every event's key until
/// Finalize, so memory grows with the log. It is the reference that
/// StreamingDemandCounter is tested against.
class DemandEstimator {
 public:
  DemandEstimator(TrafficSite site, uint32_t num_entities);

  void Consume(const VisitEvent& event);

  /// Deduplicates and aggregates. The estimator is spent afterwards.
  DemandTable Finalize();

 private:
  struct Key {
    uint32_t entity;
    uint8_t month;  // search only; 0xff for browse
    uint64_t cookie;
  };

  TrafficSite site_;
  uint32_t num_entities_;
  std::vector<Key> search_keys_;
  std::vector<Key> browse_keys_;
  uint64_t consumed_ = 0;
  uint64_t skipped_ = 0;
};

/// The production counter for one channel of one site. It computes
/// exactly what DemandEstimator computes from that channel's events, but
/// it needs each entity's events to arrive as one contiguous run, which is
/// TrafficLogGenerator's order. Noise events may fall anywhere. Every URL
/// is still parsed, so the §4.1 pattern step and the noise skipping are
/// unchanged. Only the current run's (month, cookie) keys are held: on
/// each entity change the run is sorted, deduplicated and counted.
/// Consume allocates nothing once the run buffer has grown to the longest
/// run.
class StreamingDemandCounter {
 public:
  StreamingDemandCounter(TrafficSite site, TrafficChannel channel,
                         uint32_t num_entities);

  void Consume(const VisitEvent& event);

  /// Counts the last run and returns a table whose `channel` demand is
  /// filled and whose other channel is all zeros. Fails closed with
  /// FailedPrecondition, naming the first offence, if an entity's events
  /// were split into more than one run or an event of the other channel
  /// arrived. The counter is spent afterwards.
  [[nodiscard]] StatusOr<DemandTable> Finish();

 private:
  void CountRun();
  void FailOnce(std::string message);

  TrafficSite site_;
  TrafficChannel channel_;
  std::vector<double> demand_;
  static constexpr uint32_t kNoRun = UINT32_MAX;
  uint32_t run_entity_ = kNoRun;
  // The current run's (cookie, month) keys; month is 0 for browse, whose
  // cookies deduplicate over the whole year.
  std::vector<std::pair<uint64_t, uint8_t>> run_;
  uint64_t consumed_ = 0;
  uint64_t skipped_ = 0;
  Status status_;
};

/// Combines one site's two single-channel tables (search from one
/// StreamingDemandCounter, browse from the other) into the table
/// DemandEstimator builds from both streams. Exact: the channels are
/// disjoint, so each side contributes its own demand vector and the event
/// counts add.
DemandTable MergeChannelTables(DemandTable search, DemandTable browse);

}  // namespace wsd

#endif  // WSD_TRAFFIC_DEMAND_H_
