#include "traffic/demand.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"
#include "util/string_util.h"

namespace wsd {

DemandEstimator::DemandEstimator(TrafficSite site, uint32_t num_entities)
    : site_(site), num_entities_(num_entities) {}

void DemandEstimator::Consume(const VisitEvent& event) {
  ++consumed_;
  const auto key = ParseEntityUrl(event.url);
  if (!key.has_value() || key->site != site_ ||
      key->entity_index >= num_entities_) {
    ++skipped_;
    return;
  }
  if (event.channel == TrafficChannel::kSearch) {
    search_keys_.push_back({key->entity_index, event.month, event.cookie});
  } else {
    browse_keys_.push_back({key->entity_index, 0xff, event.cookie});
  }
}

DemandTable DemandEstimator::Finalize() {
  DemandTable table;
  table.site = site_;
  table.events_consumed = consumed_;
  table.events_skipped = skipped_;
  table.search_demand.assign(num_entities_, 0.0);
  table.browse_demand.assign(num_entities_, 0.0);

  auto dedupe_count = [this](std::vector<Key>& keys,
                             std::vector<double>& out) {
    std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
      if (a.entity != b.entity) return a.entity < b.entity;
      if (a.month != b.month) return a.month < b.month;
      return a.cookie < b.cookie;
    });
    const Key* prev = nullptr;
    for (const Key& k : keys) {
      const bool dup = prev != nullptr && prev->entity == k.entity &&
                       prev->month == k.month && prev->cookie == k.cookie;
      if (!dup) out[k.entity] += 1.0;
      prev = &k;
    }
    keys.clear();
    keys.shrink_to_fit();
  };
  dedupe_count(search_keys_, table.search_demand);
  dedupe_count(browse_keys_, table.browse_demand);
  return table;
}

StreamingDemandCounter::StreamingDemandCounter(TrafficSite site,
                                               TrafficChannel channel,
                                               uint32_t num_entities)
    : site_(site), channel_(channel), demand_(num_entities, 0.0) {}

void StreamingDemandCounter::Consume(const VisitEvent& event) {
  ++consumed_;
  if (event.channel != channel_) {
    FailOnce("event of the other channel in a single-channel stream");
    return;
  }
  const auto key = ParseEntityUrl(event.url);
  if (!key.has_value() || key->site != site_ ||
      key->entity_index >= demand_.size()) {
    ++skipped_;
    return;
  }
  const uint32_t entity = key->entity_index;
  if (entity != run_entity_) {
    CountRun();
    // A counted run has at least one cookie, so nonzero demand means this
    // entity's run already ended: the stream is not grouped by entity.
    if (demand_[entity] != 0.0) {
      FailOnce(StrFormat("entity %u reappears after its run was counted",
                         entity));
    }
    run_entity_ = entity;
  }
  run_.emplace_back(event.cookie, channel_ == TrafficChannel::kSearch
                                     ? event.month
                                     : uint8_t{0});
}

void StreamingDemandCounter::CountRun() {
  if (run_.empty()) return;
  std::sort(run_.begin(), run_.end());
  const auto unique_end = std::unique(run_.begin(), run_.end());
  demand_[run_entity_] += static_cast<double>(unique_end - run_.begin());
  run_.clear();
}

void StreamingDemandCounter::FailOnce(std::string message) {
  if (!status_.ok()) return;
  status_ = Status::FailedPrecondition(
      StrFormat("%s %s demand: ", std::string(TrafficSiteName(site_)).c_str(),
                channel_ == TrafficChannel::kSearch ? "search" : "browse") +
      message);
}

StatusOr<DemandTable> StreamingDemandCounter::Finish() {
  CountRun();
  if (!status_.ok()) return status_;
  DemandTable table;
  table.site = site_;
  table.events_consumed = consumed_;
  table.events_skipped = skipped_;
  std::vector<double> zeros(demand_.size(), 0.0);
  if (channel_ == TrafficChannel::kSearch) {
    table.search_demand = std::move(demand_);
    table.browse_demand = std::move(zeros);
  } else {
    table.search_demand = std::move(zeros);
    table.browse_demand = std::move(demand_);
  }
  return table;
}

DemandTable MergeChannelTables(DemandTable search, DemandTable browse) {
  WSD_CHECK(search.site == browse.site);
  WSD_CHECK(search.search_demand.size() == browse.browse_demand.size());
  search.browse_demand = std::move(browse.browse_demand);
  search.events_consumed += browse.events_consumed;
  search.events_skipped += browse.events_skipped;
  return search;
}

}  // namespace wsd
