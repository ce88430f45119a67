#include "api/report.h"

#include <sstream>

#include "metrics/summary.h"

namespace sdsched {

std::string SimulationReport::brief() const {
  std::ostringstream oss;
  oss << "[" << policy << " @ " << workload << "] " << to_string(summary);
  return oss.str();
}

void SimulationReport::to_json(JsonWriter& json) const {
  json.begin_object();
  json.field("policy", policy);
  json.field("workload", workload);
  json.key("summary");
  sdsched::to_json(json, summary);
  json.key("counters");
  json.begin_object();
  json.field("events_fired", events_fired);
  json.field("scheduling_passes", scheduling_passes);
  json.field("submits_coalesced", submits_coalesced);
  json.field("ticks_cancelled", ticks_cancelled);
  json.field("malleable_starts", malleable_starts);
  json.field("drom_shrink_ops", drom_shrink_ops);
  json.field("drom_expand_ops", drom_expand_ops);
  json.field("cancelled_jobs", cancelled_jobs);
  json.field("sd_estimate_rejections", sd_estimate_rejections);
  json.field("sd_selection_failures", sd_selection_failures);
  json.field("sd_rescans_avoided", sd_rescans_avoided);
  json.field("sd_budget_deferrals", sd_budget_deferrals);
  json.end_object();
  json.end_object();
}

std::string SimulationReport::json() const {
  JsonWriter writer;
  to_json(writer);
  return writer.str();
}

}  // namespace sdsched
