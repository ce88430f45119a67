#include "sched/scheduler.h"

#include <stdexcept>
#include <string>

namespace sdsched {

void Scheduler::require_cluster_index() const {
  if (cluster_index_ == nullptr) {
    throw std::logic_error(std::string(name()) +
                           ": schedule_pass needs a cluster index (set_cluster_index)");
  }
}

}  // namespace sdsched
