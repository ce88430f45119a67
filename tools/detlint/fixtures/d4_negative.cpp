// Fixture: D4 negatives — every occupancy write references the notify path
// (directly or via on_node_occupancy_changed), reads don't count as
// mutations, and constructor init-lists with paren initializers parse.
// Analyzed under the fake path "cluster/machine.cpp"; never compiled.
#include <utility>

namespace fixture {

struct Config {
  int nodes = 4;
};

class Observer {
 public:
  virtual ~Observer() = default;
  virtual void on_node_occupancy_changed(int node_id) = 0;
};

class Machine {
 public:
  explicit Machine(Config config)
      : config_(std::move(config)), spare_(config_.nodes) {}

  bool allocate(int node_id, int cpus) {
    busy_cores_ += cpus;
    ++occupied_nodes_;
    notify(node_id);
    return true;
  }

  void release(int node_id, int cpus) {
    busy_cores_ -= cpus;
    occupied_nodes_--;
    observer_->on_node_occupancy_changed(node_id);
  }

  // Reads are not mutations: no finding, no waiver needed.
  int busy_cores() const { return busy_cores_; }
  int free_count() const { return config_.nodes - occupied_nodes_; }
  bool idle() const { return occupied_nodes_ == 0 && busy_cores_ <= 0; }

 private:
  void notify(int node_id) { (void)node_id; }

  Config config_;
  int spare_ = 0;
  Observer* observer_ = nullptr;
  int busy_cores_ = 0;
  int occupied_nodes_ = 0;
};

}  // namespace fixture
