// Fixture: D4 positives — occupancy mutators that never reference the
// MachineObserver notify path, so a subscribed ClusterStateIndex /
// FreeNodeIndex would silently go stale. Analyzed under the fake path
// "cluster/machine.cpp" (the rule's scope); never compiled.
namespace fixture {

class Machine {
 public:
  // finding: writes busy_cores_ without notify
  bool grow(int node_id, int cpus) {
    if (cpus <= 0) return false;
    busy_cores_ += cpus;
    (void)node_id;
    return true;
  }

  // finding: pre-increments occupied_nodes_ without notify
  void mark_busy(int node_id) {
    ++occupied_nodes_;
    (void)node_id;
  }

  // finding: assigns both counters without notify
  void reset() {
    busy_cores_ = 0;
    occupied_nodes_ = 0;
  }

 private:
  void notify(int node_id) { (void)node_id; }

  int busy_cores_ = 0;
  int occupied_nodes_ = 0;
};

}  // namespace fixture
