// Fixture: D4 waivers — a mutator that legitimately cannot notify carries a
// mutator-ok waiver on the function header (or the line above it). The real
// machine.cpp needs none: every counter write sits beside its notify call.
// Analyzed under the fake path "cluster/machine.cpp"; never compiled.
// (Prose must not spell the waiver marker verbatim — it would scan as a
// stale waiver.)
namespace fixture {

class Machine {
 public:
  // detlint: mutator-ok(construction precedes any observer attachment)
  Machine(int nodes, int cores) {
    occupied_nodes_ = nodes;
    busy_cores_ = nodes * cores;
  }

  void release(int node_id, int cpus) {
    busy_cores_ -= cpus;
    notify(node_id);
  }

 private:
  void notify(int node_id) { (void)node_id; }

  int busy_cores_ = 0;
  int occupied_nodes_ = 0;
};

}  // namespace fixture
