#include "workload/workload.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

#include "workload/cirne.h"
#include "workload/swf.h"

namespace sdsched {
namespace {

JobSpec spec_of(JobId id, SimTime submit, SimTime runtime, int cpus) {
  JobSpec spec;
  spec.id = id;
  spec.submit = submit;
  spec.base_runtime = runtime;
  spec.req_time = runtime;
  spec.req_cpus = cpus;
  return spec;
}

TEST(Workload, CopiesShareJobStorage) {
  Workload a;
  a.add(spec_of(0, 0, 100, 4));
  a.add(spec_of(1, 10, 50, 2));
  const Workload b = a;
  EXPECT_TRUE(a.shares_jobs_with(b));
  EXPECT_EQ(&a.jobs(), &b.jobs());
}

TEST(Workload, MutationDetachesFromSharingCopies) {
  Workload a;
  a.add(spec_of(0, 0, 100, 4));
  Workload b = a;
  b.add(spec_of(1, 5, 10, 1));
  EXPECT_FALSE(a.shares_jobs_with(b));
  EXPECT_EQ(a.size(), 1u);  // a never observes b's edit
  EXPECT_EQ(b.size(), 2u);

  Workload c = a;
  c.mutable_jobs()[0].req_cpus = 99;
  EXPECT_EQ(a.jobs()[0].req_cpus, 4);
  EXPECT_EQ(c.jobs()[0].req_cpus, 99);
}

// API input obeys the SWF readers' time bound: a submit near INT64_MAX
// used to reach the event kernel and abort on its "cannot schedule events
// in the past" assert. The error names the job's index and the field.
TEST(Workload, PrepareForRejectsTimesBeyondTheSwfBound) {
  const auto error_for = [](JobSpec bad) -> std::string {
    Workload w;
    w.add(spec_of(0, 0, 100, 4));
    w.add(bad);
    try {
      (void)w.prepare_for(4, 8);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "accepted";
  };
  JobSpec spec = spec_of(1, INT64_MAX - 10, 100, 4);
  EXPECT_EQ(error_for(spec),
            "Workload job 1: submit 9223372036854775797 is beyond +/-4294967296");
  spec.submit = -kSwfMaxSeconds - 1;
  EXPECT_EQ(error_for(spec), "Workload job 1: submit -4294967297 is beyond +/-4294967296");
  spec = spec_of(1, 0, kSwfMaxSeconds + 1, 4);
  EXPECT_EQ(error_for(spec),
            "Workload job 1: base_runtime 4294967297 is beyond +/-4294967296");
  spec = spec_of(1, 0, 100, 4);
  spec.req_time = INT64_MAX;
  EXPECT_EQ(error_for(spec),
            "Workload job 1: req_time 9223372036854775807 is beyond +/-4294967296");
  // The bound itself is accepted, as the readers accept it.
  spec = spec_of(1, kSwfMaxSeconds, kSwfMaxSeconds, 4);
  EXPECT_EQ(error_for(spec), "accepted");
}

TEST(Workload, PrepareForIsIdempotentAndPreservesSharing) {
  Workload a;
  a.add(spec_of(7, 20, 100, 4));
  a.add(spec_of(3, 0, 50, 200));   // clamped to the machine
  a.add(spec_of(4, 5, 0, 2));      // dropped: zero runtime
  EXPECT_FALSE(a.prepared_for(4, 8));
  EXPECT_EQ(a.prepare_for(4, 8), 1u);
  EXPECT_TRUE(a.prepared_for(4, 8));
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a.jobs()[0].id, 0);               // renumbered in submit order
  EXPECT_EQ(a.jobs()[0].req_cpus, 32);        // clamped to 4 nodes x 8 cores
  EXPECT_EQ(a.jobs()[1].submit, 20);

  // A prepared copy fed back through prepare_for stays shared: this is what
  // lets N sweep cells reuse one workload with zero deep copies.
  Workload b = a;
  EXPECT_EQ(b.prepare_for(4, 8), 0u);
  EXPECT_TRUE(a.shares_jobs_with(b));

  // Different machine geometry re-prepares a private copy.
  Workload c = a;
  (void)c.prepare_for(2, 8);
  EXPECT_FALSE(a.shares_jobs_with(c));
  EXPECT_TRUE(a.prepared_for(4, 8));  // a untouched
}

TEST(Workload, MutableAccessInvalidatesPreparation) {
  Workload a;
  a.add(spec_of(0, 0, 100, 4));
  (void)a.prepare_for(4, 8);
  EXPECT_TRUE(a.prepared_for(4, 8));
  a.mutable_jobs()[0].app_profile = 2;
  EXPECT_FALSE(a.prepared_for(4, 8));
  (void)a.prepare_for(4, 8);
  EXPECT_TRUE(a.prepared_for(4, 8));
  EXPECT_EQ(a.jobs()[0].app_profile, 2);
}

TEST(Workload, GeneratedWorkloadsComePrepared) {
  CirneConfig config;
  config.n_jobs = 120;
  config.system_nodes = 16;
  config.cores_per_node = 48;
  config.seed = 1;
  const Workload w = generate_cirne(config);
  EXPECT_TRUE(w.prepared_for(16, 48));
}

TEST(Workload, EmptyWorkloadBehaves) {
  const Workload w;
  EXPECT_TRUE(w.empty());
  EXPECT_EQ(w.jobs().size(), 0u);
  EXPECT_DOUBLE_EQ(w.total_work_core_seconds(), 0.0);
  EXPECT_DOUBLE_EQ(w.offered_load(100), 0.0);
  const Workload v;
  EXPECT_FALSE(w.shares_jobs_with(v));  // null storage never "shares"
}

}  // namespace
}  // namespace sdsched
