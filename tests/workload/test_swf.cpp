#include "workload/swf.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace sdsched {
namespace {

constexpr const char* kSampleSwf =
    "; Comment line\n"
    "; MaxNodes: 64\n"
    "; MaxProcs: 512\n"
    "1 0 10 100 8 -1 -1 8 200 -1 1 5 -1 -1 -1 -1 -1 -1\n"
    "2 50 -1 300 16 -1 -1 -1 600 -1 1 6 -1 -1 -1 -1 -1 -1\n"
    "3 60 -1 30 4 -1 -1 4 -1 -1 5 7 -1 -1 -1 -1 -1 -1\n"   // cancelled
    "4 70 -1 40 4 -1 -1 4 50 -1 0 8 -1 -1 -1 -1 -1 -1\n";  // failed

TEST(Swf, ParsesHeaderAndFields) {
  std::istringstream in(kSampleSwf);
  const Workload w = read_swf(in);
  EXPECT_EQ(w.info().system_nodes, 64);
  EXPECT_EQ(w.info().cores_per_node, 8);
  ASSERT_EQ(w.size(), 3u);  // cancelled dropped by default
  const JobSpec& first = w.jobs().front();
  EXPECT_EQ(first.submit, 0);
  EXPECT_EQ(first.base_runtime, 100);
  EXPECT_EQ(first.req_cpus, 8);
  EXPECT_EQ(first.req_time, 200);
  EXPECT_EQ(first.user_id, 5);
}

TEST(Swf, RequestedProcsFallsBackToAllocated) {
  std::istringstream in(kSampleSwf);
  const Workload w = read_swf(in);
  EXPECT_EQ(w.jobs()[1].req_cpus, 16);  // field 8 is -1, field 5 is 16
}

TEST(Swf, MissingRequestedTimeUsesRuntime) {
  std::istringstream in("5 0 -1 77 4 -1 -1 4 -1 -1 1 1 -1 -1 -1 -1 -1 -1\n");
  const Workload w = read_swf(in);
  ASSERT_EQ(w.size(), 1u);
  EXPECT_EQ(w.jobs().front().req_time, 77);
}

TEST(Swf, SkipOptions) {
  SwfReadOptions keep_all;
  keep_all.skip_cancelled = false;
  keep_all.skip_failed = false;
  std::istringstream in1(kSampleSwf);
  EXPECT_EQ(read_swf(in1, keep_all).size(), 4u);

  SwfReadOptions strict;
  strict.skip_cancelled = true;
  strict.skip_failed = true;
  std::istringstream in2(kSampleSwf);
  EXPECT_EQ(read_swf(in2, strict).size(), 2u);
}

// skip_failed is asymmetric by design: failed (status 0) jobs are *kept* by
// default, but the archives record them with -1/0 run times that used to
// produce degenerate JobSpecs which prepare_for() silently dropped. The
// default sanitize option clamps them (and warns once per read) instead.
TEST(Swf, KeptFailedJobWithDegenerateRuntimeIsClamped) {
  std::istringstream in(
      "1 0 -1 100 8 -1 -1 8 200 -1 1 5 -1 -1 -1 -1 -1 -1\n"
      "2 70 -1 -1 4 -1 -1 4 -1 -1 0 8 -1 -1 -1 -1 -1 -1\n"   // failed, runtime -1
      "3 80 -1 0 4 -1 -1 4 50 -1 0 8 -1 -1 -1 -1 -1 -1\n");  // failed, runtime 0
  const Workload w = read_swf(in);
  ASSERT_EQ(w.size(), 3u);  // failed jobs kept by default
  EXPECT_EQ(w.jobs()[1].base_runtime, 1);
  EXPECT_EQ(w.jobs()[1].req_time, 1);  // request fell back to the clamped runtime
  EXPECT_EQ(w.jobs()[2].base_runtime, 1);
  EXPECT_EQ(w.jobs()[2].req_time, 50);

  // The clamped specs survive preparation instead of being silently dropped.
  Workload prepared = w;
  EXPECT_EQ(prepared.prepare_for(64, 8), 0u);
  EXPECT_EQ(prepared.size(), 3u);
}

TEST(Swf, SanitizeClampsNegativeSubmitAndLowRequest) {
  std::istringstream in("1 -5 -1 100 8 -1 -1 8 30 -1 1 5 -1 -1 -1 -1 -1 -1\n");
  const Workload w = read_swf(in);
  ASSERT_EQ(w.size(), 1u);
  EXPECT_EQ(w.jobs().front().submit, 0);
  EXPECT_EQ(w.jobs().front().req_time, 100);  // raised to the run time
}

TEST(Swf, SanitizeDisabledKeepsRawValues) {
  SwfReadOptions raw;
  raw.sanitize = false;
  std::istringstream in("2 70 -1 -1 4 -1 -1 4 -1 -1 0 8 -1 -1 -1 -1 -1 -1\n");
  const Workload w = read_swf(in, raw);
  ASSERT_EQ(w.size(), 1u);
  EXPECT_EQ(w.jobs().front().base_runtime, -1);
  EXPECT_EQ(w.jobs().front().req_time, -1);
}

TEST(Swf, MaxJobsTruncates) {
  SwfReadOptions options;
  options.max_jobs = 1;
  std::istringstream in(kSampleSwf);
  EXPECT_EQ(read_swf(in, options).size(), 1u);
}

TEST(Swf, MalformedLineThrows) {
  std::istringstream in("1 2 3\n");
  EXPECT_THROW(read_swf(in), std::runtime_error);
}

// tests/data/hostile/: time fields past kSwfMaxSeconds (whose sums would
// overflow SimTime downstream), processor counts outside int, and fields
// outside long long, where integer extraction fails and the row ends early.
// Both readers reject each file with the same message naming line and field.
TEST(Swf, HostileFieldsThrowInBothReaders) {
  const std::string dir = std::string(SDSCHED_TESTS_DIR) + "/data/hostile/";
  const std::pair<const char*, const char*> cases[] = {
      {"huge_submit.swf",
       "SWF line 2: submit time 9223372036854775000 is beyond +/-4294967296"},
      {"huge_run_time.swf", "SWF line 2: run time 4294967297 is beyond +/-4294967296"},
      {"huge_requested_time.swf",
       "SWF line 3: requested time 9223372036854775000 is beyond +/-4294967296"},
      {"huge_processors.swf",
       "SWF line 2: requested processors 4294967296 is beyond +/-2147483647"},
      {"negative_processors.swf",
       "SWF line 2: allocated processors -9999999999 is beyond +/-2147483647"},
      {"overflow_requested_time.swf", "SWF line 2: expected >=11 fields, got 8"},
      {"underflow_requested_time.swf", "SWF line 2: expected >=11 fields, got 8"},
      {"truncated_row.swf", "SWF line 2: expected >=11 fields, got 4"},
      {"ends_mid_row.swf", "SWF line 2: expected >=11 fields, got 4"},
  };
  for (const auto& [file, message] : cases) {
    const auto message_of = [&](auto read) {
      std::ifstream in(dir + file);
      EXPECT_TRUE(in.good()) << file;
      try {
        (void)read(in);
      } catch (const std::runtime_error& e) {
        return std::string(e.what());
      }
      return std::string("no exception");
    };
    EXPECT_EQ(message_of([](std::istream& in) { return read_swf(in); }), message) << file;
    EXPECT_EQ(message_of([](std::istream& in) { return read_swf_reference(in); }), message)
        << file;
  }
}

// The long long extremes themselves still parse: only a value beyond them
// ends the row. The queue and partition columns are never range-checked.
TEST(Swf, LongLongBoundsParseInBothReaders) {
  const std::string row =
      "1 10 0 100 4 -1 -1 4 200 -1 1 1 -1 -9223372036854775808 9223372036854775807 -1 -1 -1\n";
  std::istringstream streamed(row);
  std::istringstream reference(row);
  const Workload a = read_swf(streamed);
  const Workload b = read_swf_reference(reference);
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(a.jobs().front().req_time, 200);
  EXPECT_EQ(b.jobs().front().req_time, 200);
}

// A header value outside long long is no header in either reader (std::stoll
// throws; the streaming parse must not wrap it to 10).
TEST(Swf, OverflowingHeaderIsIgnoredInBothReaders) {
  const std::string text =
      "; MaxNodes: 18446744073709551626\n"
      "1 10 0 100 4 -1 -1 4 200 -1 1 1 -1 -1 -1 -1 -1 -1\n";
  std::istringstream streamed(text);
  std::istringstream reference(text);
  EXPECT_EQ(read_swf(streamed).info().system_nodes, 0);
  EXPECT_EQ(read_swf_reference(reference).info().system_nodes, 0);
}

TEST(Swf, RoundTripPreservesJobs) {
  Workload original;
  original.info() = {"rt", 16, 8};
  for (int i = 0; i < 5; ++i) {
    JobSpec spec;
    spec.submit = i * 100;
    spec.base_runtime = 50 + i;
    spec.req_cpus = 8 * (i + 1);
    spec.req_time = 100 + i;
    spec.user_id = i;
    original.add(spec);
  }
  original.normalize();

  std::ostringstream out;
  write_swf(out, original);
  std::istringstream in(out.str());
  const Workload reread = read_swf(in);

  ASSERT_EQ(reread.size(), original.size());
  EXPECT_EQ(reread.info().system_nodes, 16);
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(reread.jobs()[i].submit, original.jobs()[i].submit);
    EXPECT_EQ(reread.jobs()[i].base_runtime, original.jobs()[i].base_runtime);
    EXPECT_EQ(reread.jobs()[i].req_cpus, original.jobs()[i].req_cpus);
    EXPECT_EQ(reread.jobs()[i].req_time, original.jobs()[i].req_time);
  }
}

TEST(Swf, DefaultMalleabilityOption) {
  SwfReadOptions options;
  options.default_malleability = MalleabilityClass::Rigid;
  std::istringstream in("1 0 -1 10 4 -1 -1 4 20 -1 1 1 -1 -1 -1 -1 -1 -1\n");
  const Workload w = read_swf(in, options);
  EXPECT_EQ(w.jobs().front().malleability, MalleabilityClass::Rigid);
}

TEST(Workload, PrepareForClampsAndDerives) {
  Workload w;
  JobSpec spec;
  spec.submit = 10;
  spec.base_runtime = 100;
  spec.req_time = 50;   // below runtime: must be raised
  spec.req_cpus = 9999; // beyond machine: must be clamped
  w.add(spec);
  JobSpec bad;
  bad.base_runtime = 0;  // dropped
  w.add(bad);
  const auto dropped = w.prepare_for(4, 8);
  EXPECT_EQ(dropped, 1u);
  ASSERT_EQ(w.size(), 1u);
  EXPECT_EQ(w.jobs().front().req_cpus, 32);
  EXPECT_EQ(w.jobs().front().req_nodes, 4);
  EXPECT_GE(w.jobs().front().req_time, 100);
}

TEST(Workload, NormalizeSortsAndRenumbers) {
  Workload w;
  JobSpec a;
  a.submit = 200;
  JobSpec b;
  b.submit = 100;
  w.add(a);
  w.add(b);
  w.normalize();
  EXPECT_EQ(w.jobs()[0].submit, 100);
  EXPECT_EQ(w.jobs()[0].id, 0u);
  EXPECT_EQ(w.jobs()[1].id, 1u);
}

TEST(Workload, OfferedLoadComputation) {
  Workload w;
  JobSpec spec;
  spec.base_runtime = 100;
  spec.req_cpus = 10;
  spec.submit = 0;
  w.add(spec);
  spec.submit = 100;
  w.add(spec);
  // work = 2 * 1000 core-s over a 100s span on 20 cores -> load 1.0
  EXPECT_DOUBLE_EQ(w.offered_load(20), 1.0);
}

}  // namespace
}  // namespace sdsched
