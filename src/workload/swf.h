// Standard Workload Format (Feitelson) reader/writer.
//
// The 18-column field layout, which columns we consume, and the
// status/estimate sanitization rules are documented in docs/workloads.md
// ("SWF field mapping"). The writer emits all 18 columns so produced traces
// round-trip through other SWF tools.
#pragma once

#include <iosfwd>
#include <string>

#include "workload/workload.h"

namespace sdsched {

struct SwfReadOptions {
  bool skip_failed = false;      ///< drop status==0 (failed) jobs
  bool skip_cancelled = true;    ///< drop status==5 (cancelled) jobs
  /// Failed jobs are *kept* by default, but the archives record many of
  /// them with zero/negative run times (and occasionally no request), which
  /// would produce degenerate JobSpecs that prepare_for() silently drops.
  /// Sanitizing clamps run time to >= 1s, submit to >= 0 and the request to
  /// >= the run time, and warns once per read with the clamp count.
  bool sanitize = true;
  std::size_t max_jobs = 0;      ///< 0 = unlimited
  MalleabilityClass default_malleability = MalleabilityClass::Malleable;
};

/// Largest |submit|, |run time| or |requested time| a reader accepts: 2^32 s
/// (136 years) is beyond any archive, and sums of such times fit SimTime.
/// Workload::prepare_for() holds jobs built through the API to it as well.
inline constexpr long long kSwfMaxSeconds = 1LL << 32;

/// Parse SWF text. Recognizes `; MaxNodes:` and `; MaxProcs:` headers.
/// Throws std::runtime_error on malformed or out-of-range fields (check_swf_row).
///
/// Implemented on the chunked streaming reader (workload/swf_stream.h):
/// fixed-size buffer refills and in-buffer field scanning, no per-row
/// string allocations, memory flat in the file size until the job vector
/// itself. Output is byte-identical to `read_swf_reference` (pinned by
/// tests/workload/test_swf_stream.cpp). `chunk_bytes` overrides the refill
/// size (0 = default 256 KiB; the parity property test sweeps it down to 1
/// byte). Callers that don't need the whole job vector — windowed stats,
/// bounded `max_jobs` prefixes — should pull from `SwfJobStream` directly.
[[nodiscard]] Workload read_swf(std::istream& in, const SwfReadOptions& options = {},
                                std::size_t chunk_bytes = 0);
[[nodiscard]] Workload read_swf_file(const std::string& path,
                                     const SwfReadOptions& options = {});

/// The historical line-at-a-time reader (std::getline + istringstream field
/// extraction, whole vector materialized up front). Retained verbatim as
/// the parity oracle for the streaming reader's property tests and as the
/// comparison tier of `bench/swf_ingest` — not a production path.
[[nodiscard]] Workload read_swf_reference(std::istream& in,
                                          const SwfReadOptions& options = {});

/// Write a workload as SWF (with MaxNodes/MaxProcs headers when known).
void write_swf(std::ostream& out, const Workload& workload);
void write_swf_file(const std::string& path, const Workload& workload);

}  // namespace sdsched
