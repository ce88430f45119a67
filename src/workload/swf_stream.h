// Chunked streaming SWF ingestion: the flat-memory reading path.
//
// The historical reader (`read_swf_reference` in swf.h) pulled one
// std::getline'd std::string per row and tokenized it through an
// istringstream — two allocations plus a locale-aware numeric parse per
// row, and the whole `Workload` materialized before anything downstream
// ran. At archive scale (the 447794-job RICC log) both costs dominate:
// parse time and an O(jobs) resident even when the caller only wanted
// windowed statistics or the first `max_jobs` rows.
//
// This file is the replacement core, layered bottom-up:
//
//  * `SwfChunkReader` — a fixed-size buffer (`chunk_bytes`, default 256
//    KiB) refilled from the istream; `next_line()` hands out views into
//    the buffer with zero copies for any line that fits inside one chunk,
//    and carries the partial trailing line across the refill boundary in a
//    small reused carry buffer (the only per-line copy, and only for the
//    one row a chunk boundary happens to split). Memory is O(chunk), not
//    O(file).
//  * `SwfJobStream` — the pull iterator: applies the full `SwfReadOptions`
//    contract (header recognition, status filtering, sanitization with
//    one warning per stream, `max_jobs`) and yields one `JobSpec` at a
//    time. Reaching `max_jobs` stops the scan where it stands: at most
//    the already-buffered chunk has been consumed from the stream, never
//    the remainder of the file.
//
// `read_swf` (swf.h) is a thin loop over `SwfJobStream` and produces
// byte-identical Workloads to the reference reader (pinned by
// tests/workload/test_swf_stream.cpp across chunk sizes including 1 byte);
// `trace_replay --soak` and `bench/swf_ingest` consume the iterator
// directly so archive-scale scans stay flat in memory. The memory contract
// and the chunk/carry design are documented in docs/workloads.md
// ("Streaming ingestion").
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "workload/swf.h"
#include "workload/workload.h"

namespace sdsched {

/// Running counters of one streaming scan. `bytes_consumed` counts bytes
/// taken from the istream (chunk granularity — an early stop leaves the
/// rest of the file unread); the submit/burst fields summarize the rows
/// *delivered* (SWF logs are submit-ordered, so same-second groups are
/// adjacent and the burst scan needs O(1) state, not the row vector).
struct SwfStreamStats {
  std::uint64_t bytes_consumed = 0;
  std::uint64_t lines = 0;           ///< all lines seen (comments included)
  std::uint64_t rows = 0;            ///< data rows delivered to the caller
  std::uint64_t rows_filtered = 0;   ///< rows dropped by status filters
  std::uint64_t sanitized = 0;       ///< rows with at least one clamped field
  std::uint64_t sanitize_warnings = 0;  ///< warn-once: 0 or 1 after a drain
  long long first_submit = 0;        ///< of delivered rows (0 when rows == 0)
  long long last_submit = 0;
  std::uint64_t same_second_submits = 0;  ///< rows sharing the previous row's second
  std::uint64_t max_submit_burst = 1;     ///< largest adjacent same-second group
};

/// Both readers' row check: throws std::runtime_error("SWF line N: ...") for
/// a time beyond kSwfMaxSeconds or a processor count beyond int.
void check_swf_row(std::uint64_t line, const std::array<long long, 18>& fields);

/// Chunked line scanner. Not SWF-specific beyond living here: reads
/// `chunk_bytes` at a time, yields `\n`-terminated (or final unterminated)
/// lines as views, carries split lines across refills. A trailing `\r`
/// (CRLF input) is left in the view — the field scanner treats it as
/// whitespace exactly like operator>> did.
class SwfChunkReader {
 public:
  static constexpr std::size_t kDefaultChunkBytes = 256 * 1024;

  explicit SwfChunkReader(std::istream& in, std::size_t chunk_bytes = kDefaultChunkBytes);

  /// The next line, without its terminator; false at end of stream. The
  /// view is valid until the next call (it points into the chunk buffer
  /// or, for a split line, into the carry buffer).
  bool next_line(std::string_view& line);

  [[nodiscard]] std::uint64_t bytes_consumed() const noexcept { return bytes_consumed_; }

 private:
  /// Refill the chunk buffer from the stream; false at EOF.
  bool refill();

  std::istream& in_;
  std::vector<char> buffer_;
  std::size_t pos_ = 0;  ///< next unconsumed byte in buffer_
  std::size_t len_ = 0;  ///< valid bytes in buffer_
  std::string carry_;    ///< partial line carried across refills (reused)
  std::uint64_t bytes_consumed_ = 0;
  bool eof_ = false;
};

/// Pull iterator over an SWF stream: one sanitized, filtered `JobSpec` per
/// `next()`. Header lines are folded into `info()` as they are seen (SWF
/// headers precede data rows, so info() is complete by the first row).
/// The sanitize warning (same warn-once contract as the whole-file reader)
/// fires when the stream is exhausted or stopped; `stats()` carries the
/// counts either way.
class SwfJobStream {
 public:
  SwfJobStream(std::istream& in, const SwfReadOptions& options,
               std::size_t chunk_bytes = SwfChunkReader::kDefaultChunkBytes);
  ~SwfJobStream();

  SwfJobStream(const SwfJobStream&) = delete;
  SwfJobStream& operator=(const SwfJobStream&) = delete;

  /// Parse rows until one survives the filters; false when the stream is
  /// exhausted or `max_jobs` rows have been delivered (the remainder of
  /// the file is then left unread). Throws std::runtime_error on a
  /// malformed row, like the whole-file reader.
  bool next(JobSpec& spec);

  /// MaxNodes/MaxProcs headers seen so far (complete after the first row).
  [[nodiscard]] const WorkloadInfo& info() const noexcept { return info_; }

  [[nodiscard]] const SwfStreamStats& stats() const noexcept { return stats_; }

  /// Sanitize warnings actually written to the log by this process: 0 or 1.
  /// The per-stream warn-once contract (stats().sanitize_warnings) is
  /// unchanged, but the *emission* is deduped process-wide — a soak run
  /// opens one stream per read and would otherwise repeat the identical
  /// message per trace per tier.
  [[nodiscard]] static std::uint64_t sanitize_warnings_emitted() noexcept;

  /// Test hook: re-arm the process-wide emission guard.
  static void reset_sanitize_warning_guard() noexcept;

 private:
  /// Emit the warn-once sanitize message if clamps happened and it has not
  /// fired yet.
  void flush_warning();

  SwfChunkReader reader_;
  SwfReadOptions options_;
  WorkloadInfo info_;
  SwfStreamStats stats_;
  std::uint64_t current_burst_ = 0;  ///< length of the open same-second group
  bool done_ = false;
};

}  // namespace sdsched
