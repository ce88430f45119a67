#include "workload/swf_stream.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <climits>
#include <cstring>
#include <istream>
#include <stdexcept>

#include "util/logging.h"

namespace sdsched {

namespace {

/// Process-wide sanitize-warning emissions (0 or 1): the message text is
/// identical for every stream, so the first clamping stream speaks for the
/// run. Atomic because sweep workers may drain streams concurrently.
std::atomic<std::uint64_t> g_sanitize_warnings_emitted{0};

constexpr int kStatusFailed = 0;
constexpr int kStatusCancelled = 5;

/// The whitespace set operator>> skipped in the classic locale; a trailing
/// '\r' from CRLF input falls in here, so views keep it harmlessly.
constexpr bool is_field_space(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f' || c == '\n';
}

/// Read the digit run at `p` (the sign already consumed) into `out`.
/// Returns false, leaving `out` alone, when the value is outside long long:
/// there integer extraction and std::stoll fail too.
bool parse_digits(const char*& p, const char* end, bool negative, long long& out) {
  const unsigned long long limit =
      static_cast<unsigned long long>(LLONG_MAX) + (negative ? 1 : 0);
  unsigned long long value = 0;
  while (p < end && *p >= '0' && *p <= '9') {
    const auto digit = static_cast<unsigned long long>(*p - '0');
    if (value > (limit - digit) / 10) return false;
    value = value * 10 + digit;
    ++p;
  }
  // 0 - value wraps modulo 2^64, so LLONG_MIN's magnitude converts exactly.
  out = static_cast<long long>(negative ? 0 - value : value);
  return true;
}

/// In-buffer scan of up to 18 whitespace-separated integer fields —
/// the zero-allocation equivalent of the reference reader's per-row
/// `istringstream >> long long` loop, with identical stop semantics: a
/// field that does not start with an optionally-signed digit, or whose
/// value is outside long long, ends the scan (so "12x" parses 12 and stops
/// at the 'x' exactly like extraction did). Unparsed trailing fields stay 0.
int scan_fields(std::string_view line, std::array<long long, 18>& fields) {
  const char* p = line.data();
  const char* const end = p + line.size();
  int parsed = 0;
  for (; parsed < 18; ++parsed) {
    while (p < end && is_field_space(*p)) ++p;
    if (p == end) break;
    bool negative = false;
    if (*p == '+' || *p == '-') {
      negative = (*p == '-');
      ++p;
    }
    if (p == end || *p < '0' || *p > '9') break;
    if (!parse_digits(p, end, negative, fields[static_cast<std::size_t>(parsed)])) break;
  }
  return parsed;
}

/// Parse one numeric header like "; MaxNodes: 1024" — the string_view
/// equivalent of the reference reader's find + stoll (whitespace and sign
/// allowed after the colon; anything after the digits is ignored; a value
/// outside long long is no header).
bool parse_header(std::string_view line, std::string_view key, long long& out) {
  const auto pos = line.find(key);
  if (pos == std::string_view::npos) return false;
  const auto colon = line.find(':', pos);
  if (colon == std::string_view::npos) return false;
  const char* p = line.data() + colon + 1;
  const char* const end = line.data() + line.size();
  while (p < end && is_field_space(*p)) ++p;
  bool negative = false;
  if (p < end && (*p == '+' || *p == '-')) {
    negative = (*p == '-');
    ++p;
  }
  if (p == end || *p < '0' || *p > '9') return false;
  return parse_digits(p, end, negative, out);
}

}  // namespace

void check_swf_row(std::uint64_t line, const std::array<long long, 18>& fields) {
  static constexpr std::pair<std::size_t, const char*> kColumns[] = {
      {1, "submit time"}, {3, "run time"}, {8, "requested time"},
      {4, "allocated processors"}, {7, "requested processors"}};
  for (const auto& [column, what] : kColumns) {
    const long long limit = column == 4 || column == 7 ? INT_MAX : kSwfMaxSeconds;
    if (const long long value = fields[column]; value > limit || value < -limit) {
      throw std::runtime_error("SWF line " + std::to_string(line) + ": " + what + " " +
                               std::to_string(value) + " is beyond +/-" + std::to_string(limit));
    }
  }
}

// ---------------------------------------------------------------------------
// SwfChunkReader
// ---------------------------------------------------------------------------

SwfChunkReader::SwfChunkReader(std::istream& in, std::size_t chunk_bytes)
    : in_(in), buffer_(std::max<std::size_t>(1, chunk_bytes)) {}

bool SwfChunkReader::refill() {
  if (eof_) return false;
  in_.read(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
  len_ = static_cast<std::size_t>(in_.gcount());
  pos_ = 0;
  bytes_consumed_ += len_;
  if (len_ == 0) {
    eof_ = true;
    return false;
  }
  return true;
}

bool SwfChunkReader::next_line(std::string_view& line) {
  // The carry buffer only outlives a call as the returned view; its
  // contents are dead once the caller asks for the next line.
  carry_.clear();
  for (;;) {
    if (pos_ >= len_ && !refill()) {
      if (carry_.empty()) return false;
      line = carry_;  // final line without a terminator
      return true;
    }
    const char* const base = buffer_.data() + pos_;
    const std::size_t avail = len_ - pos_;
    if (const void* nl = std::memchr(base, '\n', avail); nl != nullptr) {
      const auto line_len = static_cast<std::size_t>(static_cast<const char*>(nl) - base);
      if (carry_.empty()) {
        line = std::string_view(base, line_len);  // zero-copy: view into the chunk
      } else {
        carry_.append(base, line_len);
        line = carry_;
      }
      pos_ += line_len + 1;
      return true;
    }
    // The line continues past this chunk: carry the fragment and refill.
    carry_.append(base, avail);
    pos_ = len_;
  }
}

// ---------------------------------------------------------------------------
// SwfJobStream
// ---------------------------------------------------------------------------

SwfJobStream::SwfJobStream(std::istream& in, const SwfReadOptions& options,
                           std::size_t chunk_bytes)
    : reader_(in, chunk_bytes), options_(options) {
  info_.name = "swf";
}

SwfJobStream::~SwfJobStream() {
  // A caller that stops early (max_jobs, an abandoned scan) still gets the
  // warn-once sanitize message for the rows it did consume.
  flush_warning();
}

std::uint64_t SwfJobStream::sanitize_warnings_emitted() noexcept {
  return g_sanitize_warnings_emitted.load(std::memory_order_relaxed);
}

void SwfJobStream::reset_sanitize_warning_guard() noexcept {
  g_sanitize_warnings_emitted.store(0, std::memory_order_relaxed);
}

void SwfJobStream::flush_warning() {
  if (stats_.sanitized == 0 || stats_.sanitize_warnings != 0) return;
  ++stats_.sanitize_warnings;
  std::uint64_t expected = 0;
  if (!g_sanitize_warnings_emitted.compare_exchange_strong(expected, 1,
                                                           std::memory_order_relaxed)) {
    return;  // another stream in this process already warned (soak dedupe)
  }
  log_warn("swf", "clamped ", stats_.sanitized,
           " job records with nonpositive run time/submit or request below run "
           "time (see docs/workloads.md); pass SwfReadOptions::sanitize=false to "
           "keep raw values");
}

bool SwfJobStream::next(JobSpec& spec) {
  // Mirror the reader's consumption counter on every call, so stats() is
  // accurate whether the caller drains the stream or abandons it mid-scan.
  stats_.bytes_consumed = reader_.bytes_consumed();
  if (done_) return false;
  if (options_.max_jobs != 0 && stats_.rows >= options_.max_jobs) {
    // Early stop: nothing past the current chunk has been read, so the
    // remainder of an archive log is never touched.
    done_ = true;
    flush_warning();
    return false;
  }
  std::string_view line;
  while (reader_.next_line(line)) {
    ++stats_.lines;
    if (line.empty()) continue;
    if (line.front() == ';') {
      long long header_value = 0;
      if (parse_header(line, "MaxNodes", header_value)) {
        info_.system_nodes = static_cast<int>(header_value);
      } else if (parse_header(line, "MaxProcs", header_value) && info_.system_nodes > 0) {
        info_.cores_per_node = static_cast<int>(header_value / info_.system_nodes);
      }
      continue;
    }
    std::array<long long, 18> fields{};
    const int parsed = scan_fields(line, fields);
    if (parsed < 11) {
      throw std::runtime_error("SWF line " + std::to_string(stats_.lines) +
                               ": expected >=11 fields, got " + std::to_string(parsed));
    }
    check_swf_row(stats_.lines, fields);

    const long long status = fields[10];
    if (options_.skip_failed && status == kStatusFailed) {
      ++stats_.rows_filtered;
      continue;
    }
    if (options_.skip_cancelled && status == kStatusCancelled) {
      ++stats_.rows_filtered;
      continue;
    }

    spec = JobSpec{};
    spec.submit = static_cast<SimTime>(fields[1]);
    spec.base_runtime = static_cast<SimTime>(fields[3]);
    const long long procs_alloc = fields[4];
    const long long procs_req = fields[7];
    spec.req_cpus = static_cast<int>(procs_req > 0 ? procs_req : procs_alloc);
    spec.req_time = static_cast<SimTime>(fields[8] > 0 ? fields[8] : fields[3]);
    spec.user_id = static_cast<int>(fields[11]);
    spec.malleability = options_.default_malleability;
    if (options_.sanitize) {
      // Same clamp set as the reference reader: the archives' non-completed
      // rows use -1/0 placeholders that would make degenerate JobSpecs.
      bool clamped = false;
      if (spec.base_runtime <= 0) {
        spec.base_runtime = 1;
        clamped = true;
      }
      if (spec.submit < 0) {
        spec.submit = 0;
        clamped = true;
      }
      if (spec.req_time < spec.base_runtime) {
        spec.req_time = spec.base_runtime;
        clamped = true;
      }
      if (clamped) ++stats_.sanitized;
    }

    // O(1)-state burst summary: archives are submit-ordered, so same-second
    // groups are adjacent rows.
    const auto submit = static_cast<long long>(spec.submit);
    if (stats_.rows == 0) {
      stats_.first_submit = submit;
      current_burst_ = 1;
    } else if (submit == stats_.last_submit) {
      ++stats_.same_second_submits;
      ++current_burst_;
    } else {
      current_burst_ = 1;
    }
    stats_.max_submit_burst = std::max(stats_.max_submit_burst, current_burst_);
    stats_.last_submit = submit;
    ++stats_.rows;
    stats_.bytes_consumed = reader_.bytes_consumed();
    return true;
  }
  done_ = true;
  stats_.bytes_consumed = reader_.bytes_consumed();
  flush_warning();
  return false;
}

}  // namespace sdsched
