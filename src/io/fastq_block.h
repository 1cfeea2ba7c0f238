// Block FASTQ parser: the streaming-ingest replacement for FastqReader.
//
// Reads the input in 256 KiB blocks and scans for newlines with memchr,
// carving records straight into a ReadBatch arena — no per-read
// std::string allocation, no per-line copy through std::getline. Parsing
// semantics are bit-compatible with FastqReader: the same records come
// out in the same order, CRLF line endings and blank lines between
// records are handled identically, and every malformed input raises a
// ParseError with the exact same message (including line numbers), which
// tests/io/fuzz_test.cc asserts over a shared corpus.
#pragma once

#include <iosfwd>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "io/read_batch.h"

namespace staratlas {

class FastqBlockReader {
 public:
  static constexpr usize kDefaultBlockBytes = 256 * 1024;

  /// The reader borrows `in`; it must outlive the reader. `block_bytes`
  /// is the refill granularity (the buffer grows beyond it only when a
  /// single line is longer than the block).
  explicit FastqBlockReader(std::istream& in,
                            usize block_bytes = kDefaultBlockBytes);

  /// Zero-copy memory mode: parses `data` in place (an mmap'd file, a
  /// decoded container, a test corpus) without the stream double-copy.
  /// `data` must outlive the reader; the newline index is built in
  /// 16 MiB windows as parsing advances.
  explicit FastqBlockReader(std::string_view data);

  /// Parses up to `max_reads` records, appending them to `batch` (which
  /// is not cleared first). Returns the number appended; 0 means end of
  /// stream. Throws ParseError exactly as FastqReader::next would.
  usize read_batch(ReadBatch& batch, usize max_reads);

  /// Number of records returned so far.
  u64 records_read() const { return count_; }

  /// Exact serialized size of the 4-line FASTQ form of every record
  /// returned so far — accumulated during the parse so callers never need
  /// an O(records) fastq_serialized_size() walk.
  u64 serialized_bytes() const { return bytes_; }

 private:
  /// Memory-mode index granularity. The newline index holds one window at
  /// a time, so its footprint is bounded by the window (a u32 per line)
  /// instead of growing with the whole input.
  static constexpr usize kIndexWindowBytes = 16 * 1024 * 1024;

  /// Next logical line (newline-terminated or the unterminated tail) with
  /// any trailing '\r' stripped, as a window into the block buffer. The
  /// window is valid only until the next next_line() call. Returns false
  /// at end of stream.
  bool next_line(const char** data, usize* len);

  /// Rebuilds nl_ with the offsets of every '\n' in
  /// base_[from, scan_end), relative to `rel_base` (<= from). Offsets are
  /// u32: a window never spans more than 4 GiB.
  void index_newlines(usize from, usize scan_end, usize rel_base);

  /// Parses one record into `batch`; false on clean end of stream.
  bool parse_record(ReadBatch& batch);

  std::istream* in_;        ///< null in memory mode
  std::vector<char> buf_;   ///< block buffer (unused in memory mode)
  const char* base_ = nullptr;  ///< current window: buf_ or borrowed memory
  std::vector<u32> nl_;  ///< newline offsets, relative to nl_base_
  usize nl_head_ = 0;    ///< next unconsumed entry in nl_
  usize nl_base_ = 0;    ///< absolute offset nl_ entries are relative to
  usize nl_scanned_ = 0;  ///< one past the last byte swept for newlines
  usize pos_ = 0;    ///< next unconsumed byte in the window
  usize limit_ = 0;  ///< one past the last valid byte in the window
  bool eof_ = false;
  u64 count_ = 0;
  u64 line_ = 0;
  u64 bytes_ = 0;
};

/// Record and base totals of one whole FASTQ buffer.
struct FastqTally {
  u64 reads = 0;
  u64 bases = 0;
};

/// Parses all of `data` with FastqBlockReader, keeping only the totals:
/// exactly the records a streaming parse of the same bytes yields, and the
/// same ParseError on the first malformed record wherever it lies. For
/// callers that need a sample's size before streaming it (an early-stop
/// checkpoint is a fraction of the total).
FastqTally tally_fastq(std::string_view data);

}  // namespace staratlas
