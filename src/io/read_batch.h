// ReadBatch: an arena-backed batch of FASTQ records for the streaming
// ingest path.
//
// A batch owns one contiguous byte arena holding every record's name,
// sequence and quality back to back, plus a 16-byte-per-record offset
// table. Consumers borrow records as non-owning ReadViews, so filling and
// aligning a batch costs zero per-read heap allocations once the arena
// has grown to the workload's high-water mark — clear() keeps capacity,
// which is what lets the engine recycle a fixed ring of batches and cap
// peak ingest memory at (batches in flight) x (batch arena bytes) instead
// of the whole FASTQ.
#pragma once

#include <algorithm>
#include <cstring>
#include <memory>
#include <string_view>
#include <vector>

#include "align/record.h"
#include "common/types.h"

namespace staratlas {

/// Append-only byte buffer backing a ReadBatch. A std::vector<char> would
/// do, but its range-insert runs a capacity check per call and its growth
/// value-initializes — measurable on the block parser's hot path, where
/// every record costs three appends. This keeps append to one branch and
/// one memcpy.
class ByteArena {
 public:
  usize size() const { return size_; }
  usize capacity() const { return cap_; }
  const char* data() const { return data_.get(); }
  char* data() { return data_.get(); }

  /// Drops the contents but keeps the allocation.
  void clear() { size_ = 0; }

  void reserve(usize n) {
    if (n > cap_) grow_to(n);
  }

  /// Appends raw bytes; returns their offset.
  u64 append(const char* src, usize len) {
    if (size_ + len > cap_) grow_to(std::max(size_ + len, cap_ * 2));
    std::memcpy(data_.get() + size_, src, len);
    const u64 offset = size_;
    size_ += len;
    return offset;
  }

 private:
  void grow_to(usize n) {
    std::unique_ptr<char[]> bigger(new char[n]);
    if (size_ > 0) std::memcpy(bigger.get(), data_.get(), size_);
    data_ = std::move(bigger);
    cap_ = n;
  }

  std::unique_ptr<char[]> data_;
  usize size_ = 0;
  usize cap_ = 0;
};

class ReadBatch {
 public:
  usize size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }

  /// Drops all records but keeps arena and table capacity for reuse.
  void clear() {
    arena_.clear();
    records_.clear();
    fastq_bytes_ = 0;
    bases_ = 0;
  }

  void reserve(usize num_reads, usize arena_bytes) {
    records_.reserve(num_reads);
    arena_.reserve(arena_bytes);
  }

  std::string_view name(usize i) const {
    const Record& rec = records_[i];
    return {arena_.data() + rec.offset, rec.name_len};
  }
  std::string_view sequence(usize i) const {
    const Record& rec = records_[i];
    return {arena_.data() + rec.offset + rec.name_len, rec.seq_len};
  }
  std::string_view quality(usize i) const {
    const Record& rec = records_[i];
    return {arena_.data() + rec.offset + rec.name_len + rec.seq_len,
            rec.seq_len};
  }
  ReadView view(usize i) const { return {name(i), sequence(i), quality(i)}; }

  /// Copies one complete record into the arena. `quality` must be the same
  /// length as `sequence` (validated by the parsers before they commit).
  void append(std::string_view name, std::string_view sequence,
              std::string_view quality) {
    const u64 offset = append_bytes(name.data(), name.size());
    append_bytes(sequence.data(), sequence.size());
    append_bytes(quality.data(), quality.size());
    commit(offset, static_cast<u32>(name.size()),
           static_cast<u32>(sequence.size()));
  }

  // Staged low-level API for the block parser: copy raw spans in, validate,
  // normalize the sequence span in place, then commit the offset-table
  // entry. Nothing committed is visible until commit(); bytes appended for
  // a record that fails validation are simply orphaned in the arena.

  /// Appends raw bytes; returns their arena offset.
  u64 append_bytes(const char* data, usize len) {
    return arena_.append(data, len);
  }

  /// Mutable arena access (in-place sequence normalization).
  char* arena_at(u64 offset) { return arena_.data() + offset; }

  /// Commits one record whose name/sequence/quality were appended
  /// contiguously at `offset`; quality length equals sequence length.
  void commit(u64 offset, u32 name_len, u32 seq_len) {
    records_.push_back({offset, name_len, seq_len});
    // Serialized 4-line form: '@' name '\n' seq '\n' "+\n" qual '\n'.
    fastq_bytes_ += 1 + name_len + 1 + seq_len + 1 + 2 + seq_len + 1;
    bases_ += seq_len;
  }

  /// Exact serialized size of the contained records' 4-line FASTQ form.
  u64 fastq_bytes() const { return fastq_bytes_; }

  /// Total sequence length of the contained records.
  u64 bases() const { return bases_; }

  /// Allocated footprint (capacity, not size) — what a recycled batch
  /// permanently holds; the engine sums this for its peak-memory bound.
  u64 capacity_bytes() const {
    return arena_.capacity() + records_.capacity() * sizeof(Record);
  }

 private:
  struct Record {
    u64 offset;    ///< name starts here; sequence and quality follow
    u32 name_len;
    u32 seq_len;   ///< quality has the same length
  };

  ByteArena arena_;
  std::vector<Record> records_;
  u64 fastq_bytes_ = 0;
  u64 bases_ = 0;
};

}  // namespace staratlas
