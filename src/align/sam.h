// SAM output (STAR's Aligned.out.sam): header generation, CIGAR
// construction from alignment segments, and record formatting with
// STAR-compatible MAPQ and NH tags.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>

#include "align/record.h"
#include "index/genome_index.h"
#include "io/fastq.h"

namespace staratlas {

/// CIGAR for one hit: soft-clipped ends, M runs for aligned segments, N
/// for intron gaps (genomic gap larger than read gap), and the read-gap
/// part of mixed gaps as M-through (mismatch scoring absorbed the bases).
/// `read_length` is the length of the (orientation-resolved) read.
std::string cigar_string(const AlignmentHit& hit, usize read_length);

/// STAR's MAPQ convention: 255 unique, 3 for 2 loci, 1 for 3-4, 0 beyond.
int star_mapq(u32 num_loci);

/// Appends the SAM records of one read to `out` and returns how many it
/// appended: the primary hit first, remaining hits as secondary (flag
/// 0x100), or one unmapped record (flag 0x4). Reverse-strand hits store
/// the reverse-complemented sequence and reversed qualities, per the SAM
/// convention. This is the one record formatter: SamWriter::write_read
/// and the engine's in-run SAM rendering both call it.
u64 append_sam_records(std::string& out, const GenomeIndex& index,
                       const ReadView& read, const ReadAlignment& alignment);

/// Receives rendered SAM records (no header) in input order: `records`
/// holds `count` complete, newline-terminated records.
using SamSink = std::function<void(std::string_view records, u64 count)>;

class SamWriter {
 public:
  /// Writes @HD/@SQ/@PG headers for the index's contigs.
  SamWriter(std::ostream& out, const GenomeIndex& index);

  /// Writes all records for one read (see append_sam_records).
  void write_read(const FastqRecord& read, const ReadAlignment& alignment);

  /// Writes records rendered elsewhere by append_sam_records.
  void write_records(std::string_view records, u64 count);

  /// A sink that writes into this writer (which must outlive it).
  SamSink sink();

  u64 records_written() const { return records_; }

 private:
  std::ostream* out_;
  const GenomeIndex* index_;
  std::string buffer_;  ///< one read's records, reused
  u64 records_ = 0;
};

}  // namespace staratlas
