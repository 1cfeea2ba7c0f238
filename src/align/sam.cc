#include "align/sam.h"

#include <charconv>
#include <ostream>

#include "common/error.h"
#include "index/packed_sequence.h"

namespace staratlas {

std::string cigar_string(const AlignmentHit& hit, usize read_length) {
  STARATLAS_CHECK(!hit.segments.empty());
  std::string cigar;
  auto emit = [&cigar](u64 count, char op) {
    if (count > 0) cigar += std::to_string(count) + op;
  };

  const AlignedSegment& first = hit.segments.front();
  emit(first.read_start, 'S');  // leading soft clip

  for (usize i = 0; i < hit.segments.size(); ++i) {
    const AlignedSegment& segment = hit.segments[i];
    u64 match_run = segment.length;
    // Merge the read-gap portion of a mixed gap into the M run of the
    // following segment (bases were compared during scoring).
    if (i + 1 < hit.segments.size()) {
      const AlignedSegment& next = hit.segments[i + 1];
      const u64 read_gap = next.read_start - (segment.read_start + segment.length);
      const u64 text_gap = next.text_start - (segment.text_start + segment.length);
      STARATLAS_CHECK(text_gap >= read_gap);
      emit(match_run, 'M');
      const u64 intron = text_gap - read_gap;
      if (intron > 0) emit(intron, 'N');
      // The read-gap bases are attributed to the downstream segment's M
      // run; fold them in by rewriting the next segment view via emit of
      // read_gap here as M (kept simple: emit now).
      if (read_gap > 0) emit(read_gap, 'M');
    } else {
      emit(match_run, 'M');
    }
  }
  const AlignedSegment& last = hit.segments.back();
  const u64 tail = read_length - (last.read_start + last.length);
  emit(tail, 'S');  // trailing soft clip
  return cigar;
}

int star_mapq(u32 num_loci) {
  if (num_loci <= 1) return 255;
  if (num_loci == 2) return 3;
  if (num_loci <= 4) return 1;
  return 0;
}

namespace {

void append_number(std::string& out, u64 value) {
  char buf[24];
  const auto end = std::to_chars(buf, buf + sizeof(buf), value).ptr;
  out.append(buf, end);
}

void append_record(std::string& out, const GenomeIndex& index,
                   const ReadView& read, std::string_view seq,
                   std::string_view qual, const AlignmentHit& hit,
                   const ReadAlignment& alignment, bool secondary) {
  const ContigLocus locus = index.locate(hit.text_pos);
  u32 flag = 0;
  if (hit.reverse) flag |= 0x10;
  if (secondary) flag |= 0x100;

  out += read.name;
  out += '\t';
  append_number(out, flag);
  out += '\t';
  out += index.contigs()[locus.contig].name;
  out += '\t';
  append_number(out, locus.offset + 1);
  out += '\t';
  append_number(out, static_cast<u64>(star_mapq(alignment.num_loci)));
  out += '\t';
  out += cigar_string(hit, seq.size());
  out += "\t*\t0\t0\t";
  out += seq;
  out += '\t';
  out += qual;
  out += "\tNH:i:";
  append_number(out, alignment.num_loci);
  out += "\tAS:i:";
  append_number(out, hit.score);
  out += '\n';
}

}  // namespace

u64 append_sam_records(std::string& out, const GenomeIndex& index,
                       const ReadView& read, const ReadAlignment& alignment) {
  if (alignment.hits.empty()) {
    out += read.name;
    out += "\t4\t*\t0\t0\t*\t*\t0\t0\t";
    out += read.sequence;
    out += '\t';
    out += read.quality;
    out += "\tNH:i:0\n";
    return 1;
  }
  std::string rc_seq;  // built once, on the first reverse-strand hit
  std::string rc_qual;
  for (usize i = 0; i < alignment.hits.size(); ++i) {
    const AlignmentHit& hit = alignment.hits[i];
    if (hit.reverse && rc_seq.empty() && !read.sequence.empty()) {
      reverse_complement(read.sequence, rc_seq);
      rc_qual.assign(read.quality.rbegin(), read.quality.rend());
    }
    append_record(out, index, read, hit.reverse ? rc_seq : read.sequence,
                  hit.reverse ? rc_qual : read.quality, hit, alignment,
                  /*secondary=*/i > 0);
  }
  return alignment.hits.size();
}

SamWriter::SamWriter(std::ostream& out, const GenomeIndex& index)
    : out_(&out), index_(&index) {
  *out_ << "@HD\tVN:1.6\tSO:unsorted\n";
  for (const ContigMeta& contig : index.contigs()) {
    *out_ << "@SQ\tSN:" << contig.name << "\tLN:" << contig.length << '\n';
  }
  *out_ << "@PG\tID:staratlas\tPN:staratlas\tVN:1.0\n";
}

void SamWriter::write_read(const FastqRecord& read,
                           const ReadAlignment& alignment) {
  buffer_.clear();
  const u64 count = append_sam_records(
      buffer_, *index_, {read.name, read.sequence, read.quality}, alignment);
  write_records(buffer_, count);
}

void SamWriter::write_records(std::string_view records, u64 count) {
  out_->write(records.data(), static_cast<std::streamsize>(records.size()));
  records_ += count;
}

SamSink SamWriter::sink() {
  return [this](std::string_view records, u64 count) {
    write_records(records, count);
  };
}

}  // namespace staratlas
