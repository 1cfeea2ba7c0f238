#include "io/fastq_block.h"

#include <algorithm>
#include <cstring>
#include <istream>
#include <limits>
#include <string>

#include "common/error.h"
#include "common/simd.h"
#include "io/fasta.h"

#if defined(STARATLAS_X86_SIMD)
#include <immintrin.h>
#endif

namespace staratlas {

namespace {
#if defined(STARATLAS_X86_SIMD)
// Newline scan kernels: one vectorized sweep per refill (or per 16 MiB
// window in memory mode) builds the newline index, so the per-line cost
// is a table pop instead of a short-span memchr call. Offsets are emitted
// 128 input bytes per iteration through u64 masks, written with raw
// stores: a 128-byte span holds at most 128 newlines, so guaranteeing
// that much headroom up front removes the per-push capacity branch that
// otherwise dominates (a push_back loop runs at barely half this speed).
// Offsets are stored relative to the scan pointer `p` and fit u32 because
// no window spans more than 4 GiB.
void scan_newlines_sse2(const char* p, usize from, usize limit,
                        std::vector<u32>& out) {
  usize n = out.size();
  usize i = from;
  const __m128i nl = _mm_set1_epi8('\n');
  for (; i + 128 <= limit; i += 128) {
    if (n + 128 > out.size()) out.resize(std::max(out.size() * 2, n + 1024));
    u64 m0 = 0;
    u64 m1 = 0;
    for (int k = 0; k < 4; ++k) {
      const __m128i a = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(p + i + 16 * k));
      const __m128i b = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(p + i + 64 + 16 * k));
      m0 |= static_cast<u64>(static_cast<u32>(
                _mm_movemask_epi8(_mm_cmpeq_epi8(a, nl))))
            << (16 * k);
      m1 |= static_cast<u64>(static_cast<u32>(
                _mm_movemask_epi8(_mm_cmpeq_epi8(b, nl))))
            << (16 * k);
    }
    u32* dst = out.data();
    while (m0) {
      dst[n++] = static_cast<u32>(i + static_cast<usize>(__builtin_ctzll(m0)));
      m0 &= m0 - 1;
    }
    while (m1) {
      dst[n++] =
          static_cast<u32>(i + 64 + static_cast<usize>(__builtin_ctzll(m1)));
      m1 &= m1 - 1;
    }
  }
  out.resize(n);
  for (; i < limit; ++i) {
    if (p[i] == '\n') out.push_back(static_cast<u32>(i));
  }
}

__attribute__((target("avx2"))) void scan_newlines_avx2(
    const char* p, usize from, usize limit, std::vector<u32>& out) {
  usize n = out.size();
  usize i = from;
  const __m256i nl = _mm256_set1_epi8('\n');
  for (; i + 128 <= limit; i += 128) {
    if (n + 128 > out.size()) out.resize(std::max(out.size() * 2, n + 1024));
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i + 32));
    const __m256i c =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i + 64));
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i + 96));
    u64 m0 = static_cast<u64>(static_cast<u32>(
                 _mm256_movemask_epi8(_mm256_cmpeq_epi8(a, nl)))) |
             (static_cast<u64>(static_cast<u32>(_mm256_movemask_epi8(
                  _mm256_cmpeq_epi8(b, nl))))
              << 32);
    u64 m1 = static_cast<u64>(static_cast<u32>(
                 _mm256_movemask_epi8(_mm256_cmpeq_epi8(c, nl)))) |
             (static_cast<u64>(static_cast<u32>(_mm256_movemask_epi8(
                  _mm256_cmpeq_epi8(d, nl))))
              << 32);
    u32* dst = out.data();
    while (m0) {
      dst[n++] = static_cast<u32>(i + static_cast<usize>(__builtin_ctzll(m0)));
      m0 &= m0 - 1;
    }
    while (m1) {
      dst[n++] =
          static_cast<u32>(i + 64 + static_cast<usize>(__builtin_ctzll(m1)));
      m1 &= m1 - 1;
    }
  }
  out.resize(n);
  for (; i < limit; ++i) {
    if (p[i] == '\n') out.push_back(static_cast<u32>(i));
  }
}

// Scalar reference: the same byte loop the non-x86 build uses, routed
// through the kernel table so STARATLAS_FORCE_SCALAR exercises it.
void scan_newlines_scalar(const char* p, usize from, usize limit,
                          std::vector<u32>& out) {
  for (usize i = from; i < limit; ++i) {
    if (p[i] == '\n') out.push_back(static_cast<u32>(i));
  }
}

using ScanKernel = void (*)(const char*, usize, usize, std::vector<u32>&);
#endif  // STARATLAS_X86_SIMD
}  // namespace

FastqBlockReader::FastqBlockReader(std::istream& in, usize block_bytes)
    : in_(&in), buf_(block_bytes ? block_bytes : kDefaultBlockBytes) {
  base_ = buf_.data();
}

FastqBlockReader::FastqBlockReader(std::string_view data)
    : in_(nullptr), base_(data.data()), limit_(data.size()), eof_(true) {
  // FASTQ lines are rarely shorter than ~30 bytes; over-reserving a
  // little avoids growth copies of the index while it is built.
  nl_.reserve(std::min(data.size(), kIndexWindowBytes) / 24 + 16);
  index_newlines(0, std::min(data.size(), kIndexWindowBytes), 0);
}

void FastqBlockReader::index_newlines(usize from, usize scan_end,
                                      usize rel_base) {
  nl_.clear();
  nl_head_ = 0;
  nl_base_ = rel_base;
#if defined(STARATLAS_X86_SIMD)
  static const ScanKernel kKernel = pick_kernel(
      &scan_newlines_scalar, &scan_newlines_sse2, &scan_newlines_avx2);
  kKernel(base_ + rel_base, from - rel_base, scan_end - rel_base, nl_);
#else
  for (usize i = from; i < scan_end; ++i) {
    if (base_[i] == '\n') nl_.push_back(static_cast<u32>(i - rel_base));
  }
#endif
  nl_scanned_ = scan_end;
}

bool FastqBlockReader::next_line(const char** data, usize* len) {
  for (;;) {
    if (nl_head_ < nl_.size()) {
      const usize nl_at = nl_base_ + nl_[nl_head_++];
      const char* base = base_ + pos_;
      usize n = nl_at - pos_;
      pos_ = nl_at + 1;
      ++line_;
      if (n > 0 && base[n - 1] == '\r') --n;
      *data = base;
      *len = n;
      return true;
    }
    if (nl_scanned_ < limit_) {
      // Memory mode: the index covers one window at a time, so its
      // footprint stays bounded by the window instead of the input.
      // (Stream refills always scan up to limit_, so only memory mode
      // gets here.) The scan always advances a full window past
      // nl_scanned_, and offsets are re-based at pos_ — the start of the
      // current partial line — which only drifts behind nl_scanned_ when
      // one line spans multiple windows.
      const usize scan_end = std::min(limit_, nl_scanned_ + kIndexWindowBytes);
      if (scan_end - pos_ > static_cast<usize>(std::numeric_limits<u32>::max())) {
        throw ParseError("FASTQ line longer than 4 GiB");
      }
      index_newlines(nl_scanned_, scan_end, pos_);
      continue;
    }
    if (eof_) {
      if (pos_ >= limit_) return false;
      // Unterminated final line: getline returns it too.
      const char* base = base_ + pos_;
      usize n = limit_ - pos_;
      pos_ = limit_;
      ++line_;
      if (n > 0 && base[n - 1] == '\r') --n;
      *data = base;
      *len = n;
      return true;
    }
    // Refill. The index is exhausted, so [pos_, limit_) is a partial line
    // with no newline in it: slide it to the front, read one block, and
    // index only the fresh bytes.
    if (pos_ > 0) {
      std::memmove(buf_.data(), buf_.data() + pos_, limit_ - pos_);
      limit_ -= pos_;
      pos_ = 0;
    } else if (limit_ == buf_.size()) {
      // A single line longer than the block: double the buffer. Offsets
      // in nl_ are u32, so a line cannot outgrow 4 GiB of buffer.
      if (static_cast<u64>(buf_.size()) * 2 > (u64{1} << 32)) {
        throw ParseError("FASTQ line longer than 4 GiB");
      }
      buf_.resize(buf_.size() * 2);
    }
    base_ = buf_.data();
    const usize fresh_from = limit_;
    in_->read(buf_.data() + limit_,
              static_cast<std::streamsize>(buf_.size() - limit_));
    const usize got = static_cast<usize>(in_->gcount());
    limit_ += got;
    if (got == 0) {
      eof_ = true;
      nl_.clear();
      nl_head_ = 0;
      nl_scanned_ = limit_;
    } else {
      index_newlines(fresh_from, limit_, 0);
    }
  }
}

bool FastqBlockReader::parse_record(ReadBatch& batch) {
  const char* data = nullptr;
  usize len = 0;
  // Skip blank lines between records (lenient, like most tools).
  do {
    if (!next_line(&data, &len)) return false;
  } while (len == 0);

  if (data[0] != '@') {
    throw ParseError("FASTQ line " + std::to_string(line_) +
                     ": expected '@' header, got '" + std::string(data, len) +
                     "'");
  }
  if (len == 1) {
    throw ParseError("FASTQ line " + std::to_string(line_) +
                     ": empty read name");
  }
  // Copy name/sequence/quality contiguously into the arena as each line is
  // scanned (the line window dies at the next next_line call), validate,
  // then normalize the sequence span in place and commit.
  const u64 offset = batch.append_bytes(data + 1, len - 1);
  const u32 name_len = static_cast<u32>(len - 1);

  if (!next_line(&data, &len)) {
    throw ParseError("FASTQ record truncated at line " +
                     std::to_string(line_));
  }
  batch.append_bytes(data, len);
  const u32 seq_len = static_cast<u32>(len);

  if (!next_line(&data, &len)) {
    throw ParseError("FASTQ record truncated at line " +
                     std::to_string(line_));
  }
  const bool plus_ok = len > 0 && data[0] == '+';

  if (!next_line(&data, &len)) {
    throw ParseError("FASTQ record truncated at line " +
                     std::to_string(line_));
  }
  const u32 qual_len = static_cast<u32>(len);
  batch.append_bytes(data, len);
  if (!plus_ok) {
    throw ParseError("FASTQ line " + std::to_string(line_ - 1) +
                     ": expected '+' separator");
  }
  if (seq_len != qual_len) {
    throw ParseError("FASTQ record '" +
                     std::string(batch.arena_at(offset), name_len) +
                     "': sequence/quality length mismatch");
  }
  normalize_sequence_span(batch.arena_at(offset + name_len), seq_len);
  batch.commit(offset, name_len, seq_len);
  ++count_;
  bytes_ += 1 + name_len + 1 + seq_len + 1 + 2 + seq_len + 1;
  return true;
}

usize FastqBlockReader::read_batch(ReadBatch& batch, usize max_reads) {
  usize appended = 0;
  while (appended < max_reads && parse_record(batch)) ++appended;
  return appended;
}

FastqTally tally_fastq(std::string_view data) {
  FastqBlockReader reader(data);
  ReadBatch batch;  // recycled: the arena holds one batch, not the input
  FastqTally tally;
  while (reader.read_batch(batch, 1024) > 0) {
    tally.bases += batch.bases();
    batch.clear();
  }
  tally.reads = reader.records_read();
  return tally;
}

}  // namespace staratlas
