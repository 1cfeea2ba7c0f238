// IndexStorage: the backing memory of a GenomeIndex.
//
// Two modes. *Owned*: the index owns its containers — the build path and
// the v2/v3 stream loaders fill these. *Mapped*: the big sections (text,
// suffix array, LUT, mini-LUTs) are std::span views into an mmap'd v3
// index file, so "loading" is O(header) and the kernel pages sections in
// on first touch — the in-process analog of attaching to STAR's
// `--genomeLoad LoadAndKeep` shared-memory segment. Accessors derive the
// view per call from whichever mode is active, which keeps moved-from
// small-string/vector pitfalls out of the picture (mmap pointers and
// vector heap buffers are stable across moves).
#pragma once

#include <array>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "index/packed_text.h"

namespace staratlas {

/// One prefix-LUT cell: [lo, hi) suffix-array rows.
using LutCell = std::array<u32, 2>;

/// RAII read-only file mapping. Move-only; unmaps on destruction.
class MappedFile {
 public:
  MappedFile() = default;
  ~MappedFile();
  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  struct Options {
    const char* kind = "index file";  ///< names the file in error messages
    /// Return an inactive (empty) mapping for a 0-byte file instead of
    /// throwing ParseError.
    bool allow_empty = false;
    /// Fault every page in up front (MAP_POPULATE where available), for
    /// inputs read front to back exactly once.
    bool populate = false;
  };

  /// Maps `path` read-only. Throws IoError on open/map failure,
  /// ParseError on an empty file unless `options.allow_empty`.
  static MappedFile map(const std::string& path, const Options& options);
  static MappedFile map(const std::string& path) { return map(path, {}); }

  /// False when the platform has no mmap; callers fall back to streams.
  static bool supported();

  const u8* data() const { return data_; }
  usize size() const { return size_; }
  bool active() const { return data_ != nullptr; }

 private:
  u8* data_ = nullptr;
  usize size_ = 0;
};

struct IndexStorage {
  // Owned mode (build path and stream loads). Empty when mapped.
  std::string text_owned;
  std::vector<u32> sa_owned;
  std::vector<LutCell> lut_owned;
  std::array<std::vector<LutCell>, 4> mini_owned;

  // Packed text (v4 loads). The raw `text` stays empty in this mode —
  // packedness is a property of how the index was loaded, and the whole
  // point is not paying for the 1 byte/base copy. Owned for stream
  // loads, spans into `file` for mmap attaches.
  PackedText packed_owned;
  std::span<const u64> packed_codes_view;
  std::span<const u32> packed_slots_view;
  std::span<const u64> packed_exc_view;
  u64 packed_size = 0;
  bool packed = false;

  // Mapped mode: the mapping plus borrowed section views into it.
  MappedFile file;
  std::string_view text_view;
  std::span<const u32> sa_view;
  std::span<const LutCell> lut_view;
  std::array<std::span<const LutCell>, 4> mini_view;
  bool mapped = false;

  std::string_view text() const {
    return mapped ? text_view : std::string_view(text_owned);
  }
  bool has_packed() const { return packed; }
  /// Genome text length regardless of encoding.
  u64 text_size() const { return packed ? packed_size : text().size(); }
  /// View over the packed text; inactive (null codes) when unpacked.
  PackedTextView packed_view() const {
    if (!packed) return PackedTextView{};
    if (!mapped) return packed_owned.view();
    PackedTextView v;
    v.codes = packed_codes_view.data();
    v.page_slots = packed_slots_view.data();
    v.exc_blocks = packed_exc_view.data();
    v.size = packed_size;
    v.num_pages = packed_slots_view.empty() ? 0 : packed_slots_view.size() - 1;
    v.num_exc_blocks = packed_exc_view.size() / kPackedPageWords;
    return v;
  }
  std::span<const u32> sa() const {
    return mapped ? sa_view : std::span<const u32>(sa_owned);
  }
  std::span<const LutCell> lut() const {
    return mapped ? lut_view : std::span<const LutCell>(lut_owned);
  }
  /// Cascade LUT for prefix length `k` in 1..4.
  std::span<const LutCell> mini(u32 k) const {
    return mapped ? mini_view[k - 1]
                  : std::span<const LutCell>(mini_owned[k - 1]);
  }
};

}  // namespace staratlas
