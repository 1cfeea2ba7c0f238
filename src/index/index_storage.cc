#include "index/index_storage.h"

#include <utility>

#include "common/error.h"

#if defined(__unix__) || defined(__APPLE__)
#define STARATLAS_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define STARATLAS_HAVE_MMAP 0
#endif

namespace staratlas {

MappedFile::~MappedFile() {
#if STARATLAS_HAVE_MMAP
  if (data_ != nullptr) ::munmap(data_, size_);
#endif
}

MappedFile::MappedFile(MappedFile&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)) {}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
#if STARATLAS_HAVE_MMAP
    if (data_ != nullptr) ::munmap(data_, size_);
#endif
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

bool MappedFile::supported() { return STARATLAS_HAVE_MMAP != 0; }

MappedFile MappedFile::map(const std::string& path, const Options& options) {
  const std::string kind = options.kind;
#if STARATLAS_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw IoError("cannot open " + kind + ": " + path);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw IoError("cannot stat " + kind + ": " + path);
  }
  if (st.st_size <= 0) {
    ::close(fd);
    if (options.allow_empty) return {};
    throw ParseError(kind + " is empty: " + path);
  }
  const usize size = static_cast<usize>(st.st_size);
  int flags = MAP_PRIVATE;
#ifdef MAP_POPULATE
  if (options.populate) flags |= MAP_POPULATE;
#endif
  void* p = ::mmap(nullptr, size, PROT_READ, flags, fd, 0);
  ::close(fd);
  if (p == MAP_FAILED) throw IoError("mmap failed for " + kind + ": " + path);
  MappedFile file;
  file.data_ = static_cast<u8*>(p);
  file.size_ = size;
  return file;
#else
  throw IoError("mmap unsupported on this platform for " + kind + ": " + path);
#endif
}

}  // namespace staratlas
