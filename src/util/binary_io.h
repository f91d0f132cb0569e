#ifndef SATO_UTIL_BINARY_IO_H_
#define SATO_UTIL_BINARY_IO_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <istream>
#include <stdexcept>
#include <string>

namespace sato::util {

/// The largest piece a bounded read requests from the stream at once, and
/// the capacity it reserves before any byte has arrived.
inline constexpr size_t kReadChunkBytes = size_t{1} << 20;

/// Reads `count` elements of trivially copyable type into `*out` (a
/// std::string or std::vector), replacing its contents. Saved lengths and
/// counts are untrusted, so allocation follows the bytes delivered: the
/// data arrives in chunks of at most kReadChunkBytes, and capacity is
/// reserved only once the chunk before has arrived, doubling up to exactly
/// `count`. A corrupt count therefore costs at most about twice the bytes
/// the stream really holds before the short read throws
/// std::runtime_error("<what>: truncated stream"). A good read into an
/// empty vector ends with capacity == count and peaks below twice that
/// while growing.
template <typename Container>
void ReadArray(std::istream* in, uint64_t count, Container* out,
               const char* what) {
  using T = typename Container::value_type;
  constexpr uint64_t kChunk = kReadChunkBytes / sizeof(T);
  out->clear();
  while (out->size() < count) {
    const size_t done = out->size();
    const size_t n = static_cast<size_t>(std::min(count - done, kChunk));
    if (done + n > out->capacity()) {
      out->reserve(static_cast<size_t>(
          std::min<uint64_t>(count, std::max<uint64_t>(2 * done, kChunk))));
    }
    out->resize(done + n);
    in->read(reinterpret_cast<char*>(out->data() + done),
             static_cast<std::streamsize>(n * sizeof(T)));
    if (!*in) {
      throw std::runtime_error(std::string(what) + ": truncated stream");
    }
  }
}

/// Reads a u64 byte length, then that many bytes, as ReadArray does.
inline std::string ReadLengthPrefixedString(std::istream* in,
                                            const char* what) {
  uint64_t len = 0;
  in->read(reinterpret_cast<char*>(&len), sizeof(len));
  if (!*in) throw std::runtime_error(std::string(what) + ": truncated stream");
  std::string s;
  ReadArray(in, len, &s, what);
  return s;
}

}  // namespace sato::util

#endif  // SATO_UTIL_BINARY_IO_H_
