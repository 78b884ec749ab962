#include "sim/signature_store.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <stdexcept>

#include <sys/mman.h>

#ifdef __SANITIZE_ADDRESS__
#include <sanitizer/asan_interface.h>
#endif

namespace stps::sim {

namespace {

/// Arenas at least this large are mapped, aligned and rounded to it.
constexpr std::size_t huge_page_bytes = std::size_t{2} << 20u;

} // namespace

signature_store::word_buffer::word_buffer(std::size_t size) : size_{size}
{
  if (size == 0u) {
    return;
  }
  if (size > (SIZE_MAX - 2u * huge_page_bytes) / sizeof(uint64_t)) {
    throw std::bad_alloc{};
  }
  const std::size_t bytes = size * sizeof(uint64_t);
  if (bytes < huge_page_bytes) {
    words_ = static_cast<uint64_t*>(std::calloc(size, sizeof(uint64_t)));
    if (words_ == nullptr) {
      throw std::bad_alloc{};
    }
    return;
  }
  // Over-map by one huge page, then unmap the unaligned head and the
  // tail, so the arena starts on a 2 MiB boundary and spans whole huge
  // pages.  Fresh anonymous pages read zero: no memset.
  const std::size_t length =
      (bytes + huge_page_bytes - 1u) / huge_page_bytes * huge_page_bytes;
  void* const raw = mmap(nullptr, length + huge_page_bytes,
                         PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                         -1, 0);
  if (raw == MAP_FAILED) {
    throw std::bad_alloc{};
  }
  auto* const base = static_cast<char*>(raw);
  const std::size_t head =
      (huge_page_bytes - reinterpret_cast<uintptr_t>(base) % huge_page_bytes) %
      huge_page_bytes;
  if (head != 0u) {
    munmap(base, head);
  }
  munmap(base + head + length, huge_page_bytes - head);
#ifdef MADV_HUGEPAGE
  madvise(base + head, length, MADV_HUGEPAGE);
#endif
  words_ = reinterpret_cast<uint64_t*>(base + head);
  mapped_bytes_ = length;
#ifdef __SANITIZE_ADDRESS__
  // A mapping has no redzone: poison the slack after the last word so
  // an overrun past the arena still trips ASan.
  ASAN_POISON_MEMORY_REGION(words_ + size_, mapped_bytes_ - bytes);
#endif
}

signature_store::word_buffer::word_buffer(const word_buffer& other)
    : word_buffer(other.size_)
{
  if (size_ != 0u) {
    std::memcpy(words_, other.words_, size_ * sizeof(uint64_t));
  }
}

signature_store::word_buffer::~word_buffer()
{
  if (mapped_bytes_ == 0u) {
    std::free(words_);
    return;
  }
#ifdef __SANITIZE_ADDRESS__
  ASAN_UNPOISON_MEMORY_REGION(words_, mapped_bytes_);
#endif
  munmap(words_, mapped_bytes_);
}

void signature_store::reset(std::size_t num_nodes, std::size_t num_words)
{
  data_ = word_buffer{num_nodes * num_words};
  num_nodes_ = num_nodes;
  num_words_ = num_words;
}

void signature_store::assign_row(std::size_t n,
                                 std::span<const uint64_t> values)
{
  if (values.size() != num_words_) {
    throw std::invalid_argument{"signature_store: row width mismatch"};
  }
  std::ranges::copy(values, row(n).begin());
}

void signature_store::fill_row(std::size_t n, uint64_t value)
{
  std::ranges::fill(row(n), value);
}

void signature_store::mask_tail(uint64_t num_patterns)
{
  if (num_words_ == 0u) {
    return;
  }
  const uint64_t mask = tail_mask(num_patterns);
  if (mask == ~uint64_t{0}) {
    return;
  }
  uint64_t* last = data_.data() + num_words_ - 1u;
  for (std::size_t n = 0; n < num_nodes_; ++n, last += num_words_) {
    *last &= mask;
  }
}

} // namespace stps::sim
