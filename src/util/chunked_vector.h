#ifndef PAYGO_UTIL_CHUNKED_VECTOR_H_
#define PAYGO_UTIL_CHUNKED_VECTOR_H_

/// \file chunked_vector.h
/// \brief An append-only sequence whose copies share fixed-size chunks.
///
/// A live system appends one schema at a time to per-schema stores (the
/// corpus, the feature vectors) while older snapshots keep reading them.
/// Copying a std::vector for every append makes each add O(corpus); here
/// the elements sit in chunks of kChunkSize behind shared_ptr, so a copy
/// duplicates only the chunk-pointer table and shares every chunk.
///
/// Sharing rule: a chunk is written only by the container that allocated
/// it (its owner), and only at slots past the end of every container that
/// shares it. Copies never own, so their first push_back copies the
/// partially filled tail chunk (at most one chunk) and owns the copy; full
/// chunks are never copied again. Writes therefore land on slots no other
/// container reads, so a copy may be read on one thread while its source
/// appends on another. As with std::vector, one container must not be
/// mutated while the same object is read.

#include <array>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

namespace paygo {

template <typename T>
class ChunkedVector {
 public:
  /// Elements per chunk. A constant, not a knob: an add after a copy
  /// copies at most this many elements, and a copy costs size() /
  /// kChunkSize pointer copies.
  static constexpr std::size_t kChunkSize = 64;

  ChunkedVector() = default;

  /// Moves \p items into freshly allocated chunks.
  explicit ChunkedVector(std::vector<T> items) {
    for (T& item : items) push_back(std::move(item));
  }

  /// A copy shares every chunk and owns none of them.
  ChunkedVector(const ChunkedVector& other)
      : chunks_(other.chunks_), size_(other.size_) {}
  ChunkedVector& operator=(const ChunkedVector& other) {
    chunks_ = other.chunks_;
    size_ = other.size_;
    tail_owned_ = false;
    return *this;
  }
  ChunkedVector(ChunkedVector&& other) noexcept
      : chunks_(std::move(other.chunks_)),
        size_(std::exchange(other.size_, 0)),
        tail_owned_(std::exchange(other.tail_owned_, false)) {}
  ChunkedVector& operator=(ChunkedVector&& other) noexcept {
    chunks_ = std::move(other.chunks_);
    size_ = std::exchange(other.size_, 0);
    tail_owned_ = std::exchange(other.tail_owned_, false);
    return *this;
  }
  ~ChunkedVector() = default;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  const T& operator[](std::size_t i) const {
    return chunks_[i / kChunkSize]->items[i % kChunkSize];
  }
  const T& back() const { return (*this)[size_ - 1]; }

  /// Appends \p value. Copies the tail chunk when it is partially filled
  /// and not owned by this container; allocates a new chunk when the tail
  /// is full.
  void push_back(T value) {
    const std::size_t slot = size_ % kChunkSize;
    if (slot == 0) {
      chunks_.push_back(std::make_shared<Chunk>());
      tail_owned_ = true;
    } else if (!tail_owned_) {
      auto tail = std::make_shared<Chunk>();
      const Chunk& shared = *chunks_.back();
      for (std::size_t k = 0; k < slot; ++k) tail->items[k] = shared.items[k];
      chunks_.back() = std::move(tail);
      tail_owned_ = true;
    }
    chunks_.back()->items[slot] = std::move(value);
    ++size_;
  }

  /// Number of chunks, and the identity of chunk \p c: two containers
  /// share chunk \p c iff their ChunkAddress(c) are equal.
  std::size_t num_chunks() const { return chunks_.size(); }
  const void* ChunkAddress(std::size_t c) const { return chunks_[c].get(); }

 private:
  struct Chunk {
    std::array<T, kChunkSize> items;
  };

  std::vector<std::shared_ptr<Chunk>> chunks_;
  std::size_t size_ = 0;
  // True iff this container allocated chunks_.back() and may write its
  // free slots in place.
  bool tail_owned_ = false;
};

}  // namespace paygo

#endif  // PAYGO_UTIL_CHUNKED_VECTOR_H_
