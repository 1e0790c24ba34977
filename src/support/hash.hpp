// Stable hashing utilities.
//
// Spack identifies concrete specs by a base32-encoded SHA of their canonical
// serialization.  We reproduce the scheme with a 128-bit FNV-style digest:
// collision resistance far beyond what the test workloads need, fully
// deterministic across runs and platforms, and no external dependencies.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace splice {

/// Incremental 128-bit (2x64) FNV-1a style hasher with domain separation
/// between fields.  Feed data with update()/field(); read the digest with
/// hex() or b32().
class Hasher {
 public:
  Hasher();

  /// Absorb raw bytes.
  void update(std::string_view bytes);

  /// Absorb a length-prefixed field.  Using field() for every component makes
  /// the encoding injective: ("ab","c") and ("a","bc") hash differently.
  void field(std::string_view bytes);

  /// Absorb an integer as a fixed-width little-endian field.
  void field_u64(std::uint64_t v);

  /// 32 hex characters of digest.
  std::string hex() const;

  /// Spack-style lowercase base32 digest (26 characters), used as the
  /// installed-spec hash in directory names and the concretizer encoding.
  std::string b32() const;

  std::uint64_t lo() const { return lo_; }
  std::uint64_t hi() const { return hi_; }

 private:
  std::uint64_t lo_;
  std::uint64_t hi_;
};

/// One-shot convenience: base32 digest of a string.
std::string stable_hash_b32(std::string_view data);

/// One-shot convenience: 64-bit value for hash tables (not for identity).
std::uint64_t stable_hash_u64(std::string_view data);

/// Exact set of items kept in a caller-owned vector, keyed by a 64-bit
/// content hash: open addressing with linear probing over a power-of-two
/// table of (key, index) slots.  A key match is only a candidate, confirmed
/// by the caller's equality test, so a hash collision never drops a
/// distinct item.  The grounder dedups ground instances with it.
class KeyedIndexSet {
 public:
  /// Records item `index` under `key` unless `same(j)` holds for a
  /// recorded index j with an equal key; returns true if recorded.
  template <typename Same>
  bool insert(std::uint64_t key, std::uint32_t index, Same&& same) {
    if ((count_ + 1) * 2 > slots_.size()) grow();
    std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(key) & mask;
    while (slots_[i].index != kEmpty) {
      if (slots_[i].key == key && same(slots_[i].index)) return false;
      i = (i + 1) & mask;
    }
    slots_[i] = Slot{key, index};
    ++count_;
    return true;
  }

  std::size_t size() const { return count_; }

 private:
  static constexpr std::uint32_t kEmpty = 0xffffffffu;
  struct Slot {
    std::uint64_t key = 0;
    std::uint32_t index = kEmpty;
  };

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 1024 : old.size() * 2, Slot{});
    std::size_t mask = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.index == kEmpty) continue;
      std::size_t i = static_cast<std::size_t>(slot.key) & mask;
      while (slots_[i].index != kEmpty) i = (i + 1) & mask;
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  std::size_t count_ = 0;
};

}  // namespace splice
