#include "src/asp/term.hpp"

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "src/support/error.hpp"

namespace splice::asp {

namespace detail {
std::atomic<const TermData* const*> g_term_pages{nullptr};

void throw_invalid_term() {
  throw AspError("dereference of invalid Term handle");
}
}  // namespace detail

namespace {

using detail::TermData;

/// murmur3's 64-bit finalizer: spreads every input bit into the low bits
/// that index a power-of-two table.
std::size_t mix64(std::uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return static_cast<std::size_t>(h);
}

/// Structural hash of a term's identity (kind, value, spelling, argument
/// ids).  Computed from a probe key and, on growth, from a stored
/// `TermData`; both must agree.
std::size_t term_hash(TermKind kind, std::int64_t iv, std::uint32_t name_id,
                      std::span<const Term> args) {
  std::uint64_t h = static_cast<std::uint64_t>(kind) * 0x9e3779b97f4a7c15ULL;
  h ^= static_cast<std::uint64_t>(iv) + (h << 6);
  h ^= name_id * 0x9e3779b97f4a7c15ULL + (h << 6);
  for (Term t : args) h = h * 1099511628211ULL + t.id();
  return mix64(h);
}

bool same_term(const TermData& d, TermKind kind, std::int64_t iv,
               std::uint32_t name_id, std::span<const Term> args) {
  if (d.kind != kind || d.int_value != iv || d.name_id != name_id ||
      d.nargs != args.size()) {
    return false;
  }
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (d.args[i] != args[i]) return false;
  }
  return true;
}

/// Open-addressing hash index of 32-bit ids whose keys live elsewhere (the
/// owner's append-only store), with a lock-free probe side.  `find` needs
/// no lock: it acquire-loads the published slot array, then each slot, and
/// compares keys through the caller's predicate.  `insert` runs under the
/// owner's lock: a new id is release-stored into an empty slot, after the
/// element it names is fully written.  Growth rehashes into a fresh array
/// and publishes it with a release store; superseded arrays are retired
/// (kept alive, never freed), so a reader still probing one sees only ids
/// published before the growth and, on a miss, retries under the lock.
class IdIndex {
 public:
  static constexpr std::uint32_t kEmpty = 0xffffffffu;

  IdIndex() { publish(empty_slots(std::size_t{1} << 10)); }

  /// The id whose key satisfies `eq`, or kEmpty if none is visible in the
  /// array this probe loaded.  `eq(id)` may read the id's element without
  /// the lock: the slot's acquire load orders it after the element write.
  template <typename Eq>
  std::uint32_t find(std::size_t hash, Eq&& eq) const {
    const Slots* s = slots_.load(std::memory_order_acquire);
    for (std::size_t i = hash & s->mask;; i = (i + 1) & s->mask) {
      std::uint32_t id = s->ids[i].load(std::memory_order_acquire);
      if (id == kEmpty || eq(id)) return id;
    }
  }

  /// Add `id` (absent; its element already written) under the owner's
  /// lock.  `hash_of(id)` rehashes existing ids when the array grows.
  template <typename HashOf>
  void insert(std::size_t hash, std::uint32_t id, HashOf&& hash_of) {
    const Slots& cur = *arrays_.back();
    if (2 * (size_ + 1) > cur.mask + 1) {
      auto grown = empty_slots(2 * (cur.mask + 1));
      for (std::size_t i = 0; i <= cur.mask; ++i) {
        std::uint32_t old = cur.ids[i].load(std::memory_order_relaxed);
        if (old != kEmpty) place(*grown, hash_of(old), old);
      }
      publish(std::move(grown));
    }
    place(*arrays_.back(), hash, id);
    ++size_;
  }

 private:
  struct Slots {
    std::size_t mask;
    std::unique_ptr<std::atomic<std::uint32_t>[]> ids;
  };

  static std::unique_ptr<Slots> empty_slots(std::size_t capacity) {
    auto s = std::make_unique<Slots>();
    s->mask = capacity - 1;
    s->ids = std::make_unique<std::atomic<std::uint32_t>[]>(capacity);
    for (std::size_t i = 0; i < capacity; ++i) {
      s->ids[i].store(kEmpty, std::memory_order_relaxed);
    }
    return s;
  }

  static void place(Slots& s, std::size_t hash, std::uint32_t id) {
    std::size_t i = hash & s.mask;
    while (s.ids[i].load(std::memory_order_relaxed) != kEmpty) {
      i = (i + 1) & s.mask;
    }
    s.ids[i].store(id, std::memory_order_release);
  }

  void publish(std::unique_ptr<Slots> s) {
    slots_.store(s.get(), std::memory_order_release);
    arrays_.push_back(std::move(s));  // earlier entries are retired arrays
  }

  std::atomic<const Slots*> slots_{nullptr};
  std::vector<std::unique_ptr<Slots>> arrays_;  // back() is current
  std::size_t size_ = 0;
};

/// Append-only arena for argument spans: fixed-size chunks, so handed-out
/// spans stay valid while the arena grows.
class ArgArena {
 public:
  std::span<const Term> store(std::span<const Term> args) {
    if (args.empty()) return {};
    if (chunks_.empty() || used_ + args.size() > kChunk) {
      std::size_t cap = std::max(args.size(), kChunk);
      chunks_.push_back(std::make_unique<Term[]>(cap));
      used_ = 0;
    }
    Term* out = chunks_.back().get() + used_;
    for (std::size_t i = 0; i < args.size(); ++i) out[i] = args[i];
    used_ += args.size();
    return {out, args.size()};
  }

 private:
  static constexpr std::size_t kChunk = 1 << 14;
  std::vector<std::unique_ptr<Term[]>> chunks_;
  std::size_t used_ = 0;
};

/// Append-only paged storage with a lock-free read side.  Elements live in
/// fixed-size pages (stable addresses); a snapshot directory of page
/// pointers is republished atomically whenever a page is added, and
/// superseded directories are retired into a keep-alive list instead of
/// freed, so a reader holding a stale directory pointer can still resolve
/// every id published before it loaded the pointer.  Writers must hold the
/// table lock; readers need no lock as long as the id they dereference
/// reached them through a synchronized channel.
template <typename T, std::uint32_t PageShift>
class PagedStore {
 public:
  static constexpr std::uint32_t kMask = (1u << PageShift) - 1;

  /// Append under the writer lock; returns the slot for the new element.
  T& append(std::size_t id) {
    std::size_t page = id >> PageShift;
    if (page == pages_.size()) {
      pages_.push_back(std::make_unique<T[]>(kMask + 1));
      auto dir = std::make_unique<const T*[]>(pages_.size());
      for (std::size_t i = 0; i < pages_.size(); ++i) dir[i] = pages_[i].get();
      dir_.store(dir.get(), std::memory_order_release);
      retired_.push_back(std::move(dir));
    }
    return pages_[page][id & kMask];
  }

  /// Lock-free read of a previously published element.
  const T& at(std::size_t id) const {
    return dir_.load(std::memory_order_acquire)[id >> PageShift][id & kMask];
  }

  const std::atomic<const T* const*>& dir() const { return dir_; }
  std::atomic<const T* const*>& dir() { return dir_; }

 private:
  std::vector<std::unique_ptr<T[]>> pages_;
  std::vector<std::unique_ptr<const T*[]>> retired_;  // superseded directories
  std::atomic<const T* const*> dir_{nullptr};
};

// Global interning table, shared by every thread (`ConcretizerPool` workers
// solve concurrently; the repository auditor compiles on worker threads).
// The contract:
//   * Reads are lock-free.  TermData entries live in address-stable pages
//     (`detail::g_term_pages` is republished whenever a page is added),
//     argument spans in the chunked arena, and entries never mutate after
//     insertion.
//   * Lookups are lock-free on a hit.  `intern` probes the name index and
//     the term index without the lock, comparing keys against stored
//     entries.
//   * Inserts are serialized.  A miss takes the lock, re-probes, appends
//     the entry and only then release-stores its id into the index, so ids
//     are assigned in the same order as a fully locked table would assign
//     them.
//   * Growth never strands a reader.  A probe that loaded a superseded
//     index array (retired, not freed) can only miss, and a miss always
//     falls back to the locked path.
// `slow_path_count()` counts the interns that took the lock.
class Table {
 public:
  static Table& instance() {
    static Table t;
    return t;
  }

  std::uint32_t intern(TermKind kind, std::int64_t iv, std::string_view name,
                       std::span<const Term> args) {
    std::uint32_t name_id = find_name(name);
    if (name_id != IdIndex::kEmpty) {
      std::uint32_t id = find_term(kind, iv, name_id, args);
      if (id != IdIndex::kEmpty) return id;
    }
    std::lock_guard<std::mutex> lock(mu_);
    slow_paths_.fetch_add(1, std::memory_order_relaxed);
    return intern_locked(kind, iv, intern_name(name), args);
  }

  /// Intern a Fun sharing functor (name id, and therefore signature) with an
  /// existing term of the same arity — no string hashing.
  std::uint32_t intern_fun_like(std::uint32_t name_id,
                                std::span<const Term> args) {
    std::uint32_t id = find_term(TermKind::Fun, 0, name_id, args);
    if (id != IdIndex::kEmpty) return id;
    std::lock_guard<std::mutex> lock(mu_);
    slow_paths_.fetch_add(1, std::memory_order_relaxed);
    return intern_locked(TermKind::Fun, 0, name_id, args);
  }

  std::string_view name_of(std::uint32_t name_id) const {
    return names_.at(name_id);
  }

  SigId intern_sig(std::string_view name, std::size_t arity) {
    std::lock_guard<std::mutex> lock(mu_);
    return intern_sig_locked(intern_name(name), arity);
  }

  std::string sig_str(SigId sig) const {
    const auto& [name_id, arity] = sigs_.at(sig);
    return std::string(names_.at(name_id)) + "/" + std::to_string(arity);
  }

  std::size_t size() const { return count_.load(std::memory_order_acquire); }

  std::uint64_t slow_path_count() const {
    return slow_paths_.load(std::memory_order_relaxed);
  }

 private:
  static std::size_t name_hash(std::string_view name) {
    return std::hash<std::string_view>{}(name);
  }

  std::uint32_t find_name(std::string_view name) const {
    return name_index_.find(name_hash(name), [&](std::uint32_t id) {
      return names_.at(id) == name;
    });
  }

  std::uint32_t find_term(TermKind kind, std::int64_t iv,
                          std::uint32_t name_id,
                          std::span<const Term> args) const {
    return term_index_.find(
        term_hash(kind, iv, name_id, args), [&](std::uint32_t id) {
          return same_term(terms_.at(id), kind, iv, name_id, args);
        });
  }

  std::uint32_t intern_locked(TermKind kind, std::int64_t iv,
                              std::uint32_t name_id,
                              std::span<const Term> args) {
    std::uint32_t found = find_term(kind, iv, name_id, args);
    if (found != IdIndex::kEmpty) return found;
    TermData data;
    data.kind = kind;
    data.int_value = iv;
    data.name_id = name_id;
    std::span<const Term> stored_args = args_.store(args);
    data.args = stored_args.data();
    data.nargs = static_cast<std::uint32_t>(stored_args.size());
    data.sig = intern_sig_locked(
        name_id, kind == TermKind::Fun ? stored_args.size() : 0);
    data.ground = kind != TermKind::Var;
    for (Term a : stored_args) data.ground = data.ground && a.is_ground();
    auto id = static_cast<std::uint32_t>(count_.load(std::memory_order_relaxed));
    terms_.append(id) = data;
    detail::g_term_pages.store(
        terms_.dir().load(std::memory_order_relaxed), std::memory_order_release);
    count_.store(id + 1, std::memory_order_release);
    term_index_.insert(term_hash(kind, iv, name_id, args), id,
                       [this](std::uint32_t old) {
                         const TermData& d = terms_.at(old);
                         return term_hash(d.kind, d.int_value, d.name_id,
                                          {d.args, d.nargs});
                       });
    return id;
  }

  std::uint32_t intern_name(std::string_view name) {
    std::uint32_t found = find_name(name);
    if (found != IdIndex::kEmpty) return found;
    name_storage_.emplace_back(name);
    auto id = static_cast<std::uint32_t>(name_count_);
    names_.append(id) = name_storage_.back();
    ++name_count_;
    name_index_.insert(name_hash(name), id, [this](std::uint32_t old) {
      return name_hash(names_.at(old));
    });
    return id;
  }

  using SigKey = std::pair<std::uint32_t, std::uint32_t>;  // (name, arity)

  static std::size_t sig_hash(SigKey key) {
    return mix64((static_cast<std::uint64_t>(key.first) << 32) | key.second);
  }

  SigId intern_sig_locked(std::uint32_t name_id, std::size_t arity) {
    SigKey key{name_id, static_cast<std::uint32_t>(arity)};
    SigId found = sig_index_.find(sig_hash(key), [&](std::uint32_t id) {
      return sigs_.at(id) == key;
    });
    if (found != IdIndex::kEmpty) return found;
    auto id = static_cast<SigId>(sig_count_);
    sigs_.append(id) = key;
    ++sig_count_;
    sig_index_.insert(sig_hash(key), id, [this](std::uint32_t old) {
      return sig_hash(sigs_.at(old));
    });
    return id;
  }

  std::mutex mu_;
  std::atomic<std::uint64_t> slow_paths_{0};
  ArgArena args_;
  PagedStore<TermData, detail::kTermPageShift> terms_;
  std::atomic<std::size_t> count_{0};
  IdIndex term_index_;

  std::deque<std::string> name_storage_;          // stable string bodies
  PagedStore<std::string_view, 10> names_;        // name_id -> spelling
  std::size_t name_count_ = 0;
  IdIndex name_index_;

  PagedStore<SigKey, 10> sigs_;
  std::size_t sig_count_ = 0;
  IdIndex sig_index_;
};

}  // namespace

Term Term::integer(std::int64_t value) {
  return Term(Table::instance().intern(TermKind::Int, value, {}, {}));
}

Term Term::sym(std::string_view name) {
  return Term(Table::instance().intern(TermKind::Sym, 0, name, {}));
}

Term Term::str(std::string_view text) {
  return Term(Table::instance().intern(TermKind::Str, 0, text, {}));
}

Term Term::var(std::string_view name) {
  return Term(Table::instance().intern(TermKind::Var, 0, name, {}));
}

Term Term::fun(std::string_view name, std::span<const Term> args) {
  return Term(Table::instance().intern(TermKind::Fun, 0, name, args));
}

Term Term::fun(std::string_view name, std::initializer_list<Term> args) {
  return fun(name, std::span<const Term>(args.begin(), args.size()));
}

Term Term::fun_like(Term proto, std::span<const Term> args) {
  return Term(Table::instance().intern_fun_like(proto.data_().name_id, args));
}

std::string_view Term::name() const {
  return Table::instance().name_of(data_().name_id);
}

std::string Term::signature() const {
  return Table::instance().sig_str(data_().sig);
}

SigId Term::intern_sig(std::string_view name, std::size_t arity) {
  return Table::instance().intern_sig(name, arity);
}

std::string Term::sig_str(SigId sig) { return Table::instance().sig_str(sig); }

std::size_t Term::interned_count() { return Table::instance().size(); }

std::uint64_t Term::intern_slow_path_count() {
  return Table::instance().slow_path_count();
}

std::string Term::str_repr() const {
  const TermData& d = data_();
  switch (d.kind) {
    case TermKind::Int: return std::to_string(d.int_value);
    case TermKind::Sym:
    case TermKind::Var: return std::string(name());
    case TermKind::Str: return "\"" + std::string(name()) + "\"";
    case TermKind::Fun: {
      std::string out(name());
      out.push_back('(');
      for (std::size_t i = 0; i < d.nargs; ++i) {
        if (i) out.push_back(',');
        out += d.args[i].str_repr();
      }
      out.push_back(')');
      return out;
    }
  }
  return "?";
}

int Term::compare(Term a, Term b) {
  if (a == b) return 0;
  const TermData& da = a.data_();
  const TermData& db = b.data_();
  if (da.kind != db.kind) {
    return static_cast<int>(da.kind) < static_cast<int>(db.kind) ? -1 : 1;
  }
  switch (da.kind) {
    case TermKind::Int:
      return da.int_value < db.int_value ? -1 : (da.int_value > db.int_value ? 1 : 0);
    case TermKind::Sym:
    case TermKind::Str:
    case TermKind::Var: {
      if (da.name_id == db.name_id) return 0;
      int c = a.name().compare(b.name());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    case TermKind::Fun: {
      if (da.name_id != db.name_id) {
        int c = a.name().compare(b.name());
        if (c != 0) return c < 0 ? -1 : 1;
      }
      if (da.nargs != db.nargs) return da.nargs < db.nargs ? -1 : 1;
      for (std::size_t i = 0; i < da.nargs; ++i) {
        int ac = compare(da.args[i], db.args[i]);
        if (ac != 0) return ac;
      }
      return 0;
    }
  }
  return 0;
}

Term Bindings::lookup(Term var) const {
  for (const auto& [v, t] : entries_) {
    if (v == var) return t;
  }
  return Term();
}

bool Bindings::bind(Term var, Term value) {
  Term existing = lookup(var);
  if (existing.valid()) return existing == value;
  entries_.emplace_back(var, value);
  return true;
}

Term substitute(Term t, const Bindings& b) {
  if (t.is_ground()) return t;
  switch (t.kind()) {
    case TermKind::Var: {
      Term bound = b.lookup(t);
      return bound.valid() ? bound : t;
    }
    case TermKind::Fun: {
      std::span<const Term> args = t.args();
      // Small stack buffer: encoding arities are tiny (<= 8); fall back to
      // the heap only for pathological terms.
      Term stack_buf[8];
      std::vector<Term> heap_buf;
      Term* out = stack_buf;
      if (args.size() > 8) {
        heap_buf.resize(args.size());
        out = heap_buf.data();
      }
      bool changed = false;
      for (std::size_t i = 0; i < args.size(); ++i) {
        out[i] = substitute(args[i], b);
        changed = changed || out[i] != args[i];
      }
      if (!changed) return t;
      return Term::fun_like(t, std::span<const Term>(out, args.size()));
    }
    default: return t;
  }
}

bool match(Term pattern, Term value, Bindings& b) {
  if (pattern == value) return true;
  switch (pattern.kind()) {
    case TermKind::Var: return b.bind(pattern, value);
    case TermKind::Fun: {
      if (value.kind() != TermKind::Fun || pattern.sig() != value.sig()) {
        return false;
      }
      std::span<const Term> pa = pattern.args();
      std::span<const Term> va = value.args();
      for (std::size_t i = 0; i < pa.size(); ++i) {
        if (!match(pa[i], va[i], b)) return false;
      }
      return true;
    }
    default: return false;  // distinct constants
  }
}

void collect_vars(Term t, std::vector<Term>& out) {
  if (t.is_ground()) return;
  if (t.kind() == TermKind::Var) {
    for (Term v : out) {
      if (v == t) return;
    }
    out.push_back(t);
    return;
  }
  if (t.kind() == TermKind::Fun) {
    for (Term a : t.args()) collect_vars(a, out);
  }
}

}  // namespace splice::asp
