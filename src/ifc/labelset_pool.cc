#include "src/ifc/labelset_pool.h"

#include <algorithm>
#include <atomic>

namespace turnstile {

namespace {

// SplitMix64 finalizer — cheap, well-distributed mix for cache keys.
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::atomic<uint32_t> g_next_pool_id{1};

}  // namespace

LabelSetPool::LabelSetPool(const LabelSpace* space)
    : space_(space), id_(g_next_pool_id.fetch_add(1, std::memory_order_relaxed)) {
  entries_.push_back(Entry{});  // handle 0: the empty set (inline, mask 0)
  by_hash_[Mix64(0)].push_back(kEmptyLabelSetRef);
}

uint64_t LabelSetPool::HashIds(const std::vector<LabelId>& ids) {
  // Inline sets hash their mask so equal sets hash equally regardless of the
  // path that produced them; spilled sets fold ids FNV-style.
  uint64_t mask = 0;
  bool is_inline = true;
  for (LabelId id : ids) {
    if (id < 64) {
      mask |= uint64_t{1} << id;
    } else {
      is_inline = false;
      break;
    }
  }
  if (is_inline) {
    return Mix64(mask);
  }
  uint64_t h = 0xCBF29CE484222325ull;
  for (LabelId id : ids) {
    h = (h ^ id) * 0x100000001B3ull;
  }
  return Mix64(h | (uint64_t{1} << 63));
}

LabelSetRef LabelSetPool::InternSortedUnique(std::vector<LabelId> ids) {
  if (ids.empty()) {
    return kEmptyLabelSetRef;
  }
  uint64_t hash = HashIds(ids);
  std::vector<LabelSetRef>& bucket = by_hash_[hash];
  for (LabelSetRef ref : bucket) {
    if (entries_[ref].ids == ids) {
      return ref;
    }
  }
  Entry entry;
  entry.mask = 0;
  entry.is_inline = true;
  for (LabelId id : ids) {
    if (id < 64) {
      entry.mask |= uint64_t{1} << id;
    } else {
      entry.is_inline = false;
      entry.mask = 0;
      break;
    }
  }
  entry.ids = std::move(ids);
  LabelSetRef ref = static_cast<LabelSetRef>(entries_.size());
  entries_.push_back(std::move(entry));
  bucket.push_back(ref);
  return ref;
}

LabelSetRef LabelSetPool::Intern(std::vector<LabelId> ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return InternSortedUnique(std::move(ids));
}

LabelSetRef LabelSetPool::Intern(const LabelSet& set) {
  // LabelSet keeps its ids sorted+deduplicated already.
  return InternSortedUnique(set.ids());
}

LabelSetRef LabelSetPool::Single(LabelId id) {
  if (singles_.size() <= id) {
    singles_.resize(static_cast<size_t>(id) + 1, kEmptyLabelSetRef);
  }
  if (singles_[id] == kEmptyLabelSetRef) {
    singles_[id] = InternSortedUnique({id});
  }
  return singles_[id];
}

LabelSetRef LabelSetPool::Union(LabelSetRef a, LabelSetRef b) {
  if (a == b || b == kEmptyLabelSetRef) {
    return a;
  }
  if (a == kEmptyLabelSetRef) {
    return b;
  }
  const Entry& ea = entries_[a];
  const Entry& eb = entries_[b];
  // Inline fast path: absorption needs no table at all.
  if (ea.is_inline && eb.is_inline) {
    uint64_t merged = ea.mask | eb.mask;
    if (merged == ea.mask) {
      return a;
    }
    if (merged == eb.mask) {
      return b;
    }
  }
  uint64_t key = a < b ? (uint64_t{a} << 32) | b : (uint64_t{b} << 32) | a;
  auto cached = union_cache_.find(key);
  if (cached != union_cache_.end()) {
    ++union_cache_hits_;
    return cached->second;
  }
  std::vector<LabelId> merged;
  merged.reserve(ea.ids.size() + eb.ids.size());
  std::set_union(ea.ids.begin(), ea.ids.end(), eb.ids.begin(), eb.ids.end(),
                 std::back_inserter(merged));
  LabelSetRef result = InternSortedUnique(std::move(merged));
  union_cache_[key] = result;
  return result;
}

bool LabelSetPool::Contains(LabelSetRef set, LabelId id) const {
  const Entry& entry = entries_[set];
  if (entry.is_inline) {
    return id < 64 && (entry.mask >> id) & 1;
  }
  return std::binary_search(entry.ids.begin(), entry.ids.end(), id);
}

bool LabelSetPool::IsSubsetOf(LabelSetRef a, LabelSetRef b) const {
  if (a == b || a == kEmptyLabelSetRef) {
    return true;
  }
  const Entry& ea = entries_[a];
  const Entry& eb = entries_[b];
  if (ea.is_inline && eb.is_inline) {
    return (ea.mask & ~eb.mask) == 0;
  }
  return std::includes(eb.ids.begin(), eb.ids.end(), ea.ids.begin(), ea.ids.end());
}

const std::string& LabelSetPool::Render(LabelSetRef set) const {
  if (renders_.size() <= set) {
    renders_.resize(entries_.size());
  }
  std::string& out = renders_[set];
  if (out.empty()) {
    ++renders_computed_;
    out = "{";
    const std::vector<LabelId>& ids = entries_[set].ids;
    for (size_t i = 0; i < ids.size(); ++i) {
      if (i > 0) {
        out += ", ";
      }
      out += space_->NameOf(ids[i]);
    }
    out += "}";
  }
  return out;
}

}  // namespace turnstile
