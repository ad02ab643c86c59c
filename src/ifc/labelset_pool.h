// Hash-consed (interned) label sets.
//
// Every distinct sorted label-id set is canonicalized exactly once per policy
// and identified by a dense 32-bit handle (LabelSetRef). Handle 0 is always
// the empty set. Because canonicalization makes set equality pointer (handle)
// equality, the per-op DIFT hot path — Contains / IsSubsetOf / Union /
// rule-DAG flow checks — degrades from O(|set|) vector merges with heap
// allocation to register compares and small flat-cache lookups:
//
//   - sets whose ids are all < 64 additionally carry an inline 64-bit bitmask,
//     so the common case of Contains/IsSubsetOf/Union is one or two ALU ops;
//   - Union(ref, ref) is memoized in a flat cache keyed by the handle pair
//     (set contents are immutable once interned, so the memo never needs
//     invalidation — the label space only grows);
//   - ToString renderings are memoized per handle (label names are stable
//     once interned), which lets tracing and violation reporting reuse one
//     canonical string instead of re-formatting per event.
#ifndef TURNSTILE_SRC_IFC_LABELSET_POOL_H_
#define TURNSTILE_SRC_IFC_LABELSET_POOL_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/ifc/label.h"

namespace turnstile {

// Dense handle into a LabelSetPool. 0 = the empty set.
using LabelSetRef = uint32_t;
inline constexpr LabelSetRef kEmptyLabelSetRef = 0;

class LabelSetPool {
 public:
  // `space` provides label names for Render(); it must outlive the pool.
  explicit LabelSetPool(const LabelSpace* space);

  // Canonicalizes `ids` (sorted+deduplicated on the way in) to a handle.
  LabelSetRef Intern(std::vector<LabelId> ids);
  LabelSetRef Intern(const LabelSet& set);
  // Singleton {id}; memoized per id.
  LabelSetRef Single(LabelId id);

  // Set algebra on handles. Union is memoized; inline-mask pairs short-circuit
  // before touching the cache when one side absorbs the other.
  LabelSetRef Union(LabelSetRef a, LabelSetRef b);
  LabelSetRef Insert(LabelSetRef set, LabelId id) { return Union(set, Single(id)); }

  bool Contains(LabelSetRef set, LabelId id) const;
  bool IsSubsetOf(LabelSetRef a, LabelSetRef b) const;

  bool Empty(LabelSetRef set) const { return set == kEmptyLabelSetRef; }
  size_t SizeOf(LabelSetRef set) const { return entries_[set].ids.size(); }
  const std::vector<LabelId>& Ids(LabelSetRef set) const { return entries_[set].ids; }
  // Inline 64-bit mask, or 0 with is_inline=false for spilled sets (some id
  // >= 64). The empty set is inline with mask 0.
  uint64_t MaskOf(LabelSetRef set) const { return entries_[set].mask; }
  bool IsInline(LabelSetRef set) const { return entries_[set].is_inline; }

  // Copies the handle's ids back into a LabelSet (compatibility shim for the
  // non-interned API surface).
  LabelSet Materialize(LabelSetRef set) const { return LabelSet(entries_[set].ids); }

  // "{employee, customer}" — rendered once per handle, then cached.
  const std::string& Render(LabelSetRef set) const;

  // Process-unique id (never 0), so a value's label slot can name the pool
  // its handle belongs to without trusting a recyclable address or keeping
  // the pool alive.
  uint32_t id() const { return id_; }

  // Introspection (tests / stats).
  size_t size() const { return entries_.size(); }  // distinct sets, incl. {}
  uint64_t union_cache_hits() const { return union_cache_hits_; }
  uint64_t renders_computed() const { return renders_computed_; }

 private:
  struct Entry {
    std::vector<LabelId> ids;  // sorted, deduplicated
    uint64_t mask = 0;         // valid iff is_inline
    bool is_inline = true;
  };

  LabelSetRef InternSortedUnique(std::vector<LabelId> ids);
  static uint64_t HashIds(const std::vector<LabelId>& ids);

  const LabelSpace* space_;
  uint32_t id_;
  std::vector<Entry> entries_;
  // Hash-consing index: content hash -> handles with that hash (collisions
  // resolved by comparing ids). Inline sets hash their mask, so the common
  // case is one probe + one 64-bit compare.
  std::unordered_map<uint64_t, std::vector<LabelSetRef>> by_hash_;
  // (min(a,b) << 32 | max(a,b)) -> union handle. Never invalidated: interned
  // sets are immutable.
  std::unordered_map<uint64_t, LabelSetRef> union_cache_;
  std::vector<LabelSetRef> singles_;  // LabelId -> handle of {id} (0 = unmade)
  mutable std::vector<std::string> renders_;  // handle -> cached rendering
  mutable uint64_t renders_computed_ = 0;
  uint64_t union_cache_hits_ = 0;
};

}  // namespace turnstile

#endif  // TURNSTILE_SRC_IFC_LABELSET_POOL_H_
