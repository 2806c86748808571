#include "serve/operand_cache.hpp"

#include <algorithm>
#include <iterator>
#include <memory>

#include "common/check.hpp"
#include "common/hash.hpp"

namespace magicube::serve {

std::uint64_t content_probe(const Matrix<std::int32_t>& values) {
  // FNV-1a over shape and at most 64 sampled elements. Sample indices are
  // golden-ratio scrambled, not evenly strided: a fixed stride aliases with
  // the row length on power-of-two shapes and would only ever sample one
  // column, blinding the staleness guard to changes everywhere else.
  Fnv1a h;
  h.mix(values.rows());
  h.mix(values.cols());
  const std::size_t n = values.size();
  if (n <= 64) {
    for (std::size_t i = 0; i < n; ++i) {
      h.mix(static_cast<std::uint64_t>(
          static_cast<std::int64_t>(values.data()[i])));
    }
    return h.state;
  }
  for (std::uint64_t k = 0; k < 64; ++k) {
    const std::size_t i = static_cast<std::size_t>((k * kGolden64) % n);
    h.mix(static_cast<std::uint64_t>(
        static_cast<std::int64_t>(values.data()[i])));
  }
  return h.state;
}

std::uint64_t probe_identity(std::uint64_t probe) {
  // splitmix64 is a bijection on 64 bits, so distinct probes keep distinct
  // identities for every input — including 0, which must stay a legitimate
  // identity here (it is only get_or_prepare_dense's bypass sentinel).
  std::uint64_t state = probe ^ kGolden64;
  return splitmix64(state);
}

OperandCache::OperandCache(std::size_t capacity_bytes)
    : capacity_bytes_(capacity_bytes) {}

CachedOperand OperandCache::find(const OperandKey& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_.lookups += 1;
  auto it = index_.find(key);
  if (it == index_.end()) {
    stats_.misses += 1;
    return {};
  }
  stats_.hits += 1;
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  return it->second->value;
}

CachedOperand OperandCache::insert(const OperandKey& key,
                                   CachedOperand value) {
  MAGICUBE_CHECK_MSG(static_cast<bool>(value) && value.bytes > 0,
                     "cache insert requires a prepared operand with bytes");
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    // Another thread prepared the same key first; adopt its entry — but
    // only if it was prepared from the same contents, so the staleness
    // guard holds under concurrent misses too.
    MAGICUBE_CHECK_MSG(
        it->second->value.content_probe == value.content_probe,
        "operand cache insert race for key content "
            << key.content
            << " with differing contents — ids must name immutable values");
    stats_.race_discards += 1;
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->value;
  }
  if (value.bytes > capacity_bytes_) {
    // Would evict everything and still not fit: serve it uncached.
    return value;
  }
  evict_to_fit(value.bytes);
  lru_.push_front(Entry{key, std::move(value), next_entry_id_++, 0});
  index_.emplace(key, lru_.begin());
  bytes_cached_ += lru_.front().value.bytes;
  stats_.insertions += 1;
  stats_.bytes_inserted += lru_.front().value.bytes;
  return lru_.front().value;
}

void OperandCache::evict_to_fit(std::size_t incoming) {
  // Scan LRU-first, skipping pinned entries (a sharded request is executing
  // from them). When only pinned entries remain, the insert proceeds over
  // capacity — the overshoot drains as soon as the pins release.
  auto it = lru_.end();
  while (bytes_cached_ + incoming > capacity_bytes_ && it != lru_.begin()) {
    auto victim = std::prev(it);
    if (victim->pins > 0) {
      stats_.pin_skips += 1;
      it = victim;
      continue;
    }
    bytes_cached_ -= victim->value.bytes;
    stats_.evictions += 1;
    stats_.bytes_evicted += victim->value.bytes;
    index_.erase(victim->key);
    lru_.erase(victim);  // `it` stays valid (list erase is local)
  }
}

std::uint64_t OperandCache::pin(const OperandKey& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = index_.find(key);
  if (it == index_.end()) return 0;
  it->second->pins += 1;
  return it->second->id;
}

void OperandCache::unpin(const OperandKey& key, std::uint64_t entry_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = index_.find(key);
  // Release only the entry the pin was taken on: after a clear(), the key
  // may be gone, or re-inserted fresh (a different id, possibly pinned by
  // a newer request whose pins must not be stolen). Called from ~PinScope
  // (noexcept), so never throw here.
  if (it == index_.end() || it->second->id != entry_id ||
      it->second->pins == 0) {
    return;
  }
  it->second->pins -= 1;
}

std::size_t OperandCache::pinned_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const Entry& e : lru_) n += e.pins > 0 ? 1 : 0;
  return n;
}

core::SparseOperandHandle OperandCache::get_or_prepare_spmm_lhs(
    const sparse::BlockPattern& pattern, const Matrix<std::int32_t>& values,
    PrecisionPair precision, bool shuffle, std::uint64_t content_id,
    bool* was_hit) {
  const OperandKey key = spmm_lhs_key(
      content_id != 0 ? content_id : pattern.fingerprint(), precision,
      shuffle);
  const std::uint64_t probe = content_probe(values);
  if (was_hit) *was_hit = false;
  if (CachedOperand hit = find(key)) {
    MAGICUBE_CHECK_MSG(hit.content_probe == probe,
                       "operand cache hit for key content "
                           << key.content
                           << " but the weight values changed — pass a "
                              "distinct lhs_id per weight version");
    if (was_hit) *was_hit = true;
    return hit.sparse;
  }

  CachedOperand entry;
  entry.sparse =
      core::prepare_spmm_lhs_shared(pattern, values, precision, shuffle);
  entry.bytes = entry.sparse->footprint_bytes();
  entry.content_probe = probe;
  return insert(key, std::move(entry)).sparse;
}

std::uint64_t OperandCache::memoized_fingerprint(
    const std::shared_ptr<const sparse::BlockPattern>& pattern) {
  {
    std::lock_guard<std::mutex> lock(memo_mutex_);
    auto it = fingerprint_memo_.find(pattern.get());
    if (it != fingerprint_memo_.end() &&
        it->second.alive.lock() == pattern) {
      return it->second.fingerprint;
    }
  }
  const std::uint64_t fp = pattern->fingerprint();  // outside the lock
  std::lock_guard<std::mutex> lock(memo_mutex_);
  if (fingerprint_memo_.size() >= memo_sweep_at_) {
    for (auto it = fingerprint_memo_.begin();
         it != fingerprint_memo_.end();) {
      it = it->second.alive.expired() ? fingerprint_memo_.erase(it)
                                      : std::next(it);
    }
    // Re-arm at double the live population so a sweep that reclaims
    // nothing (>= threshold patterns genuinely alive) is not repeated on
    // every insert — O(1) amortized, memo bounded by 2x live patterns.
    memo_sweep_at_ = std::max<std::size_t>(1024,
                                           2 * fingerprint_memo_.size());
  }
  fingerprint_memo_[pattern.get()] = {pattern, fp};
  return fp;
}

core::SparseOperandHandle OperandCache::get_or_prepare_spmm_lhs(
    const std::shared_ptr<const sparse::BlockPattern>& pattern,
    const Matrix<std::int32_t>& values, PrecisionPair precision, bool shuffle,
    std::uint64_t content_id, bool* was_hit) {
  MAGICUBE_CHECK(pattern != nullptr);
  if (content_id == 0) content_id = memoized_fingerprint(pattern);
  return get_or_prepare_spmm_lhs(*pattern, values, precision, shuffle,
                                 content_id, was_hit);
}

core::DenseOperandHandle OperandCache::get_or_prepare_dense(
    OperandKind kind, const Matrix<std::int32_t>& values,
    PrecisionPair precision, std::uint64_t content_id, bool* was_hit) {
  MAGICUBE_CHECK(kind != OperandKind::spmm_lhs);
  const bool row_major = kind != OperandKind::sddmm_rhs;
  const Scalar type =
      kind == OperandKind::sddmm_lhs ? precision.lhs : precision.rhs;
  const int chunk = core::rhs_chunk_bits(precision);

  if (was_hit) *was_hit = false;
  if (content_id == 0) {
    // Anonymous activations: prepare fresh, leave the cache untouched.
    return core::prepare_dense_shared(values, type, row_major, chunk);
  }

  const std::uint64_t probe = content_probe(values);
  OperandKey key;
  key.kind = kind;
  key.content = content_id;
  // RHS-slot layout (type and chunk) depends on precision.rhs alone, so an
  // activation shared across L8-R8 and L16-R8 layers is one entry; only the
  // SDDMM LHS types by precision.lhs (its chunk still follows the RHS
  // datapath, carried by key.rhs).
  key.lhs = kind == OperandKind::sddmm_lhs ? precision.lhs : precision.rhs;
  key.rhs = precision.rhs;

  if (CachedOperand hit = find(key)) {
    MAGICUBE_CHECK_MSG(hit.content_probe == probe,
                       "operand cache hit for client id "
                           << content_id
                           << " but the operand values changed — ids must "
                              "name immutable contents");
    if (was_hit) *was_hit = true;
    return hit.dense;
  }

  CachedOperand entry;
  entry.dense = core::prepare_dense_shared(values, type, row_major, chunk);
  entry.bytes = entry.dense->footprint_bytes();
  entry.content_probe = probe;
  return insert(key, std::move(entry)).dense;
}

core::DenseOperandHandle OperandCache::get_or_prepare_probed(
    OperandKind kind, const Matrix<std::int32_t>& values,
    PrecisionPair precision, bool* was_hit) {
  return get_or_prepare_probed(kind, values, precision,
                               content_probe(values), was_hit);
}

core::DenseOperandHandle OperandCache::get_or_prepare_probed(
    OperandKind kind, const Matrix<std::int32_t>& values,
    PrecisionPair precision, std::uint64_t probe, bool* was_hit) {
  MAGICUBE_CHECK(kind != OperandKind::spmm_lhs);
  const bool row_major = kind != OperandKind::sddmm_rhs;
  const Scalar type =
      kind == OperandKind::sddmm_lhs ? precision.lhs : precision.rhs;
  const int chunk = core::rhs_chunk_bits(precision);

  if (was_hit) *was_hit = false;
  OperandKey key;
  key.kind = kind;
  key.content = probe_identity(probe);  // bijective: the probe IS the id
  key.lhs = kind == OperandKind::sddmm_lhs ? precision.lhs : precision.rhs;
  key.rhs = precision.rhs;

  if (CachedOperand hit = find(key)) {
    // key.content determines the probe bijectively, so this guard can only
    // fire when a key-hash accident aliased two distinct probes — kept as
    // defense in depth, unreachable by construction otherwise.
    MAGICUBE_CHECK_MSG(hit.content_probe == probe,
                       "operand cache probe-identity collision for probe "
                           << probe << " — distinct contents aliased one key");
    if (was_hit) *was_hit = true;
    return hit.dense;
  }

  CachedOperand entry;
  entry.dense = core::prepare_dense_shared(values, type, row_major, chunk);
  entry.bytes = entry.dense->footprint_bytes();
  entry.content_probe = probe;
  return insert(key, std::move(entry)).dense;
}

OperandKey spmm_lhs_key(std::uint64_t content, PrecisionPair precision,
                        bool shuffled) {
  OperandKey key;
  key.kind = OperandKind::spmm_lhs;
  key.content = content;
  key.lhs = precision.lhs;
  key.rhs = precision.rhs;
  key.shuffled = shuffled;
  return key;
}

/// Plans are keyed by everything the schedule depends on: structure
/// identity, RHS width and the kernel-config knobs folded into the content
/// hash (precision rides in the key's scalar slots).
OperandKey spmm_plan_key(std::uint64_t pattern_content, std::size_t n_cols,
                         const core::SpmmConfig& cfg) {
  Fnv1a h;
  h.mix(pattern_content);
  h.mix(n_cols);
  h.mix(static_cast<std::uint64_t>(cfg.variant), 1);
  h.mix(static_cast<std::uint64_t>(cfg.bsn), 4);
  h.mix(static_cast<std::uint64_t>(cfg.warps_per_block), 4);

  OperandKey key;
  key.kind = OperandKind::spmm_plan;
  key.content = h.state;
  key.lhs = cfg.precision.lhs;
  key.rhs = cfg.precision.rhs;
  key.shuffled = core::needs_shuffle(cfg);
  return key;
}

core::SpmmPlanHandle OperandCache::get_or_build_spmm_plan(
    const std::shared_ptr<const sparse::BlockPattern>& pattern,
    const core::SparseOperandHandle& lhs, std::size_t n_cols,
    const core::SpmmConfig& cfg, std::uint64_t pattern_content,
    bool* was_hit) {
  MAGICUBE_CHECK(pattern != nullptr && lhs != nullptr);
  if (pattern_content == 0) pattern_content = memoized_fingerprint(pattern);
  const OperandKey key = spmm_plan_key(pattern_content, n_cols, cfg);

  if (was_hit) *was_hit = false;
  if (CachedOperand hit = find(key)) {
    if (was_hit) *was_hit = true;
    return hit.spmm_plan;
  }
  CachedOperand entry;
  entry.spmm_plan = core::build_spmm_plan(*lhs, n_cols, cfg);
  entry.bytes = entry.spmm_plan->footprint_bytes();
  entry.content_probe = key.content;  // plans are value-free
  return insert(key, std::move(entry)).spmm_plan;
}

core::SpmmPlanHandle OperandCache::get_or_build_spmm_plan(
    const std::shared_ptr<const sparse::BlockPattern>& pattern,
    std::size_t n_cols, const core::SpmmConfig& cfg,
    std::uint64_t pattern_content, bool* was_hit) {
  MAGICUBE_CHECK(pattern != nullptr);
  if (pattern_content == 0) pattern_content = memoized_fingerprint(pattern);
  const OperandKey key = spmm_plan_key(pattern_content, n_cols, cfg);

  if (was_hit) *was_hit = false;
  if (CachedOperand hit = find(key)) {
    if (was_hit) *was_hit = true;
    return hit.spmm_plan;
  }
  CachedOperand entry;
  entry.spmm_plan = core::build_spmm_plan(*pattern, n_cols, cfg);
  entry.bytes = entry.spmm_plan->footprint_bytes();
  entry.content_probe = key.content;  // plans are value-free
  return insert(key, std::move(entry)).spmm_plan;
}

OperandKey sddmm_plan_key(std::uint64_t pattern_content, std::size_t k_depth,
                          const core::SddmmConfig& cfg) {
  Fnv1a h;
  h.mix(pattern_content);
  h.mix(k_depth);
  h.mix(cfg.prefetch ? 1 : 0, 1);
  h.mix(static_cast<std::uint64_t>(cfg.warps_per_block), 4);

  OperandKey key;
  key.kind = OperandKind::sddmm_plan;
  key.content = h.state;
  key.lhs = cfg.precision.lhs;
  key.rhs = cfg.precision.rhs;
  return key;
}

core::SddmmPlanHandle OperandCache::get_or_build_sddmm_plan(
    const std::shared_ptr<const sparse::BlockPattern>& pattern,
    std::size_t k_depth, const core::SddmmConfig& cfg,
    std::uint64_t pattern_content, bool* was_hit) {
  MAGICUBE_CHECK(pattern != nullptr);
  if (pattern_content == 0) pattern_content = memoized_fingerprint(pattern);
  const OperandKey key = sddmm_plan_key(pattern_content, k_depth, cfg);

  if (was_hit) *was_hit = false;
  if (CachedOperand hit = find(key)) {
    if (was_hit) *was_hit = true;
    return hit.sddmm_plan;
  }
  CachedOperand entry;
  entry.sddmm_plan = core::build_sddmm_plan(*pattern, k_depth, cfg);
  entry.bytes = entry.sddmm_plan->footprint_bytes();
  entry.content_probe = key.content;
  return insert(key, std::move(entry)).sddmm_plan;
}

CacheStats OperandCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t OperandCache::bytes_cached() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_cached_;
}

std::size_t OperandCache::entry_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

void OperandCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  lru_.clear();
  index_.clear();
  bytes_cached_ = 0;
}

}  // namespace magicube::serve
