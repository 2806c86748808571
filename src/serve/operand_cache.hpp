#pragma once
// Operand cache for the inference-serving engine.
//
// Operand preparation (quantize → SR-BCRS encode → shuffle → plane
// decomposition) costs O(M·K) per call, while the kernels themselves touch
// only O(nnz·N); on the repeated-pattern traffic a Transformer serving loop
// produces, re-preparing per request dominates end-to-end time (the
// redundancy cuTeSpMM and FlashSparse identify on small problems). This
// cache memoizes prepared operands behind immutable shared handles so any
// number of concurrent kernel executions alias one preparation.
//
// Keys: (operand kind, content id, precision pair, shuffle). For SpMM LHS
// weights the content id defaults to the pattern's structural fingerprint —
// in a serving deployment the sparsity pattern identifies the pruned weight
// matrix. Clients whose distinct weights share one pattern pass an explicit
// id instead. Dense operands (activations) are cached only under a
// client-assigned nonzero id, since the engine cannot cheaply prove two
// activation matrices identical.
//
// Eviction is LRU by byte footprint. Hit/miss/eviction counters follow the
// simt::KernelCounters idiom (a plain aggregate with operator+= and
// operator==) so callers can snapshot, diff and reduce them the same way
// kernel counters are handled.

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "core/operands.hpp"
#include "core/sddmm.hpp"
#include "core/spmm.hpp"
#include "sparse/pattern.hpp"

namespace magicube::serve {

/// Which prepared form an entry holds (part of the key: the same content
/// prepared for a different slot has a different layout). Execution plans
/// live next to the operands they schedule, charged to the same LRU byte
/// budget — repeated-pattern traffic skips planning the same way it skips
/// preparation.
enum class OperandKind : std::uint8_t {
  spmm_lhs,    // SparseOperand (SR-BCRS + planes)
  spmm_rhs,    // DenseOperand, row-major
  sddmm_lhs,   // DenseOperand, row-major
  sddmm_rhs,   // DenseOperand, column-major
  spmm_plan,   // core::SpmmPlan (per pattern fingerprint x config x N)
  sddmm_plan,  // core::SddmmPlan (per pattern fingerprint x config x K)
};

struct OperandKey {
  OperandKind kind = OperandKind::spmm_lhs;
  std::uint64_t content = 0;  // pattern fingerprint or client-assigned id
  Scalar lhs = Scalar::s8;    // element type of the slot's own side (RHS
                              // slots collapse lhs to rhs so activations
                              // shared across LHS widths are one entry)
  Scalar rhs = Scalar::s8;    // picks the datapath (chunking, stride)
  bool shuffled = false;

  friend bool operator==(const OperandKey&, const OperandKey&) = default;
};

struct OperandKeyHash {
  std::size_t operator()(const OperandKey& k) const {
    std::uint64_t h = k.content;
    h ^= static_cast<std::uint64_t>(k.kind) << 56 |
         static_cast<std::uint64_t>(k.lhs) << 48 |
         static_cast<std::uint64_t>(k.rhs) << 40 |
         static_cast<std::uint64_t>(k.shuffled) << 32;
    return static_cast<std::size_t>(splitmix64(h));  // rng.hpp finalizer
  }
};

/// Cache key of a prepared SpMM LHS. Exposed for the sharding layer, which
/// derives per-row-slice identities from the full operand's content id and
/// pins the entries it is executing from.
OperandKey spmm_lhs_key(std::uint64_t content, PrecisionPair precision,
                        bool shuffled);

/// Cache key of an SpMM execution plan: structure identity, RHS width and
/// the schedule-relevant config knobs folded into the content hash. The
/// get_or_build_spmm_plan paths key with exactly this function.
OperandKey spmm_plan_key(std::uint64_t pattern_content, std::size_t n_cols,
                         const core::SpmmConfig& cfg);

/// Cache key of an SDDMM execution plan (pattern identity x K x config);
/// get_or_build_sddmm_plan keys with exactly this function.
OperandKey sddmm_plan_key(std::uint64_t pattern_content, std::size_t k_depth,
                          const core::SddmmConfig& cfg);

/// Cache-event counters, reduced with += like simt::KernelCounters.
struct CacheStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t race_discards = 0;  // lost prepare races (first insert wins)
  std::uint64_t pin_skips = 0;      // eviction scans that skipped a pinned entry
  std::uint64_t bytes_inserted = 0;
  std::uint64_t bytes_evicted = 0;

  CacheStats& operator+=(const CacheStats& o) {
    lookups += o.lookups;
    hits += o.hits;
    misses += o.misses;
    insertions += o.insertions;
    evictions += o.evictions;
    race_discards += o.race_discards;
    pin_skips += o.pin_skips;
    bytes_inserted += o.bytes_inserted;
    bytes_evicted += o.bytes_evicted;
    return *this;
  }
  friend CacheStats operator+(CacheStats a, const CacheStats& b) {
    a += b;
    return a;
  }
  friend bool operator==(const CacheStats&, const CacheStats&) = default;

  double hit_rate() const {
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
};

/// One cached preparation: exactly one handle is set, per the key's kind.
struct CachedOperand {
  core::SparseOperandHandle sparse;
  core::DenseOperandHandle dense;
  core::SpmmPlanHandle spmm_plan;
  core::SddmmPlanHandle sddmm_plan;
  std::size_t bytes = 0;
  /// Strided-sample hash of the source value matrix. Keys identify contents
  /// by proxy (pattern fingerprint / client id); the probe catches the
  /// contract violation of re-serving changed values under an unchanged key
  /// without paying an O(M·K) hash per request. Plans are value-free; their
  /// probe is the key content itself.
  std::uint64_t content_probe = 0;

  explicit operator bool() const {
    return static_cast<bool>(sparse) || static_cast<bool>(dense) ||
           static_cast<bool>(spmm_plan) || static_cast<bool>(sddmm_plan);
  }
};

/// The strided content sample used by the staleness guard (≤ 64 values).
std::uint64_t content_probe(const Matrix<std::int32_t>& values);

/// Cache identity derived from a content probe, for operands whose identity
/// IS their contents (quantized attention activations, graph-request
/// operands). A tagged *bijection* on 64 bits: distinct probes always map
/// to distinct identities — no value is special-cased, so two distinct
/// operands can never be remapped onto one id (the defect the old
/// "probe 0 → 1" coercion had), and a genuine zero probe is an ordinary
/// identity rather than the get_or_prepare_dense anonymous-bypass
/// sentinel. The tag scrambles probe-derived ids away from small
/// client-assigned ids (collision with those only by 64-bit accident,
/// never structurally).
std::uint64_t probe_identity(std::uint64_t probe);

/// Thread-safe LRU cache of prepared operands, bounded by byte footprint.
/// Preparation runs outside the lock; when two threads race to prepare the
/// same key, the first insert wins and the loser adopts it (counted as
/// race_discards).
class OperandCache {
 public:
  /// An entry larger than the whole capacity is returned uncached.
  explicit OperandCache(std::size_t capacity_bytes = 256ull << 20);

  /// Looks up a key, refreshing recency. Returns an empty CachedOperand on
  /// miss. Counts one lookup and one hit or miss.
  CachedOperand find(const OperandKey& key);

  /// Inserts a prepared operand (bytes must be set) and returns the entry
  /// now cached under the key — the argument, or the incumbent if another
  /// thread inserted first. Evicts LRU entries to fit.
  CachedOperand insert(const OperandKey& key, CachedOperand value);

  /// Memoized prepare_spmm_lhs: find, else prepare and insert.
  /// `content_id` = 0 uses pattern.fingerprint() as identity. `was_hit`
  /// (optional) reports whether this call was served from cache. Throws
  /// Error when a hit's content probe disagrees with `values` — the caller
  /// changed operand contents without changing the cache identity.
  core::SparseOperandHandle get_or_prepare_spmm_lhs(
      const sparse::BlockPattern& pattern,
      const Matrix<std::int32_t>& values, PrecisionPair precision,
      bool shuffle, std::uint64_t content_id = 0, bool* was_hit = nullptr);

  /// shared_ptr overload for the serving hot path: the pattern fingerprint
  /// is memoized per live pattern object (keyed by address, validated by
  /// weak_ptr), so repeated requests over resident patterns skip the
  /// O(nnz) rehash.
  core::SparseOperandHandle get_or_prepare_spmm_lhs(
      const std::shared_ptr<const sparse::BlockPattern>& pattern,
      const Matrix<std::int32_t>& values, PrecisionPair precision,
      bool shuffle, std::uint64_t content_id = 0, bool* was_hit = nullptr);

  /// Memoized dense prepare for the given slot. `content_id` = 0 bypasses
  /// the cache entirely (anonymous activations) and is not counted.
  core::DenseOperandHandle get_or_prepare_dense(
      OperandKind kind, const Matrix<std::int32_t>& values,
      PrecisionPair precision, std::uint64_t content_id,
      bool* was_hit = nullptr);

  /// Probe-keyed dense prepare: samples the contents (content_probe) and
  /// keys the entry on probe_identity(probe), so the operand's identity is
  /// its values. Changed values produce a new probe and therefore a clean
  /// miss — the staleness guard can never fire spuriously here — and a
  /// genuine zero probe is an ordinary identity, not the anonymous-bypass
  /// sentinel. This is the identity rule the attention/graph paths use for
  /// quantized activations.
  core::DenseOperandHandle get_or_prepare_probed(
      OperandKind kind, const Matrix<std::int32_t>& values,
      PrecisionPair precision, bool* was_hit = nullptr);

  /// Explicit-probe seam of the probe-keyed prepare (tests force edge
  /// probes — e.g. 0 — without searching for a matrix that hashes there).
  /// `probe` must describe `values` for the staleness guard to hold across
  /// calls; production code uses the sampling overload above.
  core::DenseOperandHandle get_or_prepare_probed(
      OperandKind kind, const Matrix<std::int32_t>& values,
      PrecisionPair precision, std::uint64_t probe, bool* was_hit);

  /// Memoized execution-plan build for core::spmm. Plans depend only on the
  /// *structure*, so identity is the pattern (never a weight-version id):
  /// `pattern_content` = 0 uses pattern.fingerprint() via the same per-live-
  /// pattern memo as the operand path. `lhs` provides the prepared structure
  /// a miss builds from. Plan bytes are charged to the LRU budget.
  core::SpmmPlanHandle get_or_build_spmm_plan(
      const std::shared_ptr<const sparse::BlockPattern>& pattern,
      const core::SparseOperandHandle& lhs, std::size_t n_cols,
      const core::SpmmConfig& cfg, std::uint64_t pattern_content = 0,
      bool* was_hit = nullptr);

  /// Pattern-only variant: a miss builds the plan from the sparsity
  /// structure alone (core::build_spmm_plan's pattern overload) — no
  /// prepared operand required, so layers can plan before any weights
  /// exist. Same keys as the operand-backed variant; the two interoperate.
  core::SpmmPlanHandle get_or_build_spmm_plan(
      const std::shared_ptr<const sparse::BlockPattern>& pattern,
      std::size_t n_cols, const core::SpmmConfig& cfg,
      std::uint64_t pattern_content = 0, bool* was_hit = nullptr);

  /// Memoized execution-plan build for core::sddmm (keyed by pattern
  /// fingerprint x precision x prefetch x K).
  core::SddmmPlanHandle get_or_build_sddmm_plan(
      const std::shared_ptr<const sparse::BlockPattern>& pattern,
      std::size_t k_depth, const core::SddmmConfig& cfg,
      std::uint64_t pattern_content = 0, bool* was_hit = nullptr);

  /// Pins `key`'s entry against LRU eviction until a matching unpin. Pins
  /// nest (a count, not a flag). Returns the entry's unique id (nonzero),
  /// or 0 when the key is not resident — a pin never inserts. Handles
  /// returned by get_or_* stay valid across eviction regardless (shared
  /// ownership); pinning additionally keeps the *entry* resident so a
  /// sharded request's sub-plans cannot be evicted and rebuilt mid-flight
  /// by concurrent traffic. While every entry is pinned, inserts may
  /// temporarily exceed the byte capacity (serving is never refused
  /// because of pins); counted as pin_skips.
  std::uint64_t pin(const OperandKey& key);
  /// Releases one pin taken on the entry identified by (key, entry_id).
  /// No-op when that exact entry is gone — clear() may have dropped it,
  /// and a fresh entry under the same key (possibly pinned by someone
  /// else) must not lose *its* pins to our release.
  void unpin(const OperandKey& key, std::uint64_t entry_id);
  std::size_t pinned_count() const;

  /// RAII multi-key pin over one cache, released on destruction — the
  /// request-lifetime pin the sharding layer holds while sub-plans execute.
  class PinScope {
   public:
    PinScope() = default;
    explicit PinScope(OperandCache& cache) : cache_(&cache) {}
    PinScope(PinScope&& o) noexcept
        : cache_(o.cache_), keys_(std::move(o.keys_)) {
      o.cache_ = nullptr;
      o.keys_.clear();
    }
    PinScope& operator=(PinScope&& o) noexcept {
      if (this != &o) {
        release();
        cache_ = o.cache_;
        keys_ = std::move(o.keys_);
        o.cache_ = nullptr;
        o.keys_.clear();
      }
      return *this;
    }
    ~PinScope() { release(); }

    /// Pins `key` (if resident) and remembers the exact entry for release.
    bool pin(const OperandKey& key) {
      if (cache_ == nullptr) return false;
      const std::uint64_t id = cache_->pin(key);
      if (id == 0) return false;
      keys_.emplace_back(key, id);
      return true;
    }
    void release() {
      if (cache_ != nullptr) {
        for (const auto& [key, id] : keys_) cache_->unpin(key, id);
      }
      keys_.clear();
    }
    /// Entries currently pinned through this scope (warmup reporting).
    std::size_t size() const { return keys_.size(); }

    PinScope(const PinScope&) = delete;
    PinScope& operator=(const PinScope&) = delete;

   private:
    OperandCache* cache_ = nullptr;
    std::vector<std::pair<OperandKey, std::uint64_t>> keys_;
  };

  /// The cache identity of a live shared pattern: its fingerprint, memoized
  /// per object (the same memo the get_or_* paths use). Exposed so the
  /// sharding layer can derive per-slice content ids without re-hashing.
  std::uint64_t pattern_identity(
      const std::shared_ptr<const sparse::BlockPattern>& pattern) {
    return memoized_fingerprint(pattern);
  }

  CacheStats stats() const;
  std::size_t bytes_cached() const;
  std::size_t entry_count() const;
  std::size_t capacity_bytes() const { return capacity_bytes_; }

  void clear();

 private:
  struct Entry {
    OperandKey key;
    CachedOperand value;
    std::uint64_t id = 0;  // unique per insert; pairs pins with unpins
    std::uint32_t pins = 0;
  };
  using LruList = std::list<Entry>;

  /// Drops unpinned LRU entries until `incoming` more bytes fit (or nothing
  /// evictable remains). Lock held.
  void evict_to_fit(std::size_t incoming);

  /// Memoized pattern.fingerprint() for a live shared pattern.
  std::uint64_t memoized_fingerprint(
      const std::shared_ptr<const sparse::BlockPattern>& pattern);

  const std::size_t capacity_bytes_;
  mutable std::mutex mutex_;
  std::uint64_t next_entry_id_ = 1;
  LruList lru_;  // front = most recent
  std::unordered_map<OperandKey, LruList::iterator, OperandKeyHash> index_;
  std::size_t bytes_cached_ = 0;
  CacheStats stats_;

  /// Address-keyed fingerprint memo; the weak_ptr detects address reuse
  /// after a pattern dies. Expired entries are swept when the memo grows.
  struct FingerprintMemo {
    std::weak_ptr<const sparse::BlockPattern> alive;
    std::uint64_t fingerprint = 0;
  };
  std::mutex memo_mutex_;
  std::unordered_map<const sparse::BlockPattern*, FingerprintMemo>
      fingerprint_memo_;
  std::size_t memo_sweep_at_ = 1024;  // re-armed to 2x live after a sweep
};

}  // namespace magicube::serve
