// histogram.hpp — wait-free fixed-bucket histogram over k-additive
// counters: the first vector-valued instrument of the stats layer.
//
// A latency histogram is a vector of counters, one per bucket, and the
// paper already supplies the right counter: the deterministic
// k-additive construction (core/kadditive_counter.hpp) batches
// increments locally and undercounts by at most k, never overcounts.
// `HistogramT` composes B = bounds.size()+1 *sharded* k-additive
// counters (shard/sharded_counter.hpp), so every accuracy statement is
// inherited rather than re-proved:
//
//   * record(pid, v) is wait-free: the bucket search is local
//     computation (binary search over the immutable bound array) and
//     the increment is one sharded k-additive increment — amortized
//     O(1) shared steps for k ≥ n/S.
//   * Each bucket's count c_i relates to the true number of recorded
//     values v_i in that bucket by  v_i − S·k ≤ c_i ≤ v_i  (per-shard
//     slack k, S shards, one-sided: k-additive counters only
//     undercount). per_bucket_bound() reports the composed S·k —
//     exactly ShardTraits<KAdditiveCounterT>::composed_bound.
//   * flush(pid) forces pid's pending batches out of every bucket, so
//     a quiescent read after all pids flushed is exact.
//   * record and flush pass up their buckets' publish report (true iff
//     a bucket wrote its slot; shard/sharded_counter.hpp). The registry
//     row marks itself on it, so the sequenced collect reads a quiet
//     histogram no more than a quiet k-mult row (shard/registry.hpp).
//
// Bucketing: bucket i covers (bounds[i−1], bounds[i]] for the
// ascending finite upper edges `bounds`; values above the last edge
// land in the implicit overflow bucket (upper edge +∞). A value equal
// to an edge belongs to that edge's bucket.
//
// The registry publishes a histogram as one vector-valued entry
// (shard::AnyHistogram; see create_histogram below): model tag
// kHistogram, error_bound = per_bucket_bound(), and the bucket counts
// ride full/delta frames as varint vectors (svc/wire.hpp, layout
// revision 4). quantile.hpp derives rank-error-bounded p50/p90/p99
// from any bucket snapshot, local or decoded.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/backend.hpp"
#include "base/kmath.hpp"
#include "core/kadditive_counter.hpp"
#include "shard/registry.hpp"
#include "shard/sharded_counter.hpp"

namespace approx::stats {

/// Hard ceiling on bucket counts, shared with the wire layer's decode
/// hardening (an untrusted frame may not command a larger allocation).
inline constexpr std::size_t kMaxHistogramBuckets = 512;

/// Configuration of one histogram: ascending finite upper edges (the
/// implicit overflow bucket is added on top) plus the per-bucket
/// sharded-counter parameters.
struct HistogramSpec {
  std::vector<std::uint64_t> bounds;  // ascending, deduped by sanitize
  std::uint64_t k = 1024;             // per-shard additive slack
  unsigned shards = 1;
  shard::ShardPolicy policy = shard::ShardPolicy::kHashPinned;
};

/// Convenience edge generator: `count` edges starting at `first`,
/// multiplied by `factor` (≥ 1.0) each step — the classic latency
/// layout (e.g. 10,20,40,... µs). Saturating; strictly ascending.
std::vector<std::uint64_t> exponential_bounds(std::uint64_t first,
                                              double factor,
                                              std::size_t count);

/// Wait-free fixed-bucket histogram; accuracy per the header comment.
template <typename Backend = base::InstrumentedBackend>
class HistogramT {
 public:
  using backend_type = Backend;
  using bucket_type = shard::ShardedCounterT<core::KAdditiveCounterT, Backend>;

  /// @param num_processes pid space (one thread per pid, as everywhere).
  HistogramT(unsigned num_processes, const HistogramSpec& spec)
      : bounds_(sanitize(spec.bounds)), k_(spec.k) {
    assert(num_processes >= 1);
    const std::size_t num_buckets = bounds_.size() + 1;  // + overflow
    buckets_.reserve(num_buckets);
    for (std::size_t b = 0; b < num_buckets; ++b) {
      buckets_.push_back(std::make_unique<bucket_type>(
          num_processes, spec.k, spec.shards, spec.policy));
    }
  }

  HistogramT(const HistogramT&) = delete;
  HistogramT& operator=(const HistogramT&) = delete;

  /// Records one observation. Wait-free; at most one thread per pid.
  /// Returns its bucket's publish report.
  bool record(unsigned pid, std::uint64_t value) {
    return buckets_[bucket_index(value)]->increment(pid);
  }

  /// The bucket `value` lands in: first bucket whose upper edge is
  /// ≥ value; bounds_.size() is the overflow bucket. Local computation.
  [[nodiscard]] std::size_t bucket_index(std::uint64_t value) const {
    return static_cast<std::size_t>(
        std::lower_bound(bounds_.begin(), bounds_.end(), value) -
        bounds_.begin());
  }

  /// Reads every bucket (as `pid`) into `counts` (resized to
  /// num_buckets()). Each count is within per_bucket_bound() below its
  /// bucket's true tally at a point inside this call's interval.
  void snapshot_into(unsigned pid, std::vector<std::uint64_t>& counts) {
    counts.resize(buckets_.size());
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
      counts[b] = buckets_[b]->read(pid);
    }
  }

  /// Total observations visible to a read now (sum of bucket reads;
  /// within num_buckets()·per_bucket_bound() below the true total).
  [[nodiscard]] std::uint64_t total(unsigned pid) {
    std::uint64_t sum = 0;
    for (auto& bucket : buckets_) {
      sum = base::sat_add(sum, bucket->read(pid));
    }
    return sum;
  }

  /// Forces `pid`'s pending batches out of every bucket: after every
  /// recording pid flushed, a quiescent snapshot is exact. Returns true
  /// iff some bucket wrote.
  bool flush(unsigned pid) {
    bool published = false;
    for (auto& bucket : buckets_) published |= bucket->flush(pid);
    return published;
  }

  /// Composed one-sided additive slack per bucket: S·k (each bucket may
  /// undercount by at most this, and never overcounts).
  [[nodiscard]] std::uint64_t per_bucket_bound() const noexcept {
    return buckets_.front()->error_bound();
  }

  [[nodiscard]] const std::vector<std::uint64_t>& bounds() const noexcept {
    return bounds_;
  }
  [[nodiscard]] std::size_t num_buckets() const noexcept {
    return buckets_.size();
  }
  [[nodiscard]] std::uint64_t k() const noexcept { return k_; }
  [[nodiscard]] unsigned num_shards() const noexcept {
    return buckets_.front()->num_shards();
  }

 private:
  /// Ascending + deduped + clamped to the bucket ceiling (the overflow
  /// bucket absorbs whatever a clamp cuts off).
  static std::vector<std::uint64_t> sanitize(
      std::vector<std::uint64_t> bounds) {
    std::sort(bounds.begin(), bounds.end());
    bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
    if (bounds.size() > kMaxHistogramBuckets - 1) {
      bounds.resize(kMaxHistogramBuckets - 1);
    }
    return bounds;
  }

  std::vector<std::uint64_t> bounds_;  // immutable after construction
  std::uint64_t k_;
  std::vector<std::unique_ptr<bucket_type>> buckets_;
};

/// The model-faithful default instantiation (repo-wide convention).
using Histogram = HistogramT<base::InstrumentedBackend>;

extern template class HistogramT<base::DirectBackend>;
extern template class HistogramT<base::RelaxedDirectBackend>;
extern template class HistogramT<base::InstrumentedBackend>;

// ---------------------------------------------------------------------
// Registry glue: publish a histogram as a vector-valued fleet entry.
// ---------------------------------------------------------------------

namespace detail {

/// Type-erased histogram the registry's flat table holds (the stats
/// layer plugs into the shard::AnyHistogram slot, keeping the layer
/// dependency one-way: stats → shard, never the reverse).
template <typename Backend>
class ErasedHistogram final : public shard::AnyHistogram {
 public:
  ErasedHistogram(unsigned num_processes, const HistogramSpec& spec)
      : histogram_(num_processes, spec) {}
  void record(unsigned pid, std::uint64_t value) override {
    if (histogram_.record(pid, value)) mark_.set<Backend>();
  }
  void snapshot_into(unsigned pid,
                     std::vector<std::uint64_t>& counts) override {
    histogram_.snapshot_into(pid, counts);
  }
  void flush(unsigned pid) override {
    if (histogram_.flush(pid)) mark_.set<Backend>();
  }
  bool bind_mark(shard::RowMark mark) override {
    mark_ = mark;
    return true;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& bucket_bounds()
      const override {
    return histogram_.bounds();
  }
  [[nodiscard]] std::uint64_t per_bucket_bound() const override {
    return histogram_.per_bucket_bound();
  }
  [[nodiscard]] HistogramT<Backend>& impl() noexcept { return histogram_; }

 private:
  HistogramT<Backend> histogram_;
  shard::RowMark mark_;
};

}  // namespace detail

/// Get-or-create the vector-valued registry entry `name`. Idempotent on
/// the name like RegistryT::create (first spec wins). Returns nullptr
/// iff the name is already taken by a *scalar* counter — names are
/// unique across instrument kinds.
template <typename Backend>
shard::AnyHistogram* create_histogram(shard::RegistryT<Backend>& registry,
                                      const std::string& name,
                                      const HistogramSpec& spec) {
  return registry.add_histogram(name, [&] {
    return std::make_unique<detail::ErasedHistogram<Backend>>(
        registry.num_processes(), spec);
  });
}

}  // namespace approx::stats
