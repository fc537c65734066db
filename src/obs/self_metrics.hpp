// self_metrics.hpp — read-only `__sys/` registry rows over a live
// server's own instruments: self-observability without a second count.
//
// The snapshot server (src/svc) already owns a distribution machine —
// sequenced collects, FULL/DELTA encoding, prefix-filtered
// subscriptions, shm fan-out. This header points that machine at the
// server itself: with ServerOptions::self_metrics on, every internal
// signal (accepted clients, frames sent, per-stage tick timing, top
// talkers) appears as a registry entry under the reserved `__sys/`
// prefix, so any existing client can subscribe to `__sys/` and watch
// the server's vitals over the standard wire with ZERO new wire format.
//
// One counter source: the server core counts every event once, into
// its own block of instruments (exact atomics for event counters and
// gauges, per-bucket S·k timing histograms, exact per-peer byte counts
// for the top talkers), sized for its own threads and always fed.
// ServerStats copies from that block, and each `__sys/` row is a VIEW
// of one instrument in it:
//   * a view reads the live server's instrument, and its writes
//     (increment / record / update) do nothing, so a fleet worker that
//     somehow obtained a `__sys/` handle cannot spoof server internals
//     (and the registry's reserved-prefix guard stops it from creating
//     one; see shard/registry.hpp kReservedPrefix);
//   * a view shares ownership of the block it reads, so a row can never
//     outlive its data;
//   * a server started over a registry that already holds the rows (a
//     restart) re-points them at its own block: its counts start from
//     zero, and the rows never touch another server's thread slots.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "base/backend.hpp"
#include "shard/registry.hpp"
#include "stats/histogram.hpp"

namespace approx::obs {

/// The server block's histogram type. The server core is compiled once
/// for every registry backend, so its block uses the relaxed production
/// backend whatever the registry it serves.
using ServerHistogram = stats::HistogramT<base::RelaxedDirectBackend>;

/// Spec shared by every `__sys/` *_ns timing histogram: edges 1.024 µs …
/// ~4.3 s, factor 4 (12 finite edges + overflow) — coarse on purpose,
/// stage timings are order-of-magnitude signals — over one k-additive
/// shard per bucket (a bucket undercounts by at most k, never over).
inline stats::HistogramSpec timing_histogram_spec() {
  stats::HistogramSpec spec;
  spec.bounds = stats::exponential_bounds(1024, 4.0, 12);
  spec.k = 4;
  spec.shards = 1;
  return spec;
}

/// Rows kept by `__sys/server.top_talkers`.
inline constexpr std::size_t kTopTalkerRows = 16;

/// The top-talkers directory: the first kTopTalkerRows peers, each with
/// an exact count of the bytes flushed to it. A connection claims its
/// row once (rows are never cleared), and every flush after that is one
/// relaxed add, with no allocation and no label scan. (A labeled
/// max-register top-k, stats/topk.hpp, allocates a fresh tree path for
/// every new maximum, and a byte count reaches one per flush.)
class TopTalkers {
 public:
  /// `peer`'s byte counter, claiming a free row for a new peer; nullptr
  /// when every row holds another peer.
  std::atomic<std::uint64_t>* row_for(const std::string& peer) {
    std::lock_guard lock(mutex_);
    for (std::size_t i = 0; i < used_; ++i) {
      if (labels_[i] == peer) return &bytes_[i];
    }
    if (used_ == kTopTalkerRows) return nullptr;
    labels_[used_] = peer;
    return &bytes_[used_++];
  }

  /// The claimed rows, most bytes first (label-ascending ties, the
  /// top-k wire order).
  void snapshot_into(std::vector<std::string>& labels,
                     std::vector<std::uint64_t>& values) const {
    std::vector<std::pair<std::uint64_t, std::string>> rows;
    {
      std::lock_guard lock(mutex_);
      for (std::size_t i = 0; i < used_; ++i) {
        rows.emplace_back(bytes_[i].load(std::memory_order_relaxed),
                          labels_[i]);
      }
    }
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
      return a.first != b.first ? a.first > b.first : a.second < b.second;
    });
    labels.clear();
    values.clear();
    for (auto& [bytes, label] : rows) {
      values.push_back(bytes);
      labels.push_back(std::move(label));
    }
  }

 private:
  mutable std::mutex mutex_;  // orders claims against snapshots
  std::size_t used_ = 0;
  std::array<std::string, kTopTalkerRows> labels_;
  std::array<std::atomic<std::uint64_t>, kTopTalkerRows> bytes_{};
};

/// A registry row (`Face`) reading one server instrument (`Target`).
/// The target pointer shares ownership of the server's block; the lock
/// orders a restart's re-point against concurrent reads.
template <typename Face, typename Target>
class View : public Face {
 public:
  using face_type = Face;
  using target_type = Target;

  explicit View(std::shared_ptr<Target> target) : target_(std::move(target)) {}

  /// Points the row at another server's instrument.
  void repoint(std::shared_ptr<Target> target) {
    std::lock_guard lock(mutex_);
    target_ = std::move(target);
  }

 protected:
  /// The current instrument; the copy keeps it alive across a re-point.
  [[nodiscard]] std::shared_ptr<Target> target() const {
    std::lock_guard lock(mutex_);
    return target_;
  }

 private:
  mutable std::mutex mutex_;
  std::shared_ptr<Target> target_;
};

/// An exact event counter or gauge: one atomic word of the block.
class CounterView final
    : public View<shard::AnyCounter, const std::atomic<std::uint64_t>> {
 public:
  using View::View;

  void increment(unsigned /*pid*/) override {}
  std::uint64_t read(unsigned /*pid*/) override {
    return target()->load(std::memory_order_relaxed);
  }
  void flush(unsigned /*pid*/) override {}
  [[nodiscard]] shard::ErrorModel error_model() const override {
    return shard::ErrorModel::kExact;
  }
  [[nodiscard]] std::uint64_t error_bound() const override { return 0; }
  [[nodiscard]] unsigned num_shards() const override { return 1; }
  [[nodiscard]] bool accuracy_guaranteed() const override { return true; }
};

/// A timing histogram. Reads use the block's thread slot 0: sharded
/// k-additive reads sum shard cells and are slot-stateless.
class HistogramView final : public View<shard::AnyHistogram, ServerHistogram> {
 public:
  explicit HistogramView(std::shared_ptr<ServerHistogram> target)
      : View(target),
        bounds_(target->bounds()),
        per_bucket_bound_(target->per_bucket_bound()) {}

  void record(unsigned /*pid*/, std::uint64_t /*value*/) override {}
  void snapshot_into(unsigned /*pid*/,
                     std::vector<std::uint64_t>& counts) override {
    target()->snapshot_into(0, counts);
  }
  void flush(unsigned /*pid*/) override {}
  // Every block's histograms share one spec, so the row keeps its own
  // copy: a re-point never invalidates a returned reference.
  [[nodiscard]] const std::vector<std::uint64_t>& bucket_bounds()
      const override {
    return bounds_;
  }
  [[nodiscard]] std::uint64_t per_bucket_bound() const override {
    return per_bucket_bound_;
  }

 private:
  const std::vector<std::uint64_t> bounds_;
  const std::uint64_t per_bucket_bound_;
};

/// The top-talkers directory. Public updates are unconditionally
/// rejected (the AnyTopK contract documents this for reserved entries).
class TopKView final : public View<shard::AnyTopK, TopTalkers> {
 public:
  using View::View;

  bool update(unsigned /*pid*/, std::string_view /*label*/,
              std::uint64_t /*value*/) override {
    return false;
  }
  void snapshot_into(std::vector<std::string>& labels,
                     std::vector<std::uint64_t>& values) override {
    target()->snapshot_into(labels, values);
  }
  [[nodiscard]] std::size_t capacity() const override {
    return kTopTalkerRows;
  }
};

/// Registers the reserved row `name` as a `ViewT` of `target`, or
/// re-points the view already registered under that name.
template <typename ViewT, typename Backend>
void install_view(shard::RegistryT<Backend>& registry, const std::string& name,
                  std::shared_ptr<typename ViewT::target_type> target) {
  using Face = typename ViewT::face_type;
  Face* row = registry.template add_reserved<Face>(
      name, [&] { return std::make_unique<ViewT>(target); });
  auto* view = dynamic_cast<ViewT*>(row);
  assert(view != nullptr && "`__sys/` name held by another instrument");
  if (view != nullptr) view->repoint(std::move(target));
}

}  // namespace approx::obs
