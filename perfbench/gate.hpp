// gate.hpp — the benchmark's correctness gate: every subscriber's final
// view against ground truth the benchmark tracked itself.
//
//   * exact (and probe) entries must equal the truth;
//   * k-multiplicative entries must lie in the paper's band
//     v/b ≤ x ≤ v·b, with b the entry's composed bound as the wire
//     reports it, for counters whose handle reports
//     accuracy_guaranteed();
//   * histogram buckets must lie within their one-sided per-bucket
//     bound: v − b ≤ c ≤ v;
//   * the view must hold exactly the truth entries its filter admits
//     (server-owned `__sys/` entries are not the benchmark's to judge).
//
// planted_faults_missed() corrupts copies of a view that passed and
// counts corruptions the checker failed to flag, so the gate cannot pass
// vacuously.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "shard/registry.hpp"
#include "svc/wire.hpp"

namespace perfbench {

using approx::shard::ErrorModel;
using approx::shard::Sample;
using approx::svc::SubscriptionFilter;

/// Ground truth of one served entry.
struct TruthEntry {
  ErrorModel model = ErrorModel::kExact;
  std::uint64_t value = 0;             // scalar entries
  std::vector<std::uint64_t> buckets;  // histogram entries
  bool band_guaranteed = true;         // the handle's accuracy_guaranteed()
};

using Truth = std::map<std::string, TruthEntry>;

struct GateResult {
  bool ok = true;
  std::size_t checked = 0;  // entries compared against the truth
  std::string violation;    // first violation, when !ok
};

inline bool admits(const SubscriptionFilter& filter, const std::string& name) {
  return filter.pass_all() || filter.matches(name);
}

inline bool in_band(const Sample& sample, const TruthEntry& truth) {
  switch (truth.model) {
    case ErrorModel::kExact:
      return sample.value == truth.value;
    case ErrorModel::kMultiplicative: {
      if (!truth.band_guaranteed) return true;
      const unsigned __int128 b =
          sample.error_bound == 0 ? 1 : sample.error_bound;
      const unsigned __int128 x = sample.value;
      const unsigned __int128 v = truth.value;
      return v <= x * b && x <= v * b;
    }
    case ErrorModel::kHistogram: {
      if (sample.bucket_counts.size() != truth.buckets.size()) return false;
      for (std::size_t i = 0; i < truth.buckets.size(); ++i) {
        const std::uint64_t c = sample.bucket_counts[i];
        const std::uint64_t v = truth.buckets[i];
        if (c > v || c + sample.error_bound < v) return false;
      }
      return true;
    }
    default:
      return false;  // the benchmark serves no other kinds
  }
}

inline GateResult check_view(const std::vector<Sample>& view,
                             const Truth& truth,
                             const SubscriptionFilter& filter) {
  GateResult result;
  const auto fail = [&](std::string what) {
    if (result.ok) result.violation = std::move(what);
    result.ok = false;
  };
  for (const Sample& sample : view) {
    if (approx::shard::is_reserved_name(sample.name)) continue;
    const auto it = truth.find(sample.name);
    if (it == truth.end()) {
      fail("unexpected entry " + sample.name);
      continue;
    }
    if (!admits(filter, sample.name)) fail("filter leak " + sample.name);
    if (sample.model != it->second.model) {
      fail("model mismatch " + sample.name);
    } else if (!in_band(sample, it->second)) {
      fail("out of bound " + sample.name + " = " +
           std::to_string(sample.value) + ", truth " +
           std::to_string(it->second.value));
    }
    ++result.checked;
  }
  std::size_t admitted = 0;
  for (const auto& entry : truth) {
    if (admits(filter, entry.first)) ++admitted;
  }
  if (admitted != result.checked) {
    fail("view holds " + std::to_string(result.checked) + " of " +
         std::to_string(admitted) + " admitted entries");
  }
  return result;
}

/// Plants one dropped entry plus one fault per entry kind present in
/// `view` (an exact value off by one, a k-mult value just above its band,
/// a histogram bucket above its truth), each in its own copy, and returns
/// how many the checker let through. `planted` receives the count.
inline unsigned planted_faults_missed(const std::vector<Sample>& view,
                                      const Truth& truth,
                                      const SubscriptionFilter& filter,
                                      unsigned& planted) {
  planted = 0;
  unsigned missed = 0;
  const auto expect_caught = [&](const std::vector<Sample>& corrupted) {
    ++planted;
    if (check_view(corrupted, truth, filter).ok) ++missed;
  };
  bool done_drop = false;
  bool done_exact = false;
  bool done_mult = false;
  bool done_hist = false;
  for (std::size_t i = 0; i < view.size(); ++i) {
    const auto it = truth.find(view[i].name);
    if (it == truth.end()) continue;
    const TruthEntry& t = it->second;
    std::vector<Sample> copy = view;
    if (!done_drop) {
      copy.erase(copy.begin() + static_cast<std::ptrdiff_t>(i));
      expect_caught(copy);
      copy = view;
      done_drop = true;
    }
    if (t.model == ErrorModel::kExact && !done_exact) {
      copy[i].value += 1;
      expect_caught(copy);
      done_exact = true;
    } else if (t.model == ErrorModel::kMultiplicative && !done_mult &&
               t.band_guaranteed && t.value > 0) {
      const std::uint64_t b =
          copy[i].error_bound == 0 ? 1 : copy[i].error_bound;
      copy[i].value = t.value * b + 1;
      expect_caught(copy);
      done_mult = true;
    } else if (t.model == ErrorModel::kHistogram && !done_hist &&
               !t.buckets.empty()) {
      copy[i].bucket_counts[0] = t.buckets[0] + 1;
      expect_caught(copy);
      done_hist = true;
    }
  }
  return missed;
}

}  // namespace perfbench
