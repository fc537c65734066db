// Tests for the helping mechanism (paper lines 45–55) — the component
// that makes CounterRead wait-free. Natural thread scheduling almost
// never engages it (E13 measures this), so these tests drive the
// documented adversarial schedule deterministically with StepScheduler.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "core/approx.hpp"
#include "core/kmult_counter.hpp"
#include "sim/stepper.hpp"
#include "sim/workload.hpp"

namespace approx::core {
namespace {

TEST(Helping, SequentialReadsNeverHelp) {
  KMultCounter counter(4, 2);
  for (int i = 0; i < 5000; ++i) {
    counter.increment(static_cast<unsigned>(i) % 4);
    (void)counter.read(3);
  }
  for (unsigned pid = 0; pid < 4; ++pid) {
    EXPECT_EQ(counter.reads_via_helping(pid), 0u) << pid;
  }
}

// The adversary the helping mechanism defends against: the reader gets
// one step per `period` steps; otherwise the LOWEST-numbered runnable
// writer runs. Concentrating steps on one writer makes that writer's
// announce sequence number advance repeatedly while the reader's read is
// in flight — exactly the sn−help ≥ 2 witness of paper line 52.
sim::SchedulePicker biased_picker(unsigned reader, unsigned period) {
  auto grants = std::make_shared<std::uint64_t>(0);
  return [grants, reader,
          period](const std::vector<unsigned>& runnable) -> unsigned {
    *grants += 1;
    bool reader_runnable = false;
    unsigned lowest_writer = reader;
    for (unsigned pid : runnable) {
      if (pid == reader) {
        reader_runnable = true;
      } else if (lowest_writer == reader || pid < lowest_writer) {
        lowest_writer = pid;
      }
    }
    if (reader_runnable &&
        (lowest_writer == reader || *grants % period == 0)) {
      return reader;
    }
    return lowest_writer;
  };
}

TEST(Helping, EngagesUnderReaderStarvedSchedule) {
  // Deterministic: same seed, same programs ⇒ same interleaving. The
  // reader is granted 1 of every 8 steps while writer 0 floods; its
  // reads chase the switch frontier and must eventually return through
  // the helping array. Values must stay inside the band of the
  // [completed-at-invoke, started-at-response] window regardless.
  constexpr unsigned kN = 4;
  const std::uint64_t k = 2;
  KMultCounter counter(kN, k);
  bool any_read_done = false;
  std::vector<std::function<void()>> programs;
  for (unsigned pid = 0; pid + 1 < kN; ++pid) {
    programs.emplace_back([&, pid] {
      for (int i = 0; i < 4000; ++i) counter.increment(pid);
    });
  }
  programs.emplace_back([&] {
    for (int i = 0; i < 30; ++i) {
      (void)counter.read(kN - 1);
      any_read_done = true;
    }
  });
  sim::StepScheduler::run(std::move(programs),
                          biased_picker(kN - 1, 8));
  EXPECT_TRUE(any_read_done);
  EXPECT_GE(counter.reads_via_helping(kN - 1), 1u)
      << "the biased schedule never drove a read through the helping "
         "path — the adversarial scenario needs retuning";
}

TEST(Helping, CorrectedVariantEngagesToo) {
  constexpr unsigned kN = 4;
  const std::uint64_t k = 2;
  KMultCounterCorrected counter(kN, k);
  std::vector<std::function<void()>> programs;
  for (unsigned pid = 0; pid + 1 < kN; ++pid) {
    programs.emplace_back([&, pid] {
      for (int i = 0; i < 4000; ++i) counter.increment(pid);
    });
  }
  std::vector<std::uint64_t> reads;
  programs.emplace_back([&] {
    for (int i = 0; i < 30; ++i) reads.push_back(counter.read(kN - 1));
  });
  sim::StepScheduler::run(std::move(programs),
                          biased_picker(kN - 1, 8));
  EXPECT_GE(counter.reads_via_helping(kN - 1), 1u);
  // All reads happened inside the increment flood: every value must be
  // within the band of [0, 12000].
  for (const std::uint64_t x : reads) {
    EXPECT_LE(core::mult_band_v_min(x, k), 12000u) << x;
  }
  // Successive reads may dip when a helping return decoded an interior
  // switch position, but never by more than the band allows: with
  // v₂ ≥ v₁ (counts only grow), x₂ ≥ v₂/k ≥ v₁/k ≥ x₁/k².
  for (std::size_t i = 1; i < reads.size(); ++i) {
    EXPECT_GE(base::sat_mul(reads[i], k * k), reads[i - 1]) << i;
  }
}

}  // namespace
}  // namespace approx::core
