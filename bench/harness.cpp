#include "bench/harness.hpp"

#include <atomic>
#include <cassert>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "base/step_recorder.hpp"
#include "sim/metrics.hpp"
#include "sim/workload.hpp"

namespace approx::bench {
namespace {

void usage(const Experiment& experiment) {
  std::cout << experiment.id << " — " << experiment.title << "\n\n"
            << "Options:\n"
            << "  --scale=F        multiply experiment op counts by F (default 1)\n"
            << "  --seed=N         base PRNG seed (default 42)\n"
            << "  --json           emit a JSON document instead of tables\n"
            << "  --duration-ms=N  measure window for time-based experiments\n"
            << "                   (experiment default when omitted)\n"
            << "  --warmup-ms=N    warmup window for time-based experiments\n"
            << "  --help           this message\n";
}

bool parse_args(int argc, char** argv, Options& options,
                const Experiment& experiment) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--json") {
      options.json = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(experiment);
      std::exit(0);
    } else if (arg.rfind("--scale=", 0) == 0) {
      options.scale = std::strtod(arg.data() + 8, nullptr);
      if (options.scale <= 0.0) return false;
    } else if (arg.rfind("--seed=", 0) == 0) {
      options.seed = std::strtoull(arg.data() + 7, nullptr, 10);
    } else if (arg.rfind("--duration-ms=", 0) == 0) {
      options.duration_ms = std::strtoull(arg.data() + 14, nullptr, 10);
      if (options.duration_ms == 0) return false;  // nothing to measure
    } else if (arg.rfind("--warmup-ms=", 0) == 0) {
      // 0 is a legitimate request: measure cold, no warmup window.
      options.warmup_ms = std::strtoull(arg.data() + 12, nullptr, 10);
    } else {
      return false;
    }
  }
  return true;
}

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 8);
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

void emit_json(const Experiment& experiment, const Report& report,
               std::ostream& out) {
  out << "{\n  \"id\": \"" << json_escape(experiment.id) << "\",\n"
      << "  \"title\": \"" << json_escape(experiment.title) << "\",\n"
      << "  \"workload\": \"" << json_escape(experiment.workload) << "\",\n"
      << "  \"claim\": \"" << json_escape(experiment.claim) << "\",\n"
      << "  \"sections\": [";
  bool first_section = true;
  for (const Report::Section& section : report.sections()) {
    out << (first_section ? "\n" : ",\n") << "    {\n      \"title\": \""
        << json_escape(section.title) << "\",\n      \"columns\": [";
    first_section = false;
    for (std::size_t c = 0; c < section.columns.size(); ++c) {
      out << (c == 0 ? "" : ", ") << '"' << json_escape(section.columns[c])
          << '"';
    }
    out << "],\n      \"rows\": [";
    for (std::size_t r = 0; r < section.rows.size(); ++r) {
      out << (r == 0 ? "\n" : ",\n") << "        [";
      for (std::size_t c = 0; c < section.rows[r].size(); ++c) {
        out << (c == 0 ? "" : ", ") << '"' << json_escape(section.rows[r][c])
            << '"';
      }
      out << ']';
    }
    out << "\n      ]\n    }";
  }
  out << "\n  ]\n}\n";
}

void emit_tables(const Experiment& experiment, const Report& report,
                 std::ostream& out) {
  out << experiment.id << ": " << experiment.title << '\n'
      << "Workload: " << experiment.workload << '\n'
      << "Paper claim: " << experiment.claim << "\n\n";
  for (const Report::Section& section : report.sections()) {
    if (!section.title.empty()) out << section.title << '\n';
    sim::Table table(section.columns);
    for (const auto& row : section.rows) table.add_row(row);
    table.print(out);
    out << '\n';
  }
  out << "Expected shape: " << experiment.expected << '\n';
}

}  // namespace

void Report::Section::add_row(std::vector<std::string> cells) {
  assert(cells.size() == columns.size() &&
         "report row width must match the section's columns");
  rows.push_back(std::move(cells));
}

Report::Section& Report::section(std::vector<std::string> columns,
                                 std::string title) {
  sections_.push_back(Section{std::move(title), std::move(columns), {}});
  return sections_.back();
}

int run_experiment(const Experiment& experiment, int argc, char** argv) {
  Options options;
  if (!parse_args(argc, argv, options, experiment)) {
    usage(experiment);
    return 2;
  }
  Report report;
  experiment.run(options, report);
  if (options.json) {
    emit_json(experiment, report, std::cout);
  } else {
    emit_tables(experiment, report, std::cout);
  }
  return 0;
}

std::string num(double value, int precision) {
  return sim::Table::num(value, precision);
}

std::string num(std::uint64_t value) { return sim::Table::num(value); }

std::uint64_t scaled_ops(const Options& options, std::uint64_t base_ops) {
  const double scaled = static_cast<double>(base_ops) * options.scale;
  return scaled < 1.0 ? 1 : static_cast<std::uint64_t>(scaled);
}

std::chrono::milliseconds duration_or(const Options& options,
                                      std::uint64_t default_ms) {
  return std::chrono::milliseconds(options.duration_ms != Options::kUnsetMs
                                       ? options.duration_ms
                                       : default_ms);
}

std::chrono::milliseconds warmup_or(const Options& options,
                                    std::uint64_t default_ms) {
  return std::chrono::milliseconds(
      options.warmup_ms != Options::kUnsetMs ? options.warmup_ms
                                             : default_ms);
}

double amortized_steps_mixed(sim::ICounter& counter, unsigned n,
                             std::uint64_t total_ops, double read_fraction,
                             std::uint64_t seed) {
  // Unconditional (not assert): a DirectBackend instance would complete
  // and silently report zero steps in release builds.
  if (!counter.instrumented()) {
    throw std::invalid_argument(
        "amortized_steps_mixed: step measurements need an "
        "InstrumentedBackend instance");
  }
  base::StepRecorder recorder;
  sim::Rng rng(seed);
  {
    base::ScopedRecording on(recorder);
    for (std::uint64_t i = 0; i < total_ops; ++i) {
      const auto pid = static_cast<unsigned>(i % n);
      if (rng.chance(read_fraction)) {
        counter.read(pid);
      } else {
        counter.increment(pid);
      }
    }
  }
  return static_cast<double>(recorder.total()) /
         static_cast<double>(total_ops);
}

namespace {

/// Runs `body(pid)` on num_threads OS threads behind a start barrier;
/// returns the wall seconds from barrier release to the last join.
double timed_threads(unsigned num_threads,
                     const std::function<void(unsigned)>& body) {
  std::atomic<unsigned> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(num_threads);
  for (unsigned pid = 0; pid < num_threads; ++pid) {
    threads.emplace_back([&, pid] {
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      body(pid);
    });
  }
  while (ready.load(std::memory_order_acquire) < num_threads) {
    std::this_thread::yield();
  }
  return time_seconds([&] {
    go.store(true, std::memory_order_release);
    for (auto& thread : threads) thread.join();
  });
}

}  // namespace

double counter_throughput_mops(sim::ICounter& counter, unsigned num_threads,
                               std::uint64_t ops_per_thread,
                               std::uint64_t seed, double read_fraction) {
  const double seconds = timed_threads(num_threads, [&](unsigned pid) {
    sim::Rng rng(seed * 0x100000001B3ull + pid + 1);
    for (std::uint64_t i = 0; i < ops_per_thread; ++i) {
      if (rng.chance(read_fraction)) {
        volatile std::uint64_t sink = counter.read(pid);
        (void)sink;
      } else {
        counter.increment(pid);
      }
    }
  });
  return static_cast<double>(ops_per_thread) * num_threads / seconds / 1e6;
}

double max_register_throughput_mops(sim::IMaxRegister& reg,
                                    unsigned num_threads,
                                    std::uint64_t ops_per_thread,
                                    std::uint64_t seed, double read_fraction,
                                    std::uint64_t max_write_value) {
  const double seconds = timed_threads(num_threads, [&](unsigned pid) {
    sim::Rng rng(seed * 0x100000001B3ull + pid + 1);
    for (std::uint64_t i = 0; i < ops_per_thread; ++i) {
      if (rng.chance(read_fraction)) {
        volatile std::uint64_t sink = reg.read();
        (void)sink;
      } else {
        reg.write(rng.log_uniform(max_write_value));
      }
    }
  });
  return static_cast<double>(ops_per_thread) * num_threads / seconds / 1e6;
}

}  // namespace approx::bench
