// metricsz.cpp — see metricsz.hpp.
#include "obs/metricsz.hpp"

#include <string>
#include <vector>

#include "base/kmath.hpp"
#include "stats/quantile.hpp"

namespace approx::obs {

namespace {

void append_u64(std::string& out, std::uint64_t v) {
  out.append(std::to_string(v));
}

/// One cumulative-bucket histogram block, Prometheus layout:
/// `_bucket{le="edge"}` lines (cumulative), `le="+Inf"`, `_count`, and
/// a rank-error-bounded p50/p90/p99 comment derived on the spot.
void append_histogram(std::string& out, const std::string& name,
                      const shard::Sample& sample) {
  out.append("# TYPE ").append(name).append(" histogram\n");
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < sample.bucket_counts.size(); ++b) {
    cumulative = base::sat_add(cumulative, sample.bucket_counts[b]);
    out.append(name).append("_bucket{le=\"");
    if (b < sample.bucket_bounds.size()) {
      append_u64(out, sample.bucket_bounds[b]);
    } else {
      out.append("+Inf");
    }
    out.append("\"} ");
    append_u64(out, cumulative);
    out.push_back('\n');
  }
  out.append(name).append("_count ");
  append_u64(out, cumulative);
  out.push_back('\n');
  const stats::QuantileView view(sample);
  if (view.valid() && view.total() > 0) {
    out.append("# ").append(name).append(" p50<=");
    append_u64(out, view.p50().upper_edge);
    out.append(" p90<=");
    append_u64(out, view.p90().upper_edge);
    out.append(" p99<=");
    append_u64(out, view.p99().upper_edge);
    out.append(" rank_err<=");
    append_u64(out, view.rank_error_bound());
    out.push_back('\n');
  }
}

}  // namespace

std::string metricsz_name(const std::string& entry_name) {
  std::string name;
  std::size_t start = 0;
  if (shard::is_reserved_name(entry_name)) {
    name = "approx_sys_";
    start = shard::kReservedPrefix.size();
  } else {
    name = "approx_";
  }
  for (std::size_t i = start; i < entry_name.size(); ++i) {
    const char c = entry_name[i];
    const bool word = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9');
    name.push_back(word ? c : '_');
  }
  return name;
}

std::size_t render_metricsz(const std::vector<shard::Sample>& samples,
                            const TraceRing* trace, std::string& out) {
  out.clear();
  std::size_t rendered = 0;
  for (const shard::Sample& sample : samples) {
    if (!shard::is_reserved_name(sample.name)) continue;
    ++rendered;
    const std::string name = metricsz_name(sample.name);
    out.append("# ").append(sample.name).append(" model=")
        .append(shard::error_model_name(sample.model))
        .append(" bound=");
    append_u64(out, sample.error_bound);
    out.push_back('\n');
    switch (sample.model) {
      case shard::ErrorModel::kHistogram:
        append_histogram(out, name, sample);
        break;
      case shard::ErrorModel::kTopK:
        out.append("# TYPE ").append(name).append(" gauge\n");
        for (std::size_t i = 0; i < sample.top_labels.size(); ++i) {
          out.append(name).append("{label=\"");
          // Labels are peer addresses (digits, dots, colons) — anything
          // that could break the quoting is replaced defensively.
          for (const char c : sample.top_labels[i]) {
            out.push_back((c == '"' || c == '\\' || c == '\n') ? '_' : c);
          }
          out.append("\"} ");
          append_u64(out,
                     i < sample.bucket_counts.size() ? sample.bucket_counts[i]
                                                     : 0);
          out.push_back('\n');
        }
        break;
      default:
        // Scalars (the server's exact counters and gauges) render as
        // one value line; the model comment above carries the
        // interpretation.
        out.append("# TYPE ").append(name).append(" gauge\n");
        out.append(name).push_back(' ');
        append_u64(out, sample.value);
        out.push_back('\n');
        break;
    }
  }
  if (trace != nullptr) {
    std::vector<TraceEvent> events;
    trace->snapshot(events);
    const std::size_t first = events.size() > kMetricszTraceTail
                                  ? events.size() - kMetricszTraceTail
                                  : 0;
    const std::uint64_t newest = events.empty() ? 0 : events.back().ns;
    for (std::size_t i = first; i < events.size(); ++i) {
      out.append("# trace [-");
      append_u64(out, (newest - events[i].ns) / 1000);
      out.append("us] ").append(trace_kind_name(events[i].kind));
      out.append(" a=");
      append_u64(out, events[i].a);
      out.append(" b=");
      append_u64(out, events[i].b);
      out.push_back('\n');
    }
  }
  return rendered;
}

}  // namespace approx::obs
