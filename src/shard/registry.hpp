// registry.hpp — concurrent named-counter registry: the telemetry fleet.
//
// The "millions of users" scenario in miniature: a service tracks many
// named statistics (requests, errors, bytes, …), each a sharded
// approximate counter, and a monitoring plane periodically snapshots
// them all. The registry owns the counters and provides
//
//   * create(name, spec)  — get-or-create; idempotent on the name (the
//     first spec wins), so racing workers can lazily materialize the
//     counter they are about to bump;
//   * lookup(name)        — a binary search of the name-sorted table
//     under the shared lock; returned handles stay valid for the
//     registry's lifetime (entries are never destroyed before the
//     registry — the table only grows);
//   * snapshot_all(pid)   — one Sample per counter, carrying the value
//     together with its error model + composed bound, so consumers can
//     interpret every figure without knowing how it was configured;
//   * snapshot_all_into(pid, out, version) — the single-pass form the
//     aggregator drives: the registry keeps one name-sorted flat table
//     of (name, instrument, model, bound) rows — each row owns its
//     instrument, and the table changes only by sorted inserts on
//     create — and this pass walks that table once, writing each
//     counter's fresh value into the caller's existing Sample storage.
//     Names, models and bounds are constant per counter, so they are
//     copied only when the registry's version changed since the
//     caller's last pass — a steady-state frame is one read per shard
//     of every counter and zero allocations, instead of the string
//     copies + virtual metadata hops the allocating form pays (E16
//     measures the difference);
//   * collect_tick — the delta channel the service layer (src/svc)
//     consumes. The sequenced collect is one sweep of the flat table
//     into a TickRecord: every row's value, the vector rows' readings,
//     every row's change stamp (the pass that last changed its
//     reading) and the immutable name table of this registry version
//     (built once per create, shared by every pass after it). The
//     stamps come from two tracking columns per row (last collected
//     reading, stamp) that the same sweep maintains, so any delta — a
//     group's per-tick one or a lagging subscriber's catch-up from its
//     acknowledged sequence — is read from one immutable record: the
//     rows stamped after its basis, at their positions in a selection
//     (a subscription filter's matches, the index space of a filtered
//     wire name table). for_each_changed_since walks the same columns
//     live, for callers without a record. Both collect forms share one
//     per-row reader. The sweep reads only the rows that may have
//     moved (see Marks); every other row copies its tracking columns.
//
// Marks: the sequenced collect's cost follows publishes, not rows. A
// relaxed counter changes what its read returns only when it publishes
// — an Algorithm 1 increment that wins a switch, a k-additive slot
// write — and each reports that (see the counters' "publish report").
// The erased k-mult and k-additive rows and the stats layer's histogram
// rows then set their bit in a packed bitmap of 64-bit words (one release
// RMW, see RowMark), indexed by creation order; a new row starts marked.
// collect_tick first exchanges every nonzero word (acquire), then reads
// the rows whose bits it took, plus the rows that cannot mark: exact
// rows (every increment publishes, so they stay on the sweep), top-k
// rows and the `__sys/` views of the server's own instruments. A publish
// that lands after the exchange stays marked for the next pass. A
// fresh stream (see collect_tick) reads every row.
//
// A k-mult read that returns through the helping witness (paper lines
// 50–55) may return less than its scan would have, and more on its next
// scan with no new win, so the read marks its row again. The witness's
// own announce marks the row only once its increment returns; the
// re-mark keeps the next pass from waiting on that process.
//
// Counter kinds are erased behind `AnyCounter` so one fleet can mix
// multiplicative, additive and exact striping; the virtual hop is
// negligible against the shared-memory operations behind it (same
// argument as sim/adapters.hpp).
//
// Vector-valued entries: a fleet row may instead be a histogram — a
// fixed vector of bucket counters behind the `AnyHistogram` interface
// (implemented by the stats layer; the dependency stays stats → shard).
// Histogram rows live in the same name-sorted flat table, carry model
// kHistogram with error_bound = the composed per-bucket slack, and a
// collect pass snapshots their bucket vector into Sample::bucket_counts
// (bounds are constant and copied only on version change). Change
// tracking compares whole bucket vectors, so an idle histogram
// contributes nothing to a delta walk.
//
// Locking note: the shared_mutex serializes only create/lookup/
// snapshot-all against each other. increment()/read() on a handle never
// touch the registry — the hot path stays wait-free.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "base/backend.hpp"
#include "base/kmath.hpp"
#include "base/segmented_array.hpp"
#include "shard/sharded_counter.hpp"

namespace approx::shard {

/// Human-readable tag for an error model ("exact", "mult", "add", …).
[[nodiscard]] const char* error_model_name(ErrorModel model) noexcept;

/// Names under this prefix are reserved for the service's own
/// self-observability entries (src/obs): user-facing registration
/// (get_or_create / add_histogram / add_topk) rejects them with an
/// error return, so fleet counters can never collide with or spoof
/// server internals. The privileged add_reserved adder requires it.
inline constexpr std::string_view kReservedPrefix = "__sys/";

/// True iff `name` lives under the reserved self-observability prefix.
[[nodiscard]] inline bool is_reserved_name(std::string_view name) noexcept {
  return name.substr(0, kReservedPrefix.size()) == kReservedPrefix;
}

/// Configuration of one registry counter.
struct CounterSpec {
  ErrorModel model = ErrorModel::kMultiplicative;
  std::uint64_t k = 2;  // per-shard accuracy parameter (ignored: exact)
  unsigned shards = 1;
  ShardPolicy policy = ShardPolicy::kHashPinned;
};

/// One entry's reading in a snapshot-all pass. Scalar entries leave the
/// bucket vectors empty; histogram entries (model kHistogram) carry the
/// B−1 finite upper edges + B bucket counts, with `value` the saturated
/// sum of the counts and `error_bound` the per-BUCKET one-sided slack.
/// Top-k entries (model kTopK) carry value-descending rows as
/// `top_labels` with the matching row values in `bucket_counts`
/// (bucket_bounds stays empty); `value` is the top row's value (0 when
/// empty) and `error_bound` is 0 — max-register rows are exact.
struct Sample {
  std::string name;
  std::uint64_t value = 0;
  ErrorModel model = ErrorModel::kExact;
  std::uint64_t error_bound = 0;
  std::vector<std::uint64_t> bucket_bounds;  // constant per entry
  std::vector<std::uint64_t> bucket_counts;  // refreshed every pass
  std::vector<std::string> top_labels;       // kTopK rows, refreshed
};

/// One sequenced collect pass (RegistryT::collect_tick) over the
/// registry's name table at `registry_version`. Nothing in it changes
/// after the pass, so one record can be shared by every consumer of the
/// pass (the snapshot server hands it to each filter group).
struct TickRecord {
  /// A vector row's reading: histogram bucket counts, or top-k row
  /// values in `counts` with the matching ranked `labels`.
  struct Reading {
    std::uint64_t row = 0;
    std::vector<std::uint64_t> counts;
    std::vector<std::string> labels;  // top-k rows only
  };

  std::uint64_t pass_seq = 0;
  std::uint64_t registry_version = 0;
  /// Name, model, bound and histogram edges of every row, values unset;
  /// shared by every pass until the next create.
  std::shared_ptr<const std::vector<Sample>> names;
  std::vector<std::uint64_t> values;  // every row's value
  std::vector<Reading> vectors;       // histogram and top-k rows, ascending
  /// Every row's stamp: the pass that last changed its reading (0 =
  /// never; a top-k stays unstamped until its first row lands).
  std::vector<std::uint64_t> changed_seq;

  /// Calls `fn(position, row)` for each row of `selection` (ascending
  /// flat rows; null = every row, position = row) stamped after `since`,
  /// in ascending order. position is the row's index within the
  /// selection: the wire index of that selection's name table.
  template <typename Fn>
  void for_each_changed(const std::vector<std::uint64_t>* selection,
                        std::uint64_t since, Fn&& fn) const {
    const std::size_t count =
        selection != nullptr ? selection->size() : changed_seq.size();
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t row =
          selection != nullptr ? static_cast<std::size_t>((*selection)[i]) : i;
      if (changed_seq[row] > since) fn(i, row);
    }
  }

  /// Materializes rows as Samples into `out`: every row, or only the
  /// rows of `selection` (ascending) — names from the table, values and
  /// readings from this pass.
  void rows_into(const std::vector<std::uint64_t>* selection,
                 std::vector<Sample>& out) const {
    out.resize(selection != nullptr ? selection->size() : values.size());
    auto reading = vectors.begin();
    for (std::size_t i = 0; i < out.size(); ++i) {
      const std::size_t row =
          selection != nullptr ? static_cast<std::size_t>((*selection)[i]) : i;
      out[i] = (*names)[row];
      out[i].value = values[row];
      while (reading != vectors.end() && reading->row < row) ++reading;
      if (reading != vectors.end() && reading->row == row) {
        out[i].bucket_counts = reading->counts;
        out[i].top_labels = reading->labels;
      }
    }
  }
};

/// A row's bit in its registry's mark bitmap (see RegistryT). A row
/// whose instrument reports its publishes sets it after each operation
/// that may have changed what the row's read returns; the sequenced
/// collect reads only the rows whose bits it took. Unbound (null word)
/// until the registry binds it at create.
struct RowMark {
  std::atomic<std::uint64_t>* word = nullptr;
  std::uint64_t bit = 0;

  /// One release RMW on a raw atomic, never an instrumented step: the
  /// mark is bookkeeping beside the paper's algorithms, like the epoch
  /// machinery. It pairs with the collect's acquire exchange, so a pass
  /// that takes the bit reads the row after the publish.
  template <typename Backend>
  void set() const noexcept {
    if (word != nullptr) {
      word->fetch_or(bit, Backend::order(base::OrderRole::kRmwAcqRel));
    }
  }
};

/// Type-erased vector-valued instrument (histogram) held by the
/// registry. Implemented by src/stats (see stats/histogram.hpp); the
/// registry only needs enough surface to collect and describe it.
class AnyHistogram {
 public:
  virtual ~AnyHistogram() = default;
  virtual void record(unsigned pid, std::uint64_t value) = 0;
  virtual void snapshot_into(unsigned pid,
                             std::vector<std::uint64_t>& counts) = 0;
  virtual void flush(unsigned pid) = 0;
  [[nodiscard]] virtual const std::vector<std::uint64_t>& bucket_bounds()
      const = 0;
  [[nodiscard]] virtual std::uint64_t per_bucket_bound() const = 0;
  /// Hands the row its mark, once, at create. Returns false for an
  /// instrument that never marks (a view of another instrument): the
  /// collect then reads its row every pass.
  virtual bool bind_mark(RowMark /*mark*/) { return false; }
};

/// Type-erased labeled top-k directory held by the registry (see
/// stats/topk.hpp for the wait-free implementation; the dependency
/// stays stats → shard). Rows are (label, value) max-registers: values
/// only grow, reads are exact. A collect pass snapshots the ranked
/// rows into Sample::top_labels / Sample::bucket_counts.
class AnyTopK {
 public:
  virtual ~AnyTopK() = default;
  /// Raises `label`'s value to at least `value`. Returns false when the
  /// directory is full and the label absent (the update is dropped) —
  /// or unconditionally for server-owned reserved entries, which are
  /// read-only views of the server's own instruments.
  virtual bool update(unsigned pid, std::string_view label,
                      std::uint64_t value) = 0;
  /// Ranked snapshot: rows value-descending (label-ascending ties) into
  /// the parallel vectors, at most capacity() rows.
  virtual void snapshot_into(std::vector<std::string>& labels,
                             std::vector<std::uint64_t>& values) = 0;
  [[nodiscard]] virtual std::size_t capacity() const = 0;
};

/// Type-erased sharded counter held by the registry.
class AnyCounter {
 public:
  virtual ~AnyCounter() = default;
  virtual void increment(unsigned pid) = 0;
  virtual std::uint64_t read(unsigned pid) = 0;
  virtual void flush(unsigned pid) = 0;
  [[nodiscard]] virtual ErrorModel error_model() const = 0;
  [[nodiscard]] virtual std::uint64_t error_bound() const = 0;
  [[nodiscard]] virtual unsigned num_shards() const = 0;
  [[nodiscard]] virtual bool accuracy_guaranteed() const = 0;
  /// As AnyHistogram::bind_mark.
  virtual bool bind_mark(RowMark /*mark*/) { return false; }
};

namespace detail {

template <template <typename> class CounterTmpl, typename Backend>
class ErasedSharded final : public AnyCounter {
 public:
  ErasedSharded(unsigned n, std::uint64_t k, unsigned shards,
                ShardPolicy policy)
      : counter_(n, k, shards, policy) {}
  void increment(unsigned pid) override {
    const bool published = counter_.increment(pid);
    if constexpr (kMarks) {
      if (published) mark_.set<Backend>();
    }
  }
  std::uint64_t read(unsigned pid) override {
    if constexpr (requires { counter_.reads_via_helping(pid); }) {
      // A read that returned through the helping witness may return more
      // on its next scan with no new win: keep the row marked for it
      // (see "Marks" in the header).
      const std::uint64_t helped = counter_.reads_via_helping(pid);
      const std::uint64_t value = counter_.read(pid);
      if (counter_.reads_via_helping(pid) != helped) mark_.set<Backend>();
      return value;
    } else {
      return counter_.read(pid);
    }
  }
  void flush(unsigned pid) override {
    if (counter_.flush(pid)) mark_.set<Backend>();
  }
  [[nodiscard]] ErrorModel error_model() const override {
    return counter_.error_model();
  }
  [[nodiscard]] std::uint64_t error_bound() const override {
    return counter_.error_bound();
  }
  [[nodiscard]] unsigned num_shards() const override {
    return counter_.num_shards();
  }
  [[nodiscard]] bool accuracy_guaranteed() const override {
    return counter_.accuracy_guaranteed();
  }
  bool bind_mark(RowMark mark) override {
    if constexpr (kMarks) mark_ = mark;
    return kMarks;
  }
  [[nodiscard]] ShardedCounterT<CounterTmpl, Backend>& impl() noexcept {
    return counter_;
  }

 private:
  // Every exact increment publishes, so an exact row would mark on each
  // one; it stays on the collect's per-pass sweep instead.
  static constexpr bool kMarks =
      ShardedCounterT<CounterTmpl, Backend>::error_model() !=
      ErrorModel::kExact;

  ShardedCounterT<CounterTmpl, Backend> counter_;
  RowMark mark_;
};

}  // namespace detail

/// Named-counter registry over a fixed pid space. Thread-safe; see the
/// header comment for the locking contract.
template <typename Backend = base::InstrumentedBackend>
class RegistryT {
 public:
  using backend_type = Backend;

  /// @param num_processes pid space shared by every counter created
  ///   here (one thread per pid, including any aggregator thread).
  explicit RegistryT(unsigned num_processes)
      : n_(num_processes), version_(instance_nonce()) {}

  RegistryT(const RegistryT&) = delete;
  RegistryT& operator=(const RegistryT&) = delete;

  /// Get-or-create the counter `name`. Idempotent: a second call with
  /// the same name returns the existing counter (its original spec
  /// wins). The pointer stays valid for the registry's lifetime.
  /// Returns nullptr — never UB — when the name is rejected: it lives
  /// under the reserved `__sys/` prefix (self-observability entries go
  /// through the privileged add_reserved) or is already taken by a
  /// different instrument kind.
  AnyCounter* get_or_create(const std::string& name, const CounterSpec& spec) {
    if (is_reserved_name(name)) return nullptr;
    std::unique_lock lock(mutex_);
    return insert_locked<AnyCounter>(name, [&] { return make_counter(spec); });
  }

  /// Reference-returning convenience over get_or_create for names the
  /// caller knows are valid (not reserved, kind-consistent). A rejected
  /// name is a caller bug: asserts in debug builds and deterministically
  /// aborts in release — error-returning callers use get_or_create.
  AnyCounter& create(const std::string& name, const CounterSpec& spec) {
    AnyCounter* counter = get_or_create(name, spec);
    assert(counter != nullptr &&
           "create(): reserved __sys/ name or kind collision");
    if (counter == nullptr) std::abort();
    return *counter;
  }

  /// Privileged get-or-create for a reserved `__sys/` entry of kind
  /// `Instrument` (AnyCounter, AnyHistogram or AnyTopK) — the
  /// self-observability layer's entry point; requires a reserved name.
  /// `make` is invoked under the exclusive lock only when the name is
  /// new and must return a std::unique_ptr to an `Instrument`. Returns
  /// nullptr iff the name is not reserved or is taken by another kind.
  template <typename Instrument, typename Factory>
  Instrument* add_reserved(const std::string& name, Factory&& make) {
    if (!is_reserved_name(name)) return nullptr;
    std::unique_lock lock(mutex_);
    return insert_locked<Instrument>(name, std::forward<Factory>(make));
  }

  /// The counter registered under `name`, or nullptr.
  [[nodiscard]] AnyCounter* lookup(const std::string& name) const {
    std::shared_lock lock(mutex_);
    return find_locked<AnyCounter>(name);
  }

  /// Get-or-create the vector-valued entry `name`. `make` is invoked
  /// (under the exclusive lock) only when the name is new and must
  /// return a std::unique_ptr<AnyHistogram>; like get_or_create(), a
  /// second call with the same name returns the existing instrument and
  /// the first spec wins. Returns nullptr — never UB — when the name is
  /// reserved (`__sys/`) or already taken by another instrument kind.
  template <typename Factory>
  AnyHistogram* add_histogram(const std::string& name, Factory&& make) {
    if (is_reserved_name(name)) return nullptr;
    std::unique_lock lock(mutex_);
    return insert_locked<AnyHistogram>(name, std::forward<Factory>(make));
  }

  /// The histogram registered under `name`, or nullptr.
  [[nodiscard]] AnyHistogram* lookup_histogram(const std::string& name) const {
    std::shared_lock lock(mutex_);
    return find_locked<AnyHistogram>(name);
  }

  /// Get-or-create the labeled top-k entry `name` (same contract as
  /// add_histogram; `make` returns a std::unique_ptr<AnyTopK>). Returns
  /// nullptr — never UB — when the name is reserved (`__sys/`) or
  /// already taken by another instrument kind.
  template <typename Factory>
  AnyTopK* add_topk(const std::string& name, Factory&& make) {
    if (is_reserved_name(name)) return nullptr;
    std::unique_lock lock(mutex_);
    return insert_locked<AnyTopK>(name, std::forward<Factory>(make));
  }

  /// The top-k entry registered under `name`, or nullptr.
  [[nodiscard]] AnyTopK* lookup_topk(const std::string& name) const {
    std::shared_lock lock(mutex_);
    return find_locked<AnyTopK>(name);
  }

  /// Reads every registered counter (as process `pid`) into one
  /// name-sorted batch of samples. Allocating convenience form of
  /// snapshot_all_into.
  [[nodiscard]] std::vector<Sample> snapshot_all(unsigned pid) const {
    std::vector<Sample> samples;
    (void)snapshot_all_into(pid, samples, 0);  // 0 never matches version_
    return samples;
  }

  /// Single-pass collect (see header): refreshes `out` in place with one
  /// read per counter. `cached_version` is the value a previous call
  /// returned for this same `out` (0 initially); when it still matches
  /// the registry, the constant fields (name/model/bound) are reused and
  /// the pass only writes values. Returns the version `out` now reflects.
  std::uint64_t snapshot_all_into(unsigned pid, std::vector<Sample>& out,
                                  std::uint64_t cached_version) const {
    std::shared_lock lock(mutex_);
    if (cached_version != version_ || out.size() != flat_.size()) {
      out.resize(flat_.size());
      for (std::size_t i = 0; i < flat_.size(); ++i) describe(flat_[i], out[i]);
    }
    for (std::size_t i = 0; i < flat_.size(); ++i) {
      out[i].value = read_row(flat_[i], pid, &out[i].bucket_counts,
                              &out[i].top_labels);
    }
    return version_;
  }

  /// The sequenced collect (see header): one sweep over every row as
  /// process `pid` into `tick`, which it overwrites. It reads a row only
  /// when the row may have moved since its last read: its mark was set
  /// (see "Marks" in the header), it cannot mark, or the pass starts a
  /// fresh stream; every other row copies its last value, stamp and
  /// vector reading. A row whose reading differs from the previous
  /// sequenced pass — a row created since that pass does, unless it is a
  /// still-empty top-k (see Entry) — is stamped with `pass_seq`, and
  /// tick.changed_seq copies every row's stamp. Takes the exclusive lock
  /// (it writes the tracking columns); the plain shared-lock passes are
  /// unaffected.
  ///
  /// Single-sequencer contract: the tracking columns form ONE change
  /// stream, so exactly one party (in practice the serving AggregatorT,
  /// which already serializes its passes) may drive sequenced collects
  /// on a registry, with monotonically increasing pass_seq. A pass_seq
  /// at or below the previous pass's starts a fresh stream (a restarted
  /// server's new aggregator numbers from 1 again): every stamp of the
  /// old stream is dropped, or it would read as a change in every delta
  /// until the new numbering caught up, and every row is read. Concurrent
  /// sequenced collects from independent sequence domains are memory-safe
  /// (exclusive lock) but interleave their seqs into one meaningless
  /// stream.
  void collect_tick(unsigned pid, std::uint64_t pass_seq,
                    TickRecord& tick) const {
    std::unique_lock lock(mutex_);
    if (!names_) {  // the first sweep since a create
      auto names = std::make_shared<std::vector<Sample>>(flat_.size());
      for (std::size_t i = 0; i < flat_.size(); ++i) {
        describe(flat_[i], (*names)[i]);
      }
      names_ = std::move(names);
    }
    tick.pass_seq = pass_seq;
    tick.registry_version = version_;
    tick.names = names_;
    tick.values.resize(flat_.size());
    tick.vectors.clear();
    tick.changed_seq.resize(flat_.size());
    const bool fresh_stream = pass_seq <= last_pass_seq_;
    take_marks();  // before any read: a later publish stays marked
    for (std::size_t row = 0; row < flat_.size(); ++row) {
      const Entry& entry = flat_[row];
      TickRecord::Reading* reading = nullptr;
      if (entry.template as<AnyCounter>() == nullptr) {
        reading = &tick.vectors.emplace_back();
        reading->row = row;
      }
      if (fresh_stream) entry.changed_seq = 0;
      if (!fresh_stream && !taken(entry.mark)) {
        // Nothing published since its last read: that read still holds.
        tick.values[row] = entry.last_value;
        if (reading != nullptr) reading->counts = entry.cold->last_counts;
        tick.changed_seq[row] = entry.changed_seq;
        continue;
      }
      const std::uint64_t value =
          read_row(entry, pid, reading ? &reading->counts : nullptr,
                   reading ? &reading->labels : nullptr);
      tick.values[row] = value;
      if (reading == nullptr ? value != entry.last_value
                             : reading->counts != entry.cold->last_counts ||
                                   reading->labels != entry.cold->last_labels) {
        if (reading != nullptr) {
          entry.cold->last_counts = reading->counts;
          entry.cold->last_labels = reading->labels;
        }
        entry.last_value = value;
        entry.changed_seq = pass_seq;
      }
      tick.changed_seq[row] = entry.changed_seq;
    }
    last_pass_seq_ = pass_seq;
  }

  /// Invokes `fn(index, name, value, changed_seq, counts, labels)` for
  /// every flat-table entry whose value changed in a sequenced pass with
  /// sequence > `seq` (index = position in the name-sorted table, i.e.
  /// the wire name-table index; value = the one the latest completed
  /// pass collected, NOT a fresh read; counts = pointer to that pass's
  /// bucket vector for a histogram entry — or its row-value vector for
  /// a top-k entry — nullptr for a scalar; labels = the top-k row labels,
  /// nullptr for every other kind). An unchanged fleet yields no calls:
  /// the empty delta. The live form of TickRecord::for_each_changed,
  /// for callers that hold no record of the pass.
  ///
  /// The walk is only meaningful against the name table the caller
  /// believes in: if the registry's version no longer equals
  /// `expected_version` (a create shifted the name-sorted indices),
  /// nothing is visited and nullopt is returned — the caller must fall
  /// back to a full snapshot. Otherwise returns the sequence of the
  /// last completed sequenced pass, which is the exact fleet state the
  /// reported values describe (sequenced passes are mutually exclusive
  /// with this walk, so a delta labeled with the returned sequence is
  /// complete: no entry can carry a change from a half-finished pass).
  template <typename Fn>
  std::optional<std::uint64_t> for_each_changed_since(
      std::uint64_t seq, std::uint64_t expected_version, Fn&& fn) const {
    std::shared_lock lock(mutex_);
    if (version_ != expected_version) return std::nullopt;
    for (std::size_t i = 0; i < flat_.size(); ++i) {
      const Entry& entry = flat_[i];
      if (entry.changed_seq > seq) {
        fn(i, entry.cold->name, entry.last_value, entry.changed_seq,
           entry.changed_counts(), entry.changed_labels());
      }
    }
    return last_pass_seq_;
  }

  /// Monotone counter bumped by every create; snapshot_all_into callers
  /// use it to skip re-copying the constant sample fields. Seeded with a
  /// per-instance nonce (high bits), so a cached version from one
  /// registry never matches another registry — a frame reused across
  /// registries always takes the full refresh path instead of silently
  /// keeping the first registry's names/bounds.
  [[nodiscard]] std::uint64_t version() const {
    std::shared_lock lock(mutex_);
    return version_;
  }

  /// Total registered entries (scalar counters + histograms).
  [[nodiscard]] std::size_t size() const {
    std::shared_lock lock(mutex_);
    return flat_.size();
  }

  [[nodiscard]] unsigned num_processes() const noexcept { return n_; }

 private:
  /// A row's constants, cached at create time, and the last collected
  /// reading of a vector row: what a collect pass reads only on a
  /// create or for a changed vector row.
  struct Cold {
    std::string name;
    ErrorModel model = ErrorModel::kExact;
    std::uint64_t error_bound = 0;
    std::vector<std::uint64_t> last_counts;  // histogram/topk rows
    std::vector<std::string> last_labels;    // topk only
  };

  /// One row of the flat snapshot table: the instrument it owns plus
  /// what every collect pass touches, inline; everything else behind
  /// `cold`. A sorted insert moves every later row, and this keeps each
  /// move to a few words (instruments are never destroyed or
  /// reconfigured before the registry; a move keeps every handle).
  struct Entry {
    std::variant<std::unique_ptr<AnyCounter>, std::unique_ptr<AnyHistogram>,
                 std::unique_ptr<AnyTopK>>
        instrument;
    // Change-tracking columns (with cold->last_counts/last_labels),
    // written only by sequenced collects under the exclusive lock
    // (mutable: those collects are const like every snapshot pass).
    // last_value starts at an impossible counter value so a new entry's
    // first sequenced pass always registers a change (a histogram's
    // empty last_counts plays the same role: a real snapshot always has
    // ≥ 2 buckets; an empty top-k has nothing to delta until its first
    // row lands, which then differs).
    mutable std::uint64_t last_value = kNeverCollected;
    mutable std::uint64_t changed_seq = 0;
    std::unique_ptr<Cold> cold;
    /// The row's bit in marks_ (its index among the marking rows, in
    /// creation order), or kNoMark for a row that cannot mark.
    std::uint32_t mark = kNoMark;

    /// The row's instrument if it is an `Instrument`, else nullptr.
    template <typename Instrument>
    [[nodiscard]] Instrument* as() const noexcept {
      const auto* held = std::get_if<std::unique_ptr<Instrument>>(&instrument);
      return held != nullptr ? held->get() : nullptr;
    }

    /// The payload pointers a changed-since walk reports: bucket counts
    /// double as top-k row values.
    [[nodiscard]] const std::vector<std::uint64_t>* changed_counts()
        const noexcept {
      return as<AnyCounter>() == nullptr ? &cold->last_counts : nullptr;
    }
    [[nodiscard]] const std::vector<std::string>* changed_labels()
        const noexcept {
      return as<AnyTopK>() != nullptr ? &cold->last_labels : nullptr;
    }
  };

  /// The per-row reader both collect forms share: a counter row's value,
  /// or a vector row's reading into *counts (and *labels for a top-k
  /// row; both non-null for vector rows) and the value derived from it —
  /// a histogram's saturated count sum, a top-k's top row (0 when
  /// empty).
  static std::uint64_t read_row(const Entry& entry, unsigned pid,
                                std::vector<std::uint64_t>* counts,
                                std::vector<std::string>* labels) {
    if (AnyCounter* counter = entry.template as<AnyCounter>()) {
      return counter->read(pid);
    }
    if (AnyTopK* topk = entry.template as<AnyTopK>()) {
      topk->snapshot_into(*labels, *counts);
      return counts->empty() ? 0 : counts->front();
    }
    entry.template as<AnyHistogram>()->snapshot_into(pid, *counts);
    std::uint64_t total = 0;
    for (const std::uint64_t count : *counts) {
      total = base::sat_add(total, count);
    }
    return total;
  }

  /// A row's constant fields (name, model, bound, histogram edges), with
  /// the per-pass fields cleared.
  static void describe(const Entry& entry, Sample& out) {
    out.name = entry.cold->name;
    out.model = entry.cold->model;
    out.error_bound = entry.cold->error_bound;
    if (const AnyHistogram* hist = entry.template as<AnyHistogram>()) {
      out.bucket_bounds = hist->bucket_bounds();
    } else {
      out.bucket_bounds.clear();
    }
    out.bucket_counts.clear();
    out.top_labels.clear();
  }

  /// Index of `name`'s row in flat_, or of where it would be inserted.
  [[nodiscard]] std::size_t position_locked(const std::string& name) const {
    return static_cast<std::size_t>(
        std::lower_bound(flat_.begin(), flat_.end(), name,
                         [](const Entry& entry, const std::string& key) {
                           return entry.cold->name < key;
                         }) -
        flat_.begin());
  }

  /// The `Instrument` registered under `name`; nullptr when the name is
  /// absent or held by another kind. Caller holds mutex_.
  template <typename Instrument>
  [[nodiscard]] Instrument* find_locked(const std::string& name) const {
    const std::size_t pos = position_locked(name);
    if (pos == flat_.size() || flat_[pos].cold->name != name) return nullptr;
    return flat_[pos].template as<Instrument>();
  }

  /// The one registration path (caller holds the exclusive lock):
  /// returns the `Instrument` already registered under `name`; nullptr
  /// without running `make` when another kind holds the name; otherwise
  /// inserts a row owning `make()`'s instrument (nullptr = none) at its
  /// name-sorted position and bumps the version.
  template <typename Instrument, typename Factory>
  Instrument* insert_locked(const std::string& name, Factory&& make) {
    const std::size_t pos = position_locked(name);
    if (pos < flat_.size() && flat_[pos].cold->name == name) {
      return flat_[pos].template as<Instrument>();
    }
    std::unique_ptr<Instrument> made = make();
    Instrument* const handle = made.get();
    if (handle == nullptr) return nullptr;  // the factory declined
    Entry entry;
    entry.cold = std::make_unique<Cold>();
    Cold& cold = *entry.cold;
    cold.name = name;
    if constexpr (std::is_same_v<Instrument, AnyCounter>) {
      cold.model = handle->error_model();
      cold.error_bound = handle->error_bound();
    } else if constexpr (std::is_same_v<Instrument, AnyHistogram>) {
      cold.model = ErrorModel::kHistogram;
      cold.error_bound = handle->per_bucket_bound();
    } else {
      cold.model = ErrorModel::kTopK;  // max-register rows are exact
    }
    if constexpr (!std::is_same_v<Instrument, AnyTopK>) {
      const std::uint32_t id = marking_rows_;
      std::atomic<std::uint64_t>& word = marks_.at(id / 64);
      const std::uint64_t bit = std::uint64_t{1} << (id % 64);
      if (handle->bind_mark({&word, bit})) {
        // Born marked: the first pass after the create reads the row.
        word.fetch_or(bit, std::memory_order_relaxed);  // under mutex_
        entry.mark = id;
        ++marking_rows_;
      }
    }
    entry.instrument = std::move(made);
    flat_.insert(flat_.begin() + static_cast<std::ptrdiff_t>(pos),
                 std::move(entry));
    ++version_;
    names_.reset();  // the next sequenced collect rebuilds it
    return handle;
  }

  std::unique_ptr<AnyCounter> make_counter(const CounterSpec& spec) const {
    switch (spec.model) {
      case ErrorModel::kMultiplicative:
        return std::make_unique<
            detail::ErasedSharded<core::KMultCounterCorrectedT, Backend>>(
            n_, spec.k, spec.shards, spec.policy);
      case ErrorModel::kAdditive:
        return std::make_unique<
            detail::ErasedSharded<core::KAdditiveCounterT, Backend>>(
            n_, spec.k, spec.shards, spec.policy);
      case ErrorModel::kExact:
      default:
        return std::make_unique<
            detail::ErasedSharded<exact::FetchAddCounterT, Backend>>(
            n_, spec.k, spec.shards, spec.policy);
    }
  }

  /// Takes every mark set since the previous pass into taken_: one
  /// acquire exchange per nonzero word (see RowMark::set). Caller holds
  /// the exclusive lock.
  void take_marks() const {
    taken_.resize((marking_rows_ + 63) / 64);
    for (std::size_t w = 0; w < taken_.size(); ++w) {
      std::atomic<std::uint64_t>& word = marks_.at(w);
      taken_[w] =
          word.load(Backend::order(base::OrderRole::kLoadRelaxed)) == 0
              ? 0
              : word.exchange(0, Backend::order(base::OrderRole::kRmwAcqRel));
    }
  }

  /// Whether this pass must read a row with mark `mark`: it cannot mark,
  /// or take_marks() took its bit.
  [[nodiscard]] bool taken(std::uint32_t mark) const noexcept {
    return mark == kNoMark || ((taken_[mark / 64] >> (mark % 64)) & 1) != 0;
  }

  /// Counters count up from 0; ~0 marks "no sequenced pass yet".
  static constexpr std::uint64_t kNeverCollected = ~std::uint64_t{0};
  static constexpr std::uint32_t kNoMark = ~std::uint32_t{0};

  /// Process-unique version seed per registry instance (see version()).
  /// Never 0, so a zero cached_version always misses.
  static std::uint64_t instance_nonce() {
    static std::atomic<std::uint64_t> next{1};
    return (next.fetch_add(1, std::memory_order_relaxed) << 32) | 1;
  }

  unsigned n_;
  mutable std::shared_mutex mutex_;
  std::vector<Entry> flat_;  // name-sorted; each row owns its instrument
  std::uint64_t version_;    // nonce-seeded, bumped per create (never 0)
  mutable std::uint64_t last_pass_seq_ = 0;  // newest completed sequenced pass
  /// The name table of version_ that sequenced collects hand out: built
  /// by the first one after a create (exclusive lock), null until then.
  mutable std::shared_ptr<const std::vector<Sample>> names_;
  /// The mark bitmap: bit i%64 of word i/64 is the i-th marking row's
  /// (creation order, so a sorted insert moves no bit). Words never move
  /// — instruments hold pointers into it — and rows share them, packed.
  mutable base::SegmentedArray<std::atomic<std::uint64_t>, 64> marks_;
  std::uint32_t marking_rows_ = 0;
  mutable std::vector<std::uint64_t> taken_;  // the last take_marks()
};

/// The model-faithful default instantiation (matches the repo-wide
/// convention of un-suffixed names pinning InstrumentedBackend).
using Registry = RegistryT<base::InstrumentedBackend>;

extern template class RegistryT<base::DirectBackend>;
extern template class RegistryT<base::RelaxedDirectBackend>;
extern template class RegistryT<base::InstrumentedBackend>;

}  // namespace approx::shard
