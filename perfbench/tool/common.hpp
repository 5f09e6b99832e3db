#pragma once
// Shared pieces of perfbench_tool: the in-memory span recorder used by
// the traced run, the eval-query rendering the load generator and the
// checker must agree on, and small statistics helpers.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "explore/engine.hpp"
#include "explore/scenario.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `start`.
double seconds_since(Clock::time_point start);

/// Records spans in memory — name, start, end, parent, trace id — and
/// writes them out only when asked (at the end of a run), so recording
/// costs two clock reads and one vector push per span.  Spans nest by
/// scope on one thread: a span opened while another is open becomes its
/// child and inherits its trace id; a top-level span starts a new trace.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t parent = -1;  ///< index into spans(), -1 for a root
    std::int64_t trace = 0;    ///< index of the root span of this trace
  };

  /// RAII handle: closes its span when it goes out of scope.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string_view name)
        : tracer_(tracer), id_(tracer.open(name)) {}
    ~Scope() { tracer_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::size_t id_;
  };

  Tracer();

  std::size_t open(std::string_view name);
  void close(std::size_t id);

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Sum of the durations of every span called `name`, in ns.
  double total_ns(std::string_view name) const;
  /// Durations of every span called `name`, in ns, in record order.
  std::vector<double> durations_ns(std::string_view name) const;
  /// Self time per span name (duration minus the time its direct
  /// children cover), in ns, in order of first appearance.
  std::vector<std::pair<std::string, double>> self_ns() const;

  /// One JSON object per span.
  void write_ndjson(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// Scenario recorded in `run_dir`'s meta.json (what serve_cli serves).
mergescale::explore::ScenarioSpec spec_of_run(const std::string& run_dir);

/// The `eval` request line that names `job`'s design point, with every
/// number printed exactly (round-trips through the server's parser).
std::string eval_line(const mergescale::explore::EvalJob& job);

/// The serve `eval` reply for `result` up to and including "source=":
/// the part that does not depend on whether the server hit its archive.
std::string eval_reply_prefix(const mergescale::explore::EvalResult& result);

/// One recorded request/reply pair the checker re-derives in-process.
/// `phase` is "traffic" (sampled from the timed load) or "final" (the
/// closed-loop check batch sent after it); `flat` is the grid point an
/// eval named, -1 for the other query classes.
struct Sample {
  std::string phase;
  std::int64_t flat = -1;
  std::string query;
  std::string reply;
};

/// Length-framed so multi-line replies round-trip byte for byte.
void write_samples(const std::string& path, const std::vector<Sample>& samples);
std::vector<Sample> read_samples(const std::string& path);

/// Median of `values` (0 when empty).
double median(std::vector<double> values);

/// Nearest-rank percentile of `values`: the value at rank ceil(p·n).
/// `beyond` (optional) receives how many samples lie above that rank.
double percentile(std::vector<double> values, double p,
                  std::size_t* beyond = nullptr);

}  // namespace perfbench
