// `perfbench_tool check`: the benchmark's correctness gate.  Re-derives
// every sampled serve reply in-process from the run directory's own
// records (search::RunLog::load, deduplicated as the server's loader
// does) with the same renderers explore_cli's report uses —
// explore::best_line, to_table(top_k), to_table(pareto_frontier) — and
// byte-compares.  `eval` replies are compared against a fresh in-process
// evaluation of the named grid point; every evaluated point must also be
// durable (present in the run directory after the server stopped).
//
// Known defect, counted and reported, not failed: the report's
// reductions order by (speedup, index) — plus cost for the frontier —
// and break full ties by input order (top_k is a partial_sort).  An
// adaptive run logs batch-local indices, so two records can tie fully
// (a symmetric core of size r and the asymmetric chip with r = rl are
// the same design, with the same speedup), and the server's reduction
// (archive engine's top-k, then the delta) may order or pick them
// differently from the reduction over RunLog::load's order.  A reply
// that differs from the expected bytes only by such a tie — same rows
// up to the choice among fully tied records — counts as `tie_order`.

#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "explore/report.hpp"
#include "search/run_log.hpp"
#include "search/space.hpp"
#include "serve/protocol.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

namespace perfbench {

namespace {

namespace ms = mergescale;
namespace mx = mergescale::explore;

std::string framed(ms::serve::QueryKind kind, const std::string& payload) {
  return ms::serve::ok_header(kind, ms::serve::count_lines(payload)) +
         payload + "END\n";
}

/// Whitespace-normalized data rows of a rendered table (after the
/// dashed rule under the header).
std::vector<std::string> table_rows(const std::string& text) {
  std::vector<std::string> rows;
  std::istringstream in(text);
  bool body = false;
  for (std::string line; std::getline(in, line);) {
    if (!body) {
      body = !line.empty() && line.find_first_not_of('-') == std::string::npos;
      continue;
    }
    if (line == "END") break;
    std::istringstream cells(line);
    std::string row;
    for (std::string cell; cells >> cell;) row += (row.empty() ? "" : " ") + cell;
    rows.push_back(row);
  }
  return rows;
}

/// Records by their rendering, so a reply's rows can be traced back to
/// the records they show.
class RowIndex {
 public:
  explicit RowIndex(const std::vector<mx::EvalResult>& records)
      : records_(records) {
    const std::vector<std::string> rows =
        table_rows(mx::to_table(records).to_text());
    for (std::size_t i = 0; i < rows.size(); ++i) by_row_[rows[i]].push_back(i);
    for (std::size_t i = 0; i < records.size(); ++i) {
      by_best_[mx::best_line(records[i])].push_back(i);
    }
  }

  /// Whether `reply`'s table shows, row for row, records with the same
  /// ordering key as `expected` — the same answer up to full ties.
  bool same_up_to_ties(const std::string& reply,
                       const std::vector<mx::EvalResult>& expected,
                       std::optional<mx::CostMetric> metric) const {
    const std::vector<std::string> rows = table_rows(reply);
    if (rows.size() != expected.size()) return false;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto it = by_row_.find(rows[i]);
      if (it == by_row_.end()) return false;
      bool tied = false;
      for (const std::size_t r : it->second) {
        tied = tied || same_key(records_[r], expected[i], metric);
      }
      if (!tied) return false;
    }
    return true;
  }

  /// Same for a `best` reply's line.
  bool best_up_to_ties(const std::string& reply,
                       const mx::EvalResult& expected) const {
    const std::size_t begin = reply.find('\n') + 1;
    const auto it =
        by_best_.find(reply.substr(begin, reply.find('\n', begin) - begin));
    if (it == by_best_.end()) return false;
    for (const std::size_t r : it->second) {
      if (same_key(records_[r], expected, std::nullopt)) return true;
    }
    return false;
  }

 private:
  static bool same_key(const mx::EvalResult& a, const mx::EvalResult& b,
                       std::optional<mx::CostMetric> metric) {
    return a.feasible && a.speedup == b.speedup && a.index == b.index &&
           (!metric || mx::cost_of(a, *metric) == mx::cost_of(b, *metric));
  }

  const std::vector<mx::EvalResult>& records_;
  std::map<std::string, std::vector<std::size_t>> by_row_;
  std::map<std::string, std::vector<std::size_t>> by_best_;
};

std::string pareto_title(mx::CostMetric metric) {
  return std::string("Pareto frontier (speedup vs. ") +
         (metric == mx::CostMetric::kCoreArea ? "core area" : "core count") +
         ")";
}

}  // namespace

int run_check(int argc, const char* const* argv) {
  ms::util::Cli cli("perfbench_tool check",
                    "byte-compare sampled serve replies against in-process "
                    "answers over the same run directory");
  cli.opt("run-dir", std::string(), "run directory the server served");
  cli.opt("samples", std::string(), "samples file written by `load`");
  cli.flag("read-only",
           "the workload never misses: every sampled eval must be an "
           "archive hit, and replies sampled during the traffic must "
           "match the final records too");
  if (!cli.parse(argc, argv)) return 0;

  const std::string dir = cli.get_string("run-dir");
  const bool read_only = cli.get_flag("read-only");
  const std::vector<mx::EvalResult> records =
      ms::search::RunLog::dedup(ms::search::RunLog::load(dir));
  const mx::ScenarioSpec spec = spec_of_run(dir);
  const ms::search::SearchSpace space(spec);
  mx::EngineOptions options;
  options.threads = 1;
  mx::ExploreEngine durable(options);
  ms::search::RunLog::warm(records, spec, durable);

  // Built on the first byte mismatch only: indexing every record's
  // rendering costs seconds on a big archive.
  std::optional<RowIndex> rows;
  auto index = [&]() -> const RowIndex& {
    if (!rows) rows.emplace(records);
    return *rows;
  };

  // Expected replies by query: the records do not change during the
  // check, and a reduction over a big archive costs milliseconds.
  std::map<std::string, std::string> rendered;

  std::size_t checked = 0;
  std::size_t skipped = 0;
  std::size_t tie_order = 0;
  std::size_t mismatches = 0;
  std::string first_mismatch;
  for (const Sample& sample : read_samples(cli.get_string("samples"))) {
    const bool traffic = sample.phase == "traffic";
    std::string expected;
    bool ok = false;
    if (sample.flat >= 0) {
      mx::EvalJob job;
      if (!space.job_at(space.decode(static_cast<std::uint64_t>(sample.flat)),
                        &job)) {
        throw std::runtime_error("sample names an invalid grid point");
      }
      const mx::EvalResult fresh = mx::evaluate_job(job, nullptr, false);
      const std::string prefix =
          ms::serve::ok_header(ms::serve::QueryKind::kEval, 1) +
          eval_reply_prefix(fresh);
      const bool live_allowed = traffic && !read_only;
      ok = durable.cache().contains(mx::cache_key(job.request)) &&
           (sample.reply == prefix + "archive\nEND\n" ||
            (live_allowed && sample.reply == prefix + "live\nEND\n"));
      expected = prefix + (live_allowed ? "archive|live" : "archive") +
                 "\nEND\n";
    } else {
      if (traffic && !read_only) {
        ++skipped;  // the records grew after this reply was sent
        continue;
      }
      if (const auto it = rendered.find(sample.query);
          it != rendered.end() && it->second == sample.reply) {
        ++checked;
        continue;
      }
      std::istringstream in(sample.query);
      std::string command;
      std::string arg;
      in >> command >> arg;
      bool tied = false;
      if (command == "best") {
        const mx::EvalResult* best = mx::best_result(records);
        if (best == nullptr) throw std::runtime_error("no feasible record");
        expected = framed(ms::serve::QueryKind::kBest,
                          mx::best_line(*best) + "\n");
        tied = sample.reply != expected &&
               index().best_up_to_ties(sample.reply, *best);
      } else if (command == "topk") {
        const auto top = mx::top_k(records, std::stoul(arg));
        expected = framed(ms::serve::QueryKind::kTopK,
                          mx::to_table(top).to_text("top-k designs by speedup"));
        tied = sample.reply != expected &&
               index().same_up_to_ties(sample.reply, top, std::nullopt);
      } else if (command == "pareto") {
        const mx::CostMetric metric = arg == "area"
                                          ? mx::CostMetric::kCoreArea
                                          : mx::CostMetric::kCoreCount;
        const auto frontier = mx::pareto_frontier(records, metric);
        expected = framed(ms::serve::QueryKind::kPareto,
                          mx::to_table(frontier).to_text(pareto_title(metric)));
        tied = sample.reply != expected &&
               index().same_up_to_ties(sample.reply, frontier, metric);
      } else {
        throw std::runtime_error("unexpected sampled query: " + sample.query);
      }
      rendered[sample.query] = expected;
      ok = sample.reply == expected;
      if (!ok && tied) {
        ok = true;
        ++tie_order;
      }
    }
    ++checked;
    if (!ok) {
      if (mismatches == 0) {
        first_mismatch = sample.query + "\n--- got\n" + sample.reply +
                         "--- expected\n" + expected;
      }
      ++mismatches;
    }
  }
  std::cout << "{\"checked\":" << checked << ",\"skipped\":" << skipped
            << ",\"tie_order\":" << tie_order
            << ",\"mismatches\":" << mismatches << ",\"records\":"
            << records.size() << ",\"first_mismatch\":\""
            << ms::util::json_escape(first_mismatch) << "\"}\n";
  return mismatches == 0 && checked > 0 ? 0 : 1;
}

}  // namespace perfbench
