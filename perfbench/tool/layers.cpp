// `perfbench_tool layers`: the traced per-layer run.  Calls each module's
// public functions from outside, over the run directory the end-to-end
// journey left behind, with a span around every call; the per-layer
// metrics are read off the spans.
//
// Inside ExploreEngine::run the layers are not separately reachable, so
// the engine's work is replayed chunk by chunk through the same public
// steps its workers take — explore::cache_keys, MemoCache::lookup_block,
// core::evaluate_batch, MemoCache::insert_block — and the engine's own
// run over the same chunks is timed at 1, 2 and 4 threads.  What the
// parts do not account for (dispatch, fork/join, result fill, merge) is
// the engine overhead.
//
// The sweep replays explore_cli's own 512-job chunks of the expanded
// scenario against a cold cache.  The anneal replays batches of the size
// an annealing round submits (one point per walker), drawn from the
// whole grid, against a cache warmed with the recorded run.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/eval_batch.hpp"
#include "explore/report.hpp"
#include "search/archive.hpp"
#include "search/run_log.hpp"
#include "search/space.hpp"
#include "search/strategy.hpp"
#include "serve/archive.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

namespace ms = mergescale;
namespace mx = mergescale::explore;
namespace fs = std::filesystem;

using Metrics = std::vector<std::pair<std::string, double>>;

/// Annealing walkers, as the benchmark's `anneal` workload runs explore_cli.
constexpr std::size_t kWalkers = 8;

/// Job blocks as the engine sees them: each block's indices restart at 0.
struct Chunks {
  std::vector<mx::EvalJob> jobs;
  std::vector<std::pair<std::size_t, std::size_t>> ranges;  ///< [begin, end)

  std::span<const mx::EvalJob> chunk(std::size_t c) const {
    return std::span<const mx::EvalJob>(jobs).subspan(
        ranges[c].first, ranges[c].second - ranges[c].first);
  }
};

void cut(Chunks& chunks, std::size_t size) {
  for (std::size_t begin = 0; begin < chunks.jobs.size(); begin += size) {
    const std::size_t end = std::min(begin + size, chunks.jobs.size());
    for (std::size_t i = begin; i < end; ++i) chunks.jobs[i].index = i - begin;
    chunks.ranges.emplace_back(begin, end);
  }
}

mx::EvalOutcome to_outcome(const std::optional<ms::core::DesignPoint>& point) {
  if (!point || !std::isfinite(point->speedup)) return mx::EvalOutcome{};
  return mx::EvalOutcome{true, *point};
}

/// One engine chunk through the public steps of the engine's miss path.
void replay_chunk(Tracer& tracer, std::span<const mx::EvalJob> chunk,
                  mx::MemoCache& cache, mx::BatchScratch& scratch) {
  Tracer::Scope span(tracer, "explore.engine.replay_chunk");
  scratch.keys.resize(chunk.size());
  scratch.outcomes.resize(chunk.size());
  scratch.hits.resize(chunk.size());
  {
    Tracer::Scope s(tracer, "explore.cache_keys");
    mx::cache_keys(chunk, scratch.keys);
  }
  {
    Tracer::Scope s(tracer, "explore.memo.lookup_block");
    cache.lookup_block(scratch.keys, scratch.outcomes, scratch.hits);
  }
  scratch.miss_requests.clear();
  scratch.miss_keys.clear();
  for (std::size_t i = 0; i < chunk.size(); ++i) {
    if (scratch.hits[i]) continue;
    scratch.miss_requests.push_back(&chunk[i].request);
    scratch.miss_keys.push_back(scratch.keys[i]);
  }
  scratch.miss_points.assign(scratch.miss_requests.size(), std::nullopt);
  {
    Tracer::Scope s(tracer, "core.evaluate_batch");
    ms::core::evaluate_batch(
        std::span<const ms::core::EvalRequest* const>(scratch.miss_requests),
        scratch.miss_points, scratch.batch);
  }
  scratch.miss_outcomes.clear();
  for (const auto& point : scratch.miss_points) {
    scratch.miss_outcomes.push_back(to_outcome(point));
  }
  if (!scratch.miss_keys.empty()) {
    Tracer::Scope s(tracer, "explore.memo.insert_block");
    cache.insert_block(scratch.miss_keys, scratch.miss_outcomes);
  }
}

/// Median duration of the spans called `name`, in `unit_ns` units.
double median_of(const Tracer& tracer, const std::string& name,
                 double unit_ns) {
  return median(tracer.durations_ns(name)) / unit_ns;
}

}  // namespace

int run_layers(int argc, const char* const* argv) {
  ms::util::Cli cli("perfbench_tool layers",
                    "traced per-layer run over a finished benchmark journey");
  cli.opt("run-dir", std::string(), "the journey's (archived) run directory");
  cli.opt("work", std::string(), "scratch directory for this run");
  cli.opt("workload", std::string("sweep"), "sweep | anneal");
  cli.opt("search-budget", static_cast<long long>(20000),
          "unique evaluations for the timed run_search");
  cli.opt("seed", static_cast<long long>(1), "run_search seed");
  cli.opt("trace-out", std::string(), "write the spans here (NDJSON)");
  if (!cli.parse(argc, argv)) return 0;

  const Clock::time_point started = Clock::now();
  const std::string dir = cli.get_string("run-dir");
  const fs::path work = cli.get_string("work");
  const bool sweep = cli.get_string("workload") == "sweep";
  fs::create_directories(work);
  Tracer tracer;
  Metrics metrics;
  auto put = [&](std::string name, double value) {
    metrics.emplace_back(std::move(name), value);
  };

  const mx::ScenarioSpec spec = spec_of_run(dir);
  const ms::search::SearchSpace space(spec);

  // ---- persisted records: load + warm (serve start-up) ----------------
  std::vector<mx::EvalResult> records;
  {
    Tracer::Scope s(tracer, "search.run_log.load");
    records = ms::search::RunLog::dedup(ms::search::RunLog::load(dir));
  }
  put("search.run_log.load_s", tracer.total_ns("search.run_log.load") / 1e9);
  {
    mx::ExploreEngine engine(mx::EngineOptions{1, true, 16});
    Tracer::Scope s(tracer, "search.run_log.warm");
    ms::search::RunLog::warm(records, spec, engine);
  }
  put("search.run_log.warm_s", tracer.total_ns("search.run_log.warm") / 1e9);

  // ---- materialization ------------------------------------------------
  Chunks chunks;
  {
    Tracer::Scope s(tracer, "explore.expand");
    chunks.jobs = spec.expand();
  }
  put("explore.expand.ns_per_point",
      tracer.total_ns("explore.expand") / double(chunks.jobs.size()));
  if (sweep) {
    cut(chunks, 512);  // explore_cli's run_chunked chunk
  } else {
    // Annealing rounds: one candidate per walker, drawn over the grid.
    const std::size_t points = std::min<std::size_t>(chunks.jobs.size(),
                                                     100000);
    ms::util::Xoshiro256 rng(static_cast<std::uint64_t>(cli.get_int("seed")));
    chunks.jobs.clear();
    while (chunks.jobs.size() < points) {
      mx::EvalJob job;
      if (space.job_at(space.decode(rng.bounded(space.size())), &job)) {
        chunks.jobs.push_back(std::move(job));
      }
    }
    cut(chunks, kWalkers);
  }
  const double points = double(chunks.jobs.size());
  auto fresh_engine = [&](int threads) {
    auto engine = std::make_unique<mx::ExploreEngine>(
        mx::EngineOptions{threads, true, 16});
    if (!sweep) ms::search::RunLog::warm(records, spec, *engine);
    return engine;
  };

  // ---- engine parts, one by one ---------------------------------------
  {
    auto engine = fresh_engine(1);
    mx::MemoCache& cache = engine->cache();
    const auto before = cache.stats();
    mx::BatchScratch scratch;
    for (std::size_t c = 0; c < chunks.ranges.size(); ++c) {
      replay_chunk(tracer, chunks.chunk(c), cache, scratch);
    }
    const auto after = cache.stats();
    const double lookups = double(after.hits + after.misses -
                                  before.hits - before.misses);
    if (sweep) {
      put("explore.memo.hit_ratio",
          double(after.hits - before.hits) / lookups);
    }
    put("explore.memo.lookup_ns_per_key",
        tracer.total_ns("explore.memo.lookup_block") / lookups);
    put("explore.memo.insert_ns_per_key",
        tracer.total_ns("explore.memo.insert_block") /
            double(after.misses - before.misses));
  }
  put("explore.cache_keys.ns_per_point",
      tracer.total_ns("explore.cache_keys") / points);
  put("core.evaluate_batch.ns_per_point",
      tracer.total_ns("core.evaluate_batch") / points);
  const double parts_ns = tracer.total_ns("explore.cache_keys") +
                          tracer.total_ns("explore.memo.lookup_block") +
                          tracer.total_ns("core.evaluate_batch") +
                          tracer.total_ns("explore.memo.insert_block");

  // ---- the engine itself over the same chunks --------------------------
  std::map<int, double> run_ns;
  for (const int threads : {1, 2, 4}) {
    auto engine = fresh_engine(threads);
    const std::string name =
        "explore.engine.run." + std::to_string(threads) + "t";
    for (std::size_t c = 0; c < chunks.ranges.size(); ++c) {
      const std::span<const mx::EvalJob> chunk = chunks.chunk(c);
      std::vector<mx::EvalResult> results(chunk.size());
      Tracer::Scope s(tracer, name);
      engine->run(chunk, results);
    }
    run_ns[threads] = tracer.total_ns(name);
    put("explore.engine.run.ns_per_point." + std::to_string(threads) + "t",
        run_ns[threads] / points);
  }
  // Overhead is counted in thread-time: at N threads the parts could at
  // best fill N × wall.
  put("explore.engine.overhead_frac.1t", 1.0 - parts_ns / run_ns[1]);
  put("explore.engine.overhead_frac.2t", 1.0 - parts_ns / (2.0 * run_ns[2]));
  put("explore.engine.scaling.2t", run_ns[1] / run_ns[2]);
  chunks = Chunks{};

  // ---- run log: append (buffer) and flush (encode + write) -------------
  {
    const fs::path log_dir = work / "runlog";
    ms::search::RunLogOptions options{ms::search::LogFormat::kBinary,
                                      std::size_t{1} << 40};
    ms::search::RunLog log(log_dir.string(), options);
    constexpr std::size_t kGroup = 1024;  // explore_cli --flush-every
    for (std::size_t begin = 0; begin < records.size(); begin += kGroup) {
      const std::size_t end = std::min(begin + kGroup, records.size());
      {
        Tracer::Scope s(tracer, "search.run_log.append");
        for (std::size_t i = begin; i < end; ++i) log.append(records[i]);
      }
      Tracer::Scope s(tracer, "search.run_log.flush");
      log.flush();
    }
    const double groups = double((records.size() + kGroup - 1) / kGroup);
    put("search.run_log.append_ns_per_record",
        tracer.total_ns("search.run_log.append") / double(records.size()));
    put("search.run_log.flush_us_per_group",
        tracer.total_ns("search.run_log.flush") / groups / 1e3);
    put("search.run_log.bytes_per_record",
        double(fs::file_size(ms::search::RunLog::binary_results_path(
            log_dir.string()))) /
            double(records.size()));
  }

  // ---- report: export and frontier -------------------------------------
  {
    Tracer::Scope s(tracer, "explore.report.export");
    std::ofstream csv(work / "report.csv");
    mx::write_csv(csv, records);
    std::ofstream ndjson(work / "report.ndjson");
    mx::write_ndjson(ndjson, records);
  }
  put("explore.report.export_ns_per_row",
      tracer.total_ns("explore.report.export") / double(records.size()));
  {
    Tracer::Scope s(tracer, "explore.report.frontier");
    const auto top = mx::top_k(records, 5);
    const auto frontier =
        mx::pareto_frontier(records, mx::CostMetric::kCoreArea);
  }
  put("explore.report.frontier_ms",
      tracer.total_ns("explore.report.frontier") / 1e6);

  // ---- adaptive search -------------------------------------------------
  {
    mx::ExploreEngine engine(mx::EngineOptions{2, true, 16});
    ms::search::RunLog log((work / "search").string(),
                           {ms::search::LogFormat::kBinary, 1024});
    ms::search::SearchOptions options;
    options.strategy = ms::search::Strategy::kAnneal;
    options.budget = static_cast<std::uint64_t>(cli.get_int("search-budget"));
    options.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    options.walkers = kWalkers;
    ms::search::SearchOutcome outcome;
    {
      Tracer::Scope s(tracer, "search.run_search");
      outcome = ms::search::run_search(engine, space, options, &log);
      log.flush();
    }
    const auto stats = engine.cache().stats();
    const double lookups = double(stats.hits + stats.misses);
    put("search.run_search.ns_per_proposal",
        tracer.total_ns("search.run_search") / double(outcome.proposals));
    put("search.run_search.proposals_per_unique",
        double(outcome.proposals) / double(outcome.evaluations));
    put("search.run_search.mean_batch",
        lookups / double(std::max<std::size_t>(1, outcome.trace.size())));
    if (!sweep) put("explore.memo.hit_ratio", double(stats.hits) / lookups);
  }

  // ---- archive: encode, open, queries ----------------------------------
  {
    Tracer::Scope s(tracer, "search.archive.encode");
    const std::string bytes = ms::search::encode_archive(records);
  }
  put("search.archive.encode_ns_per_row",
      tracer.total_ns("search.archive.encode") / double(records.size()));
  const std::string archive_path = ms::search::RunLog::archive_path(dir);
  for (int rep = 0; rep < 20; ++rep) {
    Tracer::Scope s(tracer, "search.archive.open");
    ms::search::ArchiveReader::open(archive_path);
  }
  put("search.archive.open_ms", median_of(tracer, "search.archive.open", 1e6));
  {
    const auto reader = ms::search::ArchiveReader::open(archive_path);
    for (int rep = 0; rep < 100; ++rep) {
      {
        Tracer::Scope s(tracer, "search.archive.best");
        reader.best();
      }
      Tracer::Scope s(tracer, "search.archive.top_k");
      reader.top_k(10);
    }
    for (int rep = 0; rep < 9; ++rep) {
      {
        Tracer::Scope s(tracer, "search.archive.pareto.area");
        reader.pareto(mx::CostMetric::kCoreArea);
      }
      Tracer::Scope s(tracer, "search.archive.pareto.cores");
      reader.pareto(mx::CostMetric::kCoreCount);
    }
  }
  put("search.archive.best_us", median_of(tracer, "search.archive.best", 1e3));
  put("search.archive.top_k_us",
      median_of(tracer, "search.archive.top_k", 1e3));
  put("search.archive.pareto_us.area",
      median_of(tracer, "search.archive.pareto.area", 1e3));
  put("search.archive.pareto_us.cores",
      median_of(tracer, "search.archive.pareto.cores", 1e3));

  // ---- serve, in process --------------------------------------------
  // Over a copy of the archive as the server found it at start-up (no
  // live evaluations yet), so appends land in the copy and the state
  // matches what the TCP latencies mostly saw.
  {
    const fs::path copy = work / "serve";
    fs::create_directories(copy);
    fs::copy(ms::search::RunLog::meta_path(dir), copy);
    fs::copy(archive_path, copy);
    ms::serve::Archive archive = ms::serve::load_archive(copy.string());
    mx::ExploreEngine engine(mx::EngineOptions{2, true, 16});
    ms::search::RunLog::warm(archive.records, archive.spec, engine);
    ms::search::RunLog log(copy.string(), {ms::search::LogFormat::kNdjson, 1});
    ms::serve::QueryServer server(std::move(archive), engine, &log,
                                  ms::serve::ServerOptions{});

    // Eval lines: recorded points (hits) and the same points moved off
    // the recorded grid (n + 0.5: misses, so live evaluations).
    ms::util::Xoshiro256 rng(static_cast<std::uint64_t>(cli.get_int("seed")));
    std::vector<std::string> hits;
    std::vector<std::string> misses;
    while (hits.size() < 200 || misses.size() < 200) {
      mx::EvalJob job;
      if (!space.job_at(space.decode(rng.bounded(space.size())), &job)) {
        continue;
      }
      if (hits.size() < 200 &&
          engine.cache().contains(mx::cache_key(job.request))) {
        hits.push_back(eval_line(job));
      } else if (misses.size() < 200) {
        job.request.chip.n += 0.5;
        misses.push_back(eval_line(job));
      }
    }
    const std::vector<std::pair<std::string, std::vector<std::string>>>
        classes = {{"best", {"best"}},
                   {"topk", {"topk 5", "topk 10", "topk 20"}},
                   {"eval", hits},
                   {"stats", {"stats"}},
                   {"pareto", {"pareto area", "pareto cores"}},
                   {"eval_miss", misses}};
    for (const auto& [name, lines] : classes) {
      const int reps = name == "pareto" ? 10 : 200;
      const std::string span = "serve.execute_line." + name;
      for (int rep = 0; rep < reps; ++rep) {
        const std::string& line = lines[static_cast<std::size_t>(rep) %
                                        lines.size()];
        Tracer::Scope s(tracer, span);
        const std::string reply = server.execute_line(line);
        if (reply.rfind("OK ", 0) != 0) {
          throw std::runtime_error("in-process `" + line + "` failed: " +
                                   reply);
        }
      }
      put("serve.execute_line_us." + name, median_of(tracer, span, 1e3));
    }

    std::vector<std::string> mix = {"best", "topk 10", "pareto area",
                                    "stats"};
    mix.insert(mix.end(), hits.begin(), hits.begin() + 20);
    std::size_t parsed = 0;
    {
      Tracer::Scope s(tracer, "serve.parse_query");
      std::string error;
      for (int rep = 0; rep < 200; ++rep) {
        for (const std::string& line : mix) {
          parsed += ms::serve::parse_query(line, &error).has_value() ? 1 : 0;
        }
      }
    }
    put("serve.parse_query_ns",
        tracer.total_ns("serve.parse_query") / double(parsed));
  }
  fs::remove_all(work / "serve");

  // ---- tracing overhead: what recording this run's spans cost ----------
  const double traced_s = seconds_since(started);
  {
    Tracer probe;
    constexpr int kProbes = 100000;
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < kProbes; ++i) Tracer::Scope s(probe, "probe");
    const double span_ns = seconds_since(start) * 1e9 / kProbes;
    put("trace.span_ns", span_ns);
    put("trace.overhead_frac",
        span_ns * double(tracer.spans().size()) / (traced_s * 1e9));
  }

  // ---- write out the trace and the self-time table ---------------------
  if (const std::string path = cli.get_string("trace-out"); !path.empty()) {
    tracer.write_ndjson(path);
  }
  double total_self = 0.0;
  const auto self = tracer.self_ns();
  for (const auto& [name, ns] : self) total_self += ns;
  for (const auto& [name, ns] : self) {
    std::printf("self %-40s %10.2f ms %5.1f%%\n", name.c_str(), ns / 1e6,
                100.0 * ns / total_self);
  }
  std::printf("spans %zu\n", tracer.spans().size());
  std::ostringstream out;
  out.precision(10);
  out << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i == 0 ? "" : ",") << "\"" << metrics[i].first
        << "\":" << metrics[i].second;
  }
  out << "}";
  std::cout << out.str() << std::endl;
  return 0;
}

}  // namespace perfbench
