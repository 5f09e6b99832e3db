// bench_serve_throughput: queries/sec of the serving layer over a
// warmed archive, the perf anchor for exploration-as-a-service.  Worker
// threads hammer the full in-process query path — parse, archive scan /
// memo-cache hit, rendering — first from one client thread, then from
// --clients threads.  The many-client figure must hold at least half the
// one-client figure (the load test's no-collapse criterion).
//
// The socket layer is deliberately bypassed (QueryServer::execute_line):
// this bench isolates what the serving core can sustain; transport cost
// is the saturation test's and CI smoke job's concern.  Emits
// BENCH_serve.json for the CI perf archive.
//
//   ./build/bench_serve_throughput --seconds 0.5 --clients 8

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/app_params.hpp"
#include "explore/engine.hpp"
#include "search/run_log.hpp"
#include "serve/archive.hpp"
#include "serve/server.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace mergescale;

namespace {

/// The archive every regime serves: an asymmetric sweep big enough that
/// topk/pareto scans do real work, warmed into the engine's memo cache
/// exactly as serve_cli startup would.
serve::Archive make_archive(explore::ExploreEngine& engine) {
  explore::ScenarioSpec spec;
  spec.name = "serve-bench";
  spec.apps = {core::presets::kmeans(), core::presets::fuzzy(),
               core::presets::hop()};
  spec.growths = {core::GrowthFunction::linear(),
                  core::GrowthFunction::logarithmic()};
  spec.variants = {core::ModelVariant::kAsymmetric};
  spec.chip_budgets = {128.0, 256.0};
  spec.small_core_sizes = {1.0, 2.0, 4.0, 8.0, 16.0};
  spec.sizes = {2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0};

  serve::Archive archive;
  archive.dir = "(in-memory)";
  archive.config = "bench";
  archive.spec = spec;
  archive.records = engine.run(spec);
  search::RunLog::warm(archive.records, spec, engine);
  return archive;
}

/// Queries/sec of `clients` threads driving the mixed workload through
/// one server for `seconds` of wall clock.
double hammer(serve::QueryServer& server, int clients, double seconds) {
  const std::vector<std::string> mix = {
      "best", "topk 5", "pareto area",
      "eval variant=asymmetric n=256 app=kmeans growth=linear r=4 rl=16",
      "stats"};
  std::atomic<std::uint64_t> completed{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::size_t i = static_cast<std::size_t>(c);
      while (!stop.load(std::memory_order_relaxed)) {
        server.execute_line(mix[i++ % mix.size()]);
        completed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  const auto start = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (auto& thread : threads) thread.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return elapsed > 0.0 ? static_cast<double>(completed.load()) / elapsed : 0.0;
}

}  // namespace

int main(int argc, char** argv) try {
  util::Cli cli("bench_serve_throughput",
                "queries/sec of the in-process serving core at one client "
                "and at --clients clients");
  cli.opt("clients", static_cast<long long>(8), "hammering threads");
  cli.opt("seconds", 0.5, "wall clock per measurement");
  cli.opt("out", std::string("BENCH_serve.json"), "JSON output path");
  if (!cli.parse(argc, argv)) return 0;

  const int clients = static_cast<int>(cli.get_int("clients"));
  const double seconds = cli.get_double("seconds");

  explore::ExploreEngine engine;
  const serve::Archive archive = make_archive(engine);
  std::cout << "archive: " << archive.records.size() << " records, "
            << engine.threads() << " engine threads\n";

  serve::QueryServer server(archive, engine, nullptr, serve::ServerOptions{});
  const double qps_1 = hammer(server, 1, seconds);
  const double qps_n = hammer(server, clients, seconds);
  const unsigned hardware = std::thread::hardware_concurrency();

  std::cout << "serve:   1 client " << util::format_double(qps_1, 0)
            << " q/s, " << clients << " clients "
            << util::format_double(qps_n, 0) << " q/s ("
            << hardware << " hardware threads)\n";

  std::ofstream json(cli.get_string("out"));
  json << "{\n"
       << "  \"archive_records\": " << archive.records.size() << ",\n"
       << "  \"hardware_concurrency\": " << hardware << ",\n"
       << "  \"clients\": " << clients << ",\n"
       << "  \"seconds_per_run\": " << seconds << ",\n"
       << "  \"qps_1_client\": " << qps_1 << ",\n"
       << "  \"qps_clients\": " << qps_n << "\n"
       << "}\n";
  json.flush();
  if (!json.good()) {
    std::cerr << "cannot write " << cli.get_string("out") << "\n";
    return 1;
  }
  std::cout << "wrote " << cli.get_string("out") << "\n";

  // Many clients must not collapse below the one-client baseline: the
  // acceptance bar the load test also holds the full server to, checked
  // here on the in-process core.
  if (qps_n < qps_1 * 0.5) {
    std::cerr << "FAIL: " << clients << "-client throughput "
              << util::format_double(qps_n, 0)
              << " q/s collapsed below half the 1-client baseline "
              << util::format_double(qps_1, 0) << " q/s\n";
    return 1;
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "bench_serve_throughput: " << e.what() << "\n";
  return 1;
}
