// serve_cli: exploration-as-a-service over a recorded run directory.
// Startup loads (and optionally unions) run-log archives into the
// explore engine's memo cache, then answers design-space queries over a
// newline-delimited TCP protocol on 127.0.0.1:
//
//   best                      highest-speedup feasible design
//   topk <k>                  top-k table
//   pareto area|cores         Pareto-frontier table
//   eval variant=.. n=.. app=.. growth=.. r=.. [rl=..] [topology=..]
//                             what-if point: archive hit or budgeted
//                             live evaluation (appended to the run log)
//   stats                     server, cache and live-eval counters
//   quit                      close the connection
//
// Each connection gets its own session thread, which runs its queries
// directly (no admission limit; see src/serve/server.hpp).
//
//   ./build/explore_cli --run-dir /tmp/run --variants asymmetric
//   ./build/serve_cli --run-dir /tmp/run --port-file /tmp/run.port &
//   printf 'best\nquit\n' | ./build/serve_client --port-file /tmp/run.port
//
// The server answers best/topk/pareto byte-identically to explore_cli's
// report over the same records.  Runs until SIGINT/SIGTERM (or
// --max-seconds); a kill -9 loses at most nothing — every live answer
// was flushed to the run log before it was sent.

#include <csignal>
#include <filesystem>
#include <iostream>
#include <sstream>

#include "explore/engine.hpp"
#include "search/run_log.hpp"
#include "serve/server.hpp"
#include "util/cli.hpp"

using namespace mergescale;

namespace {

std::vector<std::string> split(const std::string& text, char sep = ',') {
  std::vector<std::string> parts;
  std::istringstream in(text);
  for (std::string part; std::getline(in, part, sep);) {
    if (!part.empty()) parts.push_back(part);
  }
  return parts;
}

}  // namespace

int main(int argc, char** argv) try {
  util::Cli cli("serve_cli",
                "query server over recorded exploration runs: load run-log "
                "archives into the memo cache and answer best / topk / "
                "pareto / eval / stats over a line protocol");
  cli.opt("run-dir", std::string(),
          "recorded run directory to serve (live evals append here)");
  cli.opt("merge-from", std::string(),
          "comma list of additional recorded run dirs to union in "
          "(configs must match modulo sharding)");
  cli.opt("port", static_cast<long long>(0),
          "TCP port on 127.0.0.1 (0 = ephemeral)");
  cli.opt("port-file", std::string(),
          "write the bound port here (atomically) for scripts");
  cli.opt("threads", static_cast<long long>(0),
          "engine worker threads (0 = hardware concurrency)");
  cli.opt("live-budget", static_cast<long long>(100000),
          "live evaluations the server may spend on eval misses");
  cli.opt("log-format", std::string("auto"),
          "append format for live evals: auto | ndjson | binary (auto "
          "follows the existing log)");
  cli.opt("max-seconds", 0.0,
          "exit after this long (0 = run until SIGINT/SIGTERM)");
  cli.flag("fsync",
           "fsync every live-eval append so served answers survive power "
           "loss, not just process death");
  if (!cli.parse(argc, argv)) return 0;

  const std::string run_dir = cli.get_string("run-dir");
  if (run_dir.empty()) {
    throw std::invalid_argument("serve_cli needs --run-dir <recorded dir>");
  }
  const std::vector<std::string> sources = split(cli.get_string("merge-from"));

  serve::Archive archive = serve::load_archive(run_dir, sources);

  explore::EngineOptions engine_options;
  engine_options.threads = static_cast<int>(cli.get_int("threads"));
  explore::ExploreEngine engine(engine_options);
  const std::size_t warmed =
      search::RunLog::warm(archive.records, archive.spec, engine);
  std::cout << "serve: loaded " << archive.records.size() << " records ("
            << warmed << " cache entries) from " << run_dir;
  if (!sources.empty()) std::cout << " + " << sources.size() << " more dir(s)";
  std::cout << "\n";

  // Live evals append to the *target* directory, in the format its log
  // already uses (auto), so the archive and its growth stay one run.
  search::LogFormat format = search::LogFormat::kNdjson;
  if (const std::string name = cli.get_string("log-format"); name == "auto") {
    if (std::filesystem::exists(
            search::RunLog::binary_results_path(run_dir)) &&
        !std::filesystem::exists(search::RunLog::results_path(run_dir))) {
      format = search::LogFormat::kBinary;
    }
  } else {
    format = search::parse_log_format(name);
  }
  search::RunLogOptions log_options{format, 1};
  log_options.fsync = cli.get_flag("fsync");
  search::RunLog log(run_dir, log_options);

  serve::ServerOptions options;
  options.port = static_cast<int>(cli.get_int("port"));
  options.port_file = cli.get_string("port-file");
  options.live_budget = static_cast<std::uint64_t>(
      std::max<long long>(0, cli.get_int("live-budget")));

  // Block the exit signals before the server spawns threads (they
  // inherit the mask), so sigwait below is the one place they land.
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGINT);
  sigaddset(&signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);

  serve::QueryServer server(std::move(archive), engine, &log, options);
  server.start();
  std::cout << "serve: listening on 127.0.0.1:" << server.port()
            << " (live budget " << options.live_budget << ")\n"
            << std::flush;

  const double max_seconds = cli.get_double("max-seconds");
  if (max_seconds > 0.0) {
    timespec deadline;
    deadline.tv_sec = static_cast<time_t>(max_seconds);
    deadline.tv_nsec = static_cast<long>(
        (max_seconds - static_cast<double>(deadline.tv_sec)) * 1e9);
    sigtimedwait(&signals, nullptr, &deadline);
  } else {
    int signal = 0;
    sigwait(&signals, &signal);
  }

  server.stop();
  std::cout << "serve: " << server.queries_answered() << " queries answered, "
            << server.live_evals() << " live evaluations\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "serve_cli: " << e.what() << "\n";
  return 1;
}
