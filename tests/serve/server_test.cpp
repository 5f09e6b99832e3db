#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "explore/report.hpp"
#include "search/archive.hpp"
#include "search/run_log.hpp"
#include "search/space.hpp"
#include "search/strategy.hpp"
#include "serve/archive.hpp"

namespace mergescale::serve {
namespace {

// The exact fingerprint explore_cli would have recorded for this space:
// the archive's scenario is reconstructed from it, so the tests exercise
// the same meta round-trip a real run directory goes through.
constexpr const char* kConfig =
    "apps=kmeans;budgets=64,128;growths=linear;variants=asymmetric;"
    "topologies=mesh;small-cores=1,4;sizes=8,16,32;comp-share=0.5;"
    "f=0.9;fcon=0.01;fored=0.01;strategy=exhaustive";

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("mergescale_serve_" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name()))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Records a real run directory: meta + one result per job of the
  /// config's scenario, exactly what explore_cli leaves behind.
  void record() {
    const explore::ScenarioSpec spec = spec_from_run_config(kConfig);
    explore::ExploreEngine engine(explore::EngineOptions{2});
    const std::vector<explore::EvalResult> results = engine.run(spec);
    ASSERT_FALSE(results.empty());
    search::RunLog::write_meta(dir_, kConfig);
    search::RunLog log(dir_);
    for (const auto& result : results) log.append(result);
    log.flush();
  }

  /// An in-process server over the recorded directory: archive loaded
  /// through the real startup path, cache warmed, live appends going
  /// back to the same run log.  Not start()ed — execute_line drives the
  /// full query path without sockets.
  struct Harness {
    Archive archive;
    explore::ExploreEngine engine;
    std::unique_ptr<search::RunLog> log;
    std::unique_ptr<QueryServer> server;
  };

  std::unique_ptr<Harness> serve(std::uint64_t live_budget = 100,
                                 bool with_log = true) {
    auto harness = std::make_unique<Harness>();
    harness->archive = load_archive(dir_);
    search::RunLog::warm(harness->archive.records, harness->archive.spec,
                         harness->engine);
    if (with_log) {
      harness->log = std::make_unique<search::RunLog>(dir_);
    }
    ServerOptions options;
    options.live_budget = live_budget;
    harness->server = std::make_unique<QueryServer>(
        harness->archive, harness->engine, harness->log.get(), options);
    return harness;
  }

  std::string dir_;
};

TEST_F(ServerTest, BestIsByteIdenticalToTheCliRendering) {
  record();
  auto harness = serve();
  const explore::EvalResult* best =
      explore::best_result(harness->archive.records);
  ASSERT_NE(best, nullptr);
  const std::string expected =
      ok_header(QueryKind::kBest, 1) + explore::best_line(*best) + "\nEND\n";
  QueryKind kind;
  EXPECT_EQ(harness->server->execute_line("best", &kind), expected);
  EXPECT_EQ(kind, QueryKind::kBest);
}

TEST_F(ServerTest, TopkIsByteIdenticalToTheCliTable) {
  record();
  auto harness = serve();
  const std::string payload =
      explore::to_table(explore::top_k(harness->archive.records, 3))
          .to_text("top-k designs by speedup");
  const std::string expected =
      ok_header(QueryKind::kTopK, count_lines(payload)) + payload + "END\n";
  EXPECT_EQ(harness->server->execute_line("topk 3"), expected);
}

TEST_F(ServerTest, ParetoIsByteIdenticalToTheCliTable) {
  record();
  auto harness = serve();
  for (const auto& [token, metric, title] :
       {std::tuple{"pareto area", explore::CostMetric::kCoreArea,
                   "Pareto frontier (speedup vs. core area)"},
        std::tuple{"pareto cores", explore::CostMetric::kCoreCount,
                   "Pareto frontier (speedup vs. core count)"}}) {
    const std::string payload =
        explore::to_table(
            explore::pareto_frontier(harness->archive.records, metric))
            .to_text(title);
    const std::string expected =
        ok_header(QueryKind::kPareto, count_lines(payload)) + payload + "END\n";
    EXPECT_EQ(harness->server->execute_line(token), expected) << token;
  }
}

TEST_F(ServerTest, OnGridEvalIsServedFromTheArchive) {
  record();
  auto harness = serve();
  const std::string reply = harness->server->execute_line(
      "eval variant=asymmetric n=64 app=kmeans growth=linear r=1 rl=8");
  EXPECT_NE(reply.find("OK eval lines=1\n"), std::string::npos) << reply;
  EXPECT_NE(reply.find("source=archive"), std::string::npos) << reply;
  EXPECT_NE(reply.find("feasible=yes"), std::string::npos) << reply;
  EXPECT_EQ(harness->server->live_evals(), 0u);
}

TEST_F(ServerTest, OffGridEvalGoesLiveOnceThenHitsTheArchive) {
  record();
  auto harness = serve();
  const std::string query =
      "eval variant=asymmetric n=96 app=kmeans growth=linear r=2 rl=32";
  const std::string first = harness->server->execute_line(query);
  EXPECT_NE(first.find("source=live"), std::string::npos) << first;
  EXPECT_EQ(harness->server->live_evals(), 1u);

  const std::string second = harness->server->execute_line(query);
  EXPECT_NE(second.find("source=archive"), std::string::npos) << second;
  EXPECT_EQ(harness->server->live_evals(), 1u);
  // Identical numbers both times: the archived answer IS the live one.
  EXPECT_EQ(first.substr(0, first.find("source=")),
            second.substr(0, second.find("source=")));
}

TEST_F(ServerTest, LiveEvalSurvivesARestart) {
  record();
  const std::string query =
      "eval variant=asymmetric n=96 app=kmeans growth=linear r=2 rl=32";
  std::string first;
  {
    auto harness = serve();
    first = harness->server->execute_line(query);
    ASSERT_NE(first.find("source=live"), std::string::npos) << first;
  }  // server + log torn down: the record is on disk
  auto restarted = serve();
  EXPECT_EQ(restarted->archive.records.size(),
            spec_from_run_config(kConfig).job_count() + 1);
  const std::string second = restarted->server->execute_line(query);
  EXPECT_NE(second.find("source=archive"), std::string::npos) << second;
  EXPECT_EQ(restarted->server->live_evals(), 0u);
  // Byte-identical coordinates and speedup across the restart.
  EXPECT_EQ(first.substr(0, first.find("source=")),
            second.substr(0, second.find("source=")));
}

TEST_F(ServerTest, ExhaustedLiveBudgetIsARefusalNotACrash) {
  record();
  auto harness = serve(/*live_budget=*/0);
  const std::string reply = harness->server->execute_line(
      "eval variant=asymmetric n=97 app=kmeans growth=linear r=2 rl=32");
  EXPECT_EQ(reply.rfind("ERR ", 0), 0u) << reply;
  EXPECT_NE(reply.find("budget"), std::string::npos) << reply;
  EXPECT_EQ(harness->server->live_evals(), 0u);
  // On-grid (warmed) answers still flow: the budget gates compute, not
  // the archive.
  EXPECT_EQ(harness->server
                ->execute_line(
                    "eval variant=asymmetric n=64 app=kmeans growth=linear "
                    "r=1 rl=8")
                .rfind("OK eval", 0),
            0u);
}

TEST_F(ServerTest, EvalRefusesCoordinatesOutsideTheScenario) {
  record();
  auto harness = serve();
  // Laws outside the archive could not be warmed back after a restart,
  // so they are refused (the grid coordinates n/r/rl stay free).
  const std::string bad_app = harness->server->execute_line(
      "eval variant=asymmetric n=64 app=hop growth=linear r=1 rl=8");
  EXPECT_EQ(bad_app.rfind("ERR ", 0), 0u);
  EXPECT_NE(bad_app.find("not part of this archive"), std::string::npos)
      << bad_app;
  const std::string bad_growth = harness->server->execute_line(
      "eval variant=asymmetric n=64 app=kmeans growth=log r=1 rl=8");
  EXPECT_EQ(bad_growth.rfind("ERR ", 0), 0u);
  const std::string no_rl = harness->server->execute_line(
      "eval variant=asymmetric n=64 app=kmeans growth=linear r=1");
  EXPECT_EQ(no_rl.rfind("ERR ", 0), 0u);
  const std::string comm_without_topology = harness->server->execute_line(
      "eval variant=symmetric-comm n=64 app=kmeans growth=linear r=8");
  EXPECT_EQ(comm_without_topology.rfind("ERR ", 0), 0u);
  const std::string foreign_topology = harness->server->execute_line(
      "eval variant=symmetric-comm n=64 app=kmeans growth=linear r=8 "
      "topology=torus");
  EXPECT_EQ(foreign_topology.rfind("ERR ", 0), 0u);
  EXPECT_NE(foreign_topology.find("topology"), std::string::npos);
  // None of the refusals spent budget or touched the log.
  EXPECT_EQ(harness->server->live_evals(), 0u);
}

TEST_F(ServerTest, MalformedLinesGetOneLineErrors) {
  record();
  auto harness = serve();
  for (const char* line : {"bogus", "topk 0", "", "eval variant=nope n=1"}) {
    const std::string reply = harness->server->execute_line(line);
    EXPECT_EQ(reply.rfind("ERR ", 0), 0u) << "line: '" << line << "'";
    EXPECT_EQ(reply.find('\n'), reply.size() - 1) << reply;
  }
  // Every reply — refusals included — counts as an answered query.
  EXPECT_EQ(harness->server->queries_answered(), 4u);
}

TEST_F(ServerTest, QuitAndStatsAreFramedReplies) {
  record();
  auto harness = serve();
  QueryKind kind;
  EXPECT_EQ(harness->server->execute_line("quit", &kind),
            "OK quit lines=0\nEND\n");
  EXPECT_EQ(kind, QueryKind::kQuit);
  const std::string stats = harness->server->execute_line("stats");
  EXPECT_EQ(stats.rfind("OK stats", 0), 0u);
  for (const char* key :
       {"archive_records=", "cache_entries=", "queries=", "live_budget="}) {
    EXPECT_NE(stats.find(key), std::string::npos) << key << "\n" << stats;
  }
}

TEST_F(ServerTest, ExecuteLineAfterStopRefusesQueries) {
  record();
  auto harness = serve();
  harness->server->stop();
  EXPECT_EQ(harness->server->execute_line("best"),
            "ERR server is stopping\n");
  // quit needs no server state, so it is still framed normally.
  EXPECT_EQ(harness->server->execute_line("quit"), "OK quit lines=0\nEND\n");
}

TEST_F(ServerTest, FinishedSessionThreadsAreReaped) {
  record();
  auto harness = serve();
  harness->server->start();
  for (int round = 0; round < 200; ++round) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(harness->server->port()));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    const std::string request = "stats\nquit\n";
    ASSERT_EQ(::send(fd, request.data(), request.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(request.size()));
    // Read to EOF: the server closes its end once it has answered quit.
    std::string reply;
    char chunk[4096];
    for (ssize_t got; (got = ::recv(fd, chunk, sizeof(chunk), 0)) > 0;) {
      reply.append(chunk, static_cast<std::size_t>(got));
    }
    ::close(fd);
    ASSERT_EQ(reply.rfind("OK stats", 0), 0u) << reply;
  }
  // One connection is open at a time, and a session frees its slot
  // before the client sees EOF, so finished sessions are joined and
  // their slots reused instead of one thread piling up per connection.
  EXPECT_LE(harness->server->session_threads(), 2u);
  harness->server->stop();
}

TEST_F(ServerTest, ServesWithoutALogButCannotPersist) {
  record();
  auto harness = serve(/*live_budget=*/100, /*with_log=*/false);
  const std::string reply = harness->server->execute_line(
      "eval variant=asymmetric n=96 app=kmeans growth=linear r=2 rl=32");
  EXPECT_NE(reply.find("source=live"), std::string::npos) << reply;
  // The answer was served (and cached in-process) even with nowhere to
  // persist it.
  EXPECT_EQ(harness->server->live_evals(), 1u);
}

TEST_F(ServerTest, LoadArchiveDedupsAndRefusesForeignConfigs) {
  record();
  // A second directory recorded under a different space must be refused,
  // exactly as RunLog::merge would refuse it.
  const std::string foreign = dir_ + "_foreign";
  search::RunLog::write_meta(
      foreign,
      "apps=hop;budgets=32;growths=log;variants=symmetric;topologies=ring;"
      "small-cores=1;sizes=8;comp-share=0.5;f=0.9;fcon=0.01;fored=0.01;"
      "strategy=exhaustive");
  {
    search::RunLog log(foreign);
    explore::EvalResult result;
    result.scenario = "foreign";
    result.app = "hop";
    result.growth = "log";
    result.n = 32.0;
    result.r = 8.0;
    log.append(result);
    log.flush();
  }
  EXPECT_THROW(load_archive(dir_, {foreign}), std::runtime_error);
  std::filesystem::remove_all(foreign);

  // Unioning a directory with itself must not double-count: the archive
  // is deduplicated by design point.
  const Archive plain = load_archive(dir_);
  const Archive self_union = load_archive(dir_, {dir_});
  EXPECT_EQ(self_union.records.size(), plain.records.size());
}

TEST_F(ServerTest, ArchiveBackedAnswersAreByteIdenticalToLogBacked) {
  record();
  // Capture the log-backed server's answers first.
  std::vector<std::string> reference;
  {
    auto log_backed = serve();
    for (const char* line : {"best", "topk 5", "pareto area", "pareto cores"}) {
      reference.push_back(log_backed->server->execute_line(line));
    }
  }

  // What explore_cli --archive does: dedup the merged log, write the
  // columnar archive, drop the row logs.
  const auto records = search::RunLog::dedup(search::RunLog::load(dir_));
  ASSERT_FALSE(records.empty());
  search::write_archive(search::RunLog::archive_path(dir_), records);
  std::filesystem::remove(search::RunLog::results_path(dir_));

  auto archive_backed = serve();
  // The startup path recognized the archive as the union's prefix, so
  // the server is answering through the file-backed zone-map reader —
  // not an O(archive) scan of a record vector.
  EXPECT_EQ(archive_backed->archive.archived, records.size());
  std::size_t at = 0;
  for (const char* line : {"best", "topk 5", "pareto area", "pareto cores"}) {
    EXPECT_EQ(archive_backed->server->execute_line(line), reference[at++])
        << line;
  }
}

TEST_F(ServerTest, LiveEvalsFoldIntoArchiveBackedAnswers) {
  record();
  const auto records = search::RunLog::dedup(search::RunLog::load(dir_));
  search::write_archive(search::RunLog::archive_path(dir_), records);
  std::filesystem::remove(search::RunLog::results_path(dir_));

  // A live (off-grid) eval lands in the server's delta list; every
  // later answer must fold it in on top of the file-backed archive.
  auto harness = serve();
  ASSERT_EQ(harness->archive.archived, records.size());
  const std::string reply = harness->server->execute_line(
      "eval variant=asymmetric n=96 app=kmeans growth=linear r=2 rl=32");
  ASSERT_NE(reply.find("source=live"), std::string::npos) << reply;
  const std::string topk_after = harness->server->execute_line("topk 5");
  const std::string best_after = harness->server->execute_line("best");
  harness.reset();  // flush the live record into the run log

  // A log-backed restart loads archive + appended record and must land
  // on byte-identical answers — the delta fold is not a different query
  // engine, just a deferred part of the same archive.
  auto restarted = serve();
  EXPECT_EQ(restarted->archive.records.size(), records.size() + 1);
  EXPECT_EQ(restarted->server->execute_line("topk 5"), topk_after);
  EXPECT_EQ(restarted->server->execute_line("best"), best_after);
}

TEST_F(ServerTest, AnnealArchiveAnswersMatchTheInProcessRendering) {
  // An adaptive run logs in proposal order, not index order, and its
  // space has exact speedup ties (a symmetric core of size r and an
  // asymmetric chip of r-sized cores).  The archive re-sorts by index,
  // so its answers match the in-process rendering of the logged records
  // only when every record carries its own distinct grid index.
  constexpr const char* kAnnealConfig =
      "apps=kmeans,hop;budgets=64,128;growths=linear;"
      "variants=symmetric,asymmetric;topologies=mesh,bus;small-cores=1,4;"
      "sizes=1,2,4,8,16,32;comp-share=0.5;f=0.9;fcon=0.01;fored=0.01;"
      "strategy=anneal;walkers=8";
  const search::SearchSpace space(spec_from_run_config(kAnnealConfig));
  search::RunLog::write_meta(dir_, kAnnealConfig);
  {
    explore::ExploreEngine engine;
    search::RunLog log(dir_, {search::LogFormat::kBinary, 64});
    search::SearchOptions options;
    options.strategy = search::Strategy::kAnneal;
    options.walkers = 8;
    options.budget = 80;
    options.seed = 3;
    search::run_search(engine, space, options, &log);
  }
  const std::vector<explore::EvalResult> records =
      search::RunLog::load(dir_);
  ASSERT_GT(records.size(), 8u);
  search::write_archive(search::RunLog::archive_path(dir_),
                        search::RunLog::dedup(records));
  std::filesystem::remove(search::RunLog::binary_results_path(dir_));

  auto harness = serve();
  ASSERT_EQ(harness->archive.archived, records.size());
  const std::string topk =
      explore::to_table(explore::top_k(records, 50))
          .to_text("top-k designs by speedup");
  EXPECT_EQ(harness->server->execute_line("topk 50"),
            ok_header(QueryKind::kTopK, count_lines(topk)) + topk + "END\n");
  for (const auto& [token, metric, title] :
       {std::tuple{"pareto area", explore::CostMetric::kCoreArea,
                   "Pareto frontier (speedup vs. core area)"},
        std::tuple{"pareto cores", explore::CostMetric::kCoreCount,
                   "Pareto frontier (speedup vs. core count)"}}) {
    const std::string payload =
        explore::to_table(explore::pareto_frontier(records, metric))
            .to_text(title);
    EXPECT_EQ(harness->server->execute_line(token),
              ok_header(QueryKind::kPareto, count_lines(payload)) + payload +
                  "END\n")
        << token;
  }

  // A live eval is numbered after the largest recorded index, never
  // onto an index the anneal already logged.
  std::size_t end = 0;
  for (const auto& record : records) end = std::max(end, record.index + 1);
  const std::string reply = harness->server->execute_line(
      "eval variant=asymmetric n=96 app=kmeans growth=linear r=2 rl=32");
  ASSERT_NE(reply.find("source=live"), std::string::npos) << reply;
  harness.reset();  // flush the live record into the run log
  const std::vector<explore::EvalResult> after = search::RunLog::load(dir_);
  ASSERT_EQ(after.size(), records.size() + 1);
  EXPECT_EQ(after.back().index, end);
}

TEST_F(ServerTest, RunLogDedupKeepsFirstOccurrence) {
  explore::EvalResult a;
  a.app = "kmeans";
  a.growth = "linear";
  a.n = 64.0;
  a.r = 1.0;
  a.rl = 8.0;
  a.speedup = 10.0;
  explore::EvalResult duplicate = a;
  duplicate.speedup = 99.0;  // same design point, later record
  explore::EvalResult other = a;
  other.rl = 16.0;
  const auto kept = search::RunLog::dedup({a, duplicate, other});
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_DOUBLE_EQ(kept[0].speedup, 10.0);
  EXPECT_DOUBLE_EQ(kept[1].rl, 16.0);
}

}  // namespace
}  // namespace mergescale::serve
