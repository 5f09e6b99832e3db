#pragma once
// Exploration-as-a-service: a TCP query server over a recorded run
// archive.  Startup loads (and unions) run logs into the explore
// engine's memo cache; clients then ask `best` / `topk` / `pareto` /
// `eval` / `stats` over the newline-delimited protocol (serve/protocol),
// answered from the archive — with `eval` falling back to budgeted live
// evaluation through core::evaluate on a miss, every live answer
// appended to the run log so the next server start (or any explore_cli
// --resume) inherits it.
//
// Concurrency: one thread per connection, and each session thread runs
// its queries directly.  No admission gate sits in front of them —
// measured on 4 cores, any limit below the client count only cost
// throughput — so the only shared steps are the short archive_mu_ delta
// copy and the live_mu_ live-eval step.

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "explore/engine.hpp"
#include "search/archive.hpp"
#include "search/run_log.hpp"
#include "serve/archive.hpp"
#include "serve/protocol.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace mergescale::serve {

struct ServerOptions {
  /// TCP port to bind on 127.0.0.1; 0 picks an ephemeral port (read it
  /// back via port(), or point `port_file` somewhere for scripts).
  int port = 0;
  /// When non-empty, the bound port is written here (write + rename, so
  /// a polling client never reads a partial file).
  std::string port_file;
  /// Live (cache-missing) `eval` evaluations this server may run; once
  /// spent, further misses get an ERR instead of compute time.
  std::uint64_t live_budget = 100000;
};

class QueryServer {
 public:
  /// `engine`'s cache should already be warmed from `archive` (see
  /// search::RunLog::warm); `log`, when non-null, receives every live
  /// evaluation (flushed per record) and must outlive the server.
  QueryServer(Archive archive, explore::ExploreEngine& engine,
              search::RunLog* log, ServerOptions options);
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Binds, listens, and starts the acceptor thread.  Throws
  /// std::runtime_error when the socket cannot be set up.
  void start();

  /// Stops accepting, closes every session, joins all threads.  Safe to
  /// call twice; the destructor calls it.
  void stop();

  /// Bound port (valid after start()).
  int port() const noexcept { return port_; }

  /// Parses and executes one request line exactly as a session would,
  /// returning the full framed reply (`ERR server is stopping` for any
  /// query but `quit` once stop() has begun).  `kind_out` (optional)
  /// reports the parsed query kind, kQuit included; callers without a
  /// socket use this to drive the server in-process.
  std::string execute_line(const std::string& line,
                           QueryKind* kind_out = nullptr);

  /// Queries answered (any reply, ERR included) since start.
  std::uint64_t queries_answered() const noexcept {
    return completed_.load(std::memory_order_relaxed);
  }
  /// Session threads the server holds (running or finished but not yet
  /// joined): bounded by the peak number of open connections, not by
  /// the connections accepted over the server's life.
  std::size_t session_threads() const MS_EXCLUDES(sessions_mu_);
  /// Live evaluations spent against ServerOptions::live_budget.
  std::uint64_t live_evals() const noexcept {
    return live_used_.load(std::memory_order_relaxed);
  }

  /// True once a run-log append failed: the server keeps answering
  /// archive-backed queries but sheds `eval` misses (typed ERR) instead
  /// of producing live results it cannot make durable.
  bool degraded() const noexcept {
    return degraded_.load(std::memory_order_relaxed);
  }
  /// eval misses shed because the live budget was exhausted / the
  /// server was degraded.
  std::uint64_t shed_busy() const noexcept {
    return shed_busy_.load(std::memory_order_relaxed);
  }
  std::uint64_t shed_degraded() const noexcept {
    return shed_degraded_.load(std::memory_order_relaxed);
  }

 private:
  /// Builds the zone-map query engine over `archive`'s records —
  /// file-backed (read-only, mmap-served) when <dir>/archive.msca holds
  /// exactly the record union's prefix, else an in-memory archive over
  /// the whole union — and moves any remaining union records into
  /// `*delta`.  Consumes archive.records.
  static search::ArchiveReader make_reader(
      Archive& archive, std::vector<explore::EvalResult>* delta);

  /// Executes a parsed query into a framed reply.
  std::string execute(const Query& query);
  std::string answer_best() const MS_EXCLUDES(archive_mu_);
  std::string answer_topk(std::size_t k) const MS_EXCLUDES(archive_mu_);
  std::string answer_pareto(explore::CostMetric metric) const
      MS_EXCLUDES(archive_mu_);
  std::string answer_eval(const Query& query)
      MS_EXCLUDES(live_mu_, archive_mu_);
  std::string answer_stats() MS_EXCLUDES(archive_mu_);
  /// Resolves eval coordinates against the archive's scenario into a
  /// job; throws std::invalid_argument with a client-facing message.
  /// Reads only the immutable archive fields — no lock needed.
  explore::EvalJob resolve_eval(const Query& query) const;

  void acceptor_main() MS_EXCLUDES(sessions_mu_);
  void session_main(int fd, std::size_t slot) MS_EXCLUDES(sessions_mu_);

  /// Immutable after construction (dir, config, spec — records are moved
  /// out into reader_/delta_, the fields queries touch): resolve_eval
  /// and answer_stats read these fields without a lock, and the
  /// annotations hold the line between that and the guarded delta list.
  Archive archive_;
  explore::ExploreEngine& engine_;
  search::RunLog* log_;
  ServerOptions options_;

  /// Guards delta_ (readers: best/topk/pareto/stats; writer: the
  /// live-eval append path).  Queries copy the delta out under a reader
  /// lock and render OUTSIDE it — the lock is held for a vector copy,
  /// never for an archive scan or a table render.
  mutable util::SharedMutex archive_mu_;
  /// Records recorded since the archive was built (result-log records
  /// beyond the file-backed prefix) plus every live evaluation appended
  /// since start — folded into every answer on top of reader_'s
  /// archive.  Declared before reader_: make_reader fills it while
  /// initializing reader_, so it must be constructed first.
  std::vector<explore::EvalResult> delta_ MS_GUARDED_BY(archive_mu_);
  /// Zone-map query engine over the archived records (search/archive).
  /// Immutable after construction; its query methods are const and
  /// internally thread-safe, so best/topk/pareto run them without
  /// holding archive_mu_ — queries prune blocks via zone maps instead
  /// of scanning an O(archive) record vector per request.
  search::ArchiveReader reader_;
  /// Serializes live evaluations: re-check the cache, spend budget,
  /// append to log + archive as one step, so a racing duplicate miss
  /// cannot double-append or double-spend.
  util::Mutex live_mu_;
  std::atomic<std::uint64_t> live_used_{0};
  std::atomic<std::size_t> next_index_{0};
  /// Sticky archive-only mode: set when a run-log append throws (a full
  /// or failing disk), so there is nothing to probe for recovery —
  /// degradation lasts until restart.
  std::atomic<bool> degraded_{false};
  std::atomic<std::uint64_t> shed_busy_{0};
  std::atomic<std::uint64_t> shed_degraded_{0};

  std::atomic<std::uint64_t> completed_{0};

  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread acceptor_;

  /// Session registry: fds are shut down at stop() to unblock recv(),
  /// then every thread is joined — stop() moves the thread list out
  /// under the lock and joins outside it (a running session has to
  /// retake sessions_mu_ to clear its fd slot, so joining it under the
  /// lock would deadlock).  A session clears its slot (fd -1) as its
  /// last use of the lock, then closes its fd: the acceptor joins such a
  /// thread under the lock and reuses the slot, so the registry grows
  /// with the peak number of open connections, not with every
  /// connection accepted.
  mutable util::Mutex sessions_mu_;
  std::vector<int> session_fds_ MS_GUARDED_BY(sessions_mu_);
  std::vector<std::thread> sessions_ MS_GUARDED_BY(sessions_mu_);
};

}  // namespace mergescale::serve
