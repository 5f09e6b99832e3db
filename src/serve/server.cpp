#include "serve/server.hpp"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "core/comm_model.hpp"
#include "core/design_space.hpp"
#include "explore/memo_cache.hpp"
#include "explore/report.hpp"
#include "noc/topology.hpp"
#include "util/io_env.hpp"

namespace mergescale::serve {

namespace {

/// Shortest exact-enough value rendering (matches report's table cells).
std::string compact(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return buf;
}

std::string sys_error(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

}  // namespace

search::ArchiveReader QueryServer::make_reader(
    Archive& archive, std::vector<explore::EvalResult>* delta) {
  std::vector<explore::EvalResult> records = std::move(archive.records);
  if (archive.archived > 0 && archive.archived <= records.size() &&
      search::RunLog::has_archive(archive.dir)) {
    search::ArchiveReader reader = search::ArchiveReader::open(
        search::RunLog::archive_path(archive.dir));
    if (reader.row_count() == archive.archived) {
      // The union's first `archived` records ARE the file's rows (see
      // Archive::archived), so the file-backed engine serves them from
      // its mmap and only the post-archive tail rides in memory.
      delta->assign(
          std::make_move_iterator(records.begin() +
                                  static_cast<std::ptrdiff_t>(
                                      archive.archived)),
          std::make_move_iterator(records.end()));
      return reader;
    }
  }
  // No archive on disk (or it does not cover the union's prefix): build
  // the same engine in memory over the whole union.
  return search::ArchiveReader::from_records(records);
}

QueryServer::QueryServer(Archive archive, explore::ExploreEngine& engine,
                         search::RunLog* log, ServerOptions options)
    : archive_(std::move(archive)),
      engine_(engine),
      log_(log),
      options_(std::move(options)),
      // The record list moves into the query engine + delta pair; what
      // stays in archive_ (dir, config, spec) is immutable for the
      // server's life.
      reader_(make_reader(archive_, &delta_)) {
  // Live evals are numbered after the largest recorded index, not after
  // the record count: an adaptive run's indices are sparse grid indices,
  // and a count-based number could collide with one of them.
  std::uint64_t next = reader_.end_index();
  for (const explore::EvalResult& record : delta_) {
    next = std::max<std::uint64_t>(next, record.index + 1);
  }
  next_index_.store(static_cast<std::size_t>(next), std::memory_order_relaxed);
}

QueryServer::~QueryServer() { stop(); }

void QueryServer::start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error(sys_error("serve: socket"));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  // Loopback only: the server trusts its archive, not the network.
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const std::string error = sys_error("serve: bind 127.0.0.1");
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error(error);
  }
  if (::listen(listen_fd_, 64) != 0) {
    const std::string error = sys_error("serve: listen");
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error(error);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
      0) {
    throw std::runtime_error(sys_error("serve: getsockname"));
  }
  port_ = static_cast<int>(ntohs(bound.sin_port));

  util::IoEnv& env = util::io_env();
  if (!options_.port_file.empty()) {
    // Write + rename: a script polling the file never reads a torn port.
    // No fsync: the file names a live process, which a power loss ends
    // anyway.
    const std::string tmp = options_.port_file + ".tmp";
    std::unique_ptr<util::WritableFile> out;
    util::IoResult result = env.new_writable(tmp, /*truncate=*/true, &out);
    if (result.ok()) result = out->append(std::to_string(port_) + "\n");
    if (result.ok()) result = out->flush();
    if (result.ok()) result = out->close();
    if (result.ok()) result = env.rename_file(tmp, options_.port_file);
    if (!result.ok()) {
      static_cast<void>(env.remove_file(tmp));
      throw std::runtime_error("serve: cannot write port file " +
                               options_.port_file + ": " + result.message);
    }
  }

  acceptor_ = std::thread(&QueryServer::acceptor_main, this);
}

void QueryServer::stop() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) return;
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  {
    util::MutexLock lock(sessions_mu_);
    for (int fd : session_fds_) {
      if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
    }
  }
  if (acceptor_.joinable()) acceptor_.join();
  // The acceptor is gone, so the registry is final.  Move the thread
  // list out under the lock, then join lock-free: a running session
  // still has to retake sessions_mu_ to clear its fd slot, so joining
  // while holding the lock would deadlock against it.
  std::vector<std::thread> to_join;
  {
    util::MutexLock lock(sessions_mu_);
    to_join.swap(sessions_);
  }
  for (std::thread& session : to_join) {
    if (session.joinable()) session.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

std::size_t QueryServer::session_threads() const {
  util::MutexLock lock(sessions_mu_);
  return sessions_.size();
}

void QueryServer::acceptor_main() {
  for (;;) {
    sockaddr_in peer{};
    socklen_t len = sizeof(peer);
    const int fd =
        ::accept(listen_fd_, reinterpret_cast<sockaddr*>(&peer), &len);
    if (fd < 0) {
      if (stopping_.load() || (errno != EINTR && errno != ECONNABORTED)) {
        break;
      }
      continue;
    }
    if (stopping_.load()) {
      ::close(fd);
      break;
    }
    util::MutexLock lock(sessions_mu_);
    // Reuse a finished session's slot.  Its fd is -1 only after the
    // session's last use of sessions_mu_ (it then only closes its fd),
    // so joining its thread here cannot deadlock.
    const std::size_t slot = static_cast<std::size_t>(
        std::find(session_fds_.begin(), session_fds_.end(), -1) -
        session_fds_.begin());
    if (slot == session_fds_.size()) {
      session_fds_.push_back(fd);
      sessions_.emplace_back();
    } else {
      sessions_[slot].join();
      session_fds_[slot] = fd;
    }
    sessions_[slot] = std::thread(&QueryServer::session_main, this, fd, slot);
  }
}

void QueryServer::session_main(int fd, std::size_t slot) {
  auto send_all = [fd](std::string_view text) {
    while (!text.empty()) {
      const ssize_t sent = ::send(fd, text.data(), text.size(), MSG_NOSIGNAL);
      if (sent <= 0) return false;
      text.remove_prefix(static_cast<std::size_t>(sent));
    }
    return true;
  };

  std::string buffer;
  char chunk[4096];
  // A line that outgrows kMaxLineBytes without a newline gets one ERR and
  // is then discarded byte-for-byte until its newline shows up — the
  // session survives garbage instead of buffering it.
  bool discarding = false;
  bool open = true;
  while (open) {
    const ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
    if (got <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(got));
    std::size_t start = 0;
    for (;;) {
      const std::size_t nl = buffer.find('\n', start);
      if (nl == std::string::npos) break;
      const std::string line = buffer.substr(start, nl - start);
      start = nl + 1;
      if (discarding) {
        // Tail of an oversized line already answered with ERR.
        discarding = false;
        continue;
      }
      QueryKind kind = QueryKind::kBest;
      const std::string reply = execute_line(line, &kind);
      if (!send_all(reply) || kind == QueryKind::kQuit) {
        open = false;
        break;
      }
    }
    buffer.erase(0, start);
    if (open && !discarding && buffer.size() > kMaxLineBytes) {
      discarding = true;
      completed_.fetch_add(1, std::memory_order_relaxed);
      if (!send_all(err_reply("request line exceeds " +
                              std::to_string(kMaxLineBytes) + " bytes"))) {
        open = false;
      }
      buffer.clear();
    } else if (open && discarding) {
      buffer.clear();
    }
  }
  // Clear the slot before closing: the peer sees EOF only after the
  // slot is free, so a client that reconnects after EOF finds it
  // reusable.  This is the session's last use of sessions_mu_.
  {
    util::MutexLock lock(sessions_mu_);
    session_fds_[slot] = -1;
  }
  ::close(fd);
}

std::string QueryServer::execute_line(const std::string& line,
                                      QueryKind* kind_out) {
  std::string error;
  const std::optional<Query> query = parse_query(line, &error);
  if (kind_out != nullptr) {
    *kind_out = query ? query->kind : QueryKind::kBest;
  }
  std::string reply;
  if (!query) {
    reply = err_reply(error);
  } else if (query->kind == QueryKind::kQuit) {
    reply = ok_header(QueryKind::kQuit, 0) + "END\n";
  } else if (stopping_.load()) {
    reply = err_reply("server is stopping");
  } else {
    try {
      reply = execute(*query);
    } catch (const std::exception& e) {
      reply = err_reply(e.what());
    } catch (...) {
      reply = err_reply("internal error");
    }
  }
  completed_.fetch_add(1, std::memory_order_relaxed);
  return reply;
}

std::string QueryServer::execute(const Query& query) {
  switch (query.kind) {
    case QueryKind::kBest: return answer_best();
    case QueryKind::kTopK: return answer_topk(query.k);
    case QueryKind::kPareto: return answer_pareto(query.metric);
    case QueryKind::kEval: return answer_eval(query);
    case QueryKind::kStats: return answer_stats();
    case QueryKind::kQuit: break;  // handled in execute_line
  }
  return err_reply("internal error: unhandled query kind");
}

// The best/topk/pareto answers fold the archive engine's result with
// the live delta: the engine's pruned scan already returns the exact
// archive-side answer (top_k/pareto are closed under refolding — the
// frontier of frontier(A) ∪ D is the frontier of A ∪ D, and likewise
// for the k-best), so re-running the reference reduction over
// engine-result + delta is byte-identical to the reference over the
// full union, while touching only zone-admitted blocks.  archive_mu_ is
// held for the delta copy alone; the archive scan and the table render
// both run outside it.

std::string QueryServer::answer_best() const {
  std::vector<explore::EvalResult> pool;
  if (std::optional<explore::EvalResult> archived = reader_.best()) {
    pool.push_back(std::move(*archived));
  }
  {
    util::ReaderLock lock(archive_mu_);
    pool.insert(pool.end(), delta_.begin(), delta_.end());
  }
  const explore::EvalResult* best = explore::best_result(pool);
  if (best == nullptr) {
    return err_reply("no feasible design point in the archive");
  }
  // explore::best_line is the very rendering explore_cli prints, so this
  // answer is byte-identical to the CLI's report over the same records.
  const std::string payload = explore::best_line(*best) + "\n";
  return ok_header(QueryKind::kBest, 1) + payload + "END\n";
}

std::string QueryServer::answer_topk(std::size_t k) const {
  std::vector<explore::EvalResult> pool = reader_.top_k(k);
  {
    util::ReaderLock lock(archive_mu_);
    pool.insert(pool.end(), delta_.begin(), delta_.end());
  }
  const std::string payload = explore::to_table(explore::top_k(pool, k))
                                  .to_text("top-k designs by speedup");
  return ok_header(QueryKind::kTopK, count_lines(payload)) + payload + "END\n";
}

std::string QueryServer::answer_pareto(explore::CostMetric metric) const {
  std::vector<explore::EvalResult> pool = reader_.pareto(metric);
  {
    util::ReaderLock lock(archive_mu_);
    pool.insert(pool.end(), delta_.begin(), delta_.end());
  }
  const std::string payload =
      explore::to_table(explore::pareto_frontier(pool, metric))
          .to_text(std::string("Pareto frontier (speedup vs. ") +
                   (metric == explore::CostMetric::kCoreArea ? "core area"
                                                             : "core count") +
                   ")");
  return ok_header(QueryKind::kPareto, count_lines(payload)) + payload +
         "END\n";
}

explore::EvalJob QueryServer::resolve_eval(const Query& query) const {
  explore::EvalJob job;
  core::EvalRequest& request = job.request;
  request.variant = core::parse_model_variant(query.variant);
  request.chip = core::ChipConfig{query.n, archive_.spec.perf};

  // Coordinates resolve against the archive's own scenario: what-if
  // points may leave the recorded *grid* (any n/r/rl), but not the
  // recorded *laws* — an app or growth outside the scenario could not be
  // warmed back from the log on the next start, so the answer would
  // silently stop being durable.
  const core::AppParams* app = nullptr;
  for (const auto& candidate : archive_.spec.apps) {
    if (candidate.name == query.app) app = &candidate;
  }
  if (app == nullptr) {
    throw std::invalid_argument("app '" + query.app +
                                "' is not part of this archive's scenario");
  }
  request.app = *app;
  const core::GrowthFunction* growth = nullptr;
  for (const auto& candidate : archive_.spec.growths) {
    if (candidate.name() == query.growth) growth = &candidate;
  }
  if (growth == nullptr) {
    throw std::invalid_argument("growth '" + query.growth +
                                "' is not part of this archive's scenario");
  }
  request.growth = *growth;
  request.r = query.r;
  request.rl = query.rl;
  if (core::is_asymmetric_variant(request.variant) && !(query.rl > 0.0)) {
    throw std::invalid_argument("eval: asymmetric variants need rl= > 0");
  }
  if (core::is_comm_variant(request.variant)) {
    if (query.topology == "-") {
      throw std::invalid_argument("eval: comm variants need topology=");
    }
    const noc::Topology topology = noc::parse_topology(query.topology);
    if (std::find(archive_.spec.topologies.begin(),
                  archive_.spec.topologies.end(),
                  topology) == archive_.spec.topologies.end()) {
      throw std::invalid_argument(
          "topology '" + query.topology +
          "' is not part of this archive's scenario");
    }
    request.comm_growth = core::comm_growth(topology);
    request.comp_share = archive_.spec.comp_share;
    job.topology = std::string(noc::topology_name(topology));
  }
  job.scenario = archive_.spec.name;
  job.index = 0;  // re-stamped when a live record is appended
  return job;
}

namespace {

std::string render_eval(const explore::EvalResult& result,
                        std::string_view source) {
  std::ostringstream os;
  os << "eval: variant=" << core::model_variant_name(result.variant)
     << " n=" << compact(result.n) << " app=" << result.app
     << " growth=" << result.growth << " topology=" << result.topology
     << " r=" << compact(result.r) << " rl=" << compact(result.rl)
     << " feasible=" << (result.feasible ? "yes" : "no")
     << " cores=" << compact(result.cores)
     << " speedup=" << compact(result.speedup) << " source=" << source
     << "\n";
  return ok_header(QueryKind::kEval, 1) + os.str() + "END\n";
}

}  // namespace

std::string QueryServer::answer_eval(const Query& query) {
  const explore::EvalJob job = resolve_eval(query);
  const explore::CacheKey key = explore::cache_key(job.request);
  bool hit = engine_.cache().contains(key);
  if (!hit) {
    // A sticky run-log failure means a fresh result could not be made
    // durable; shed the miss before spending compute on an answer the
    // next server start would not remember.
    if (degraded_.load(std::memory_order_relaxed)) {
      shed_degraded_.fetch_add(1, std::memory_order_relaxed);
      return err_reply(
          "degraded(archive-only): the run log is failing, so live "
          "evaluation is disabled; this point is not in the archive");
    }
    // One miss at a time: budget spend, log append, and archive insert
    // are a single step, so two sessions racing on the same fresh point
    // cannot double-evaluate or double-record it.
    util::MutexLock live(live_mu_);
    hit = engine_.cache().contains(key);
    if (!hit) {
      if (live_used_.load(std::memory_order_relaxed) >=
          options_.live_budget) {
        shed_busy_.fetch_add(1, std::memory_order_relaxed);
        return err_reply("busy: live evaluation budget exhausted (" +
                         std::to_string(options_.live_budget) +
                         " evaluations spent); this point is not in the "
                         "archive");
      }
      // Evaluate WITHOUT touching the memo cache: the entry is inserted
      // only after the record is durably logged, so a failed append
      // cannot leave behind a cached answer a restarted server would
      // not have.
      explore::EvalResult fresh =
          explore::evaluate_job(job, nullptr, /*use_cache=*/false);
      fresh.index = next_index_.fetch_add(1, std::memory_order_relaxed);
      if (log_ != nullptr) {
        try {
          log_->append(fresh);
          log_->flush();  // a kill -9 after this reply loses nothing
        } catch (const std::exception& error) {
          degraded_.store(true, std::memory_order_relaxed);
          shed_degraded_.fetch_add(1, std::memory_order_relaxed);
          return err_reply(
              std::string("degraded(archive-only): run log append failed "
                          "(") +
              error.what() + "); live evaluation disabled");
        }
      }
      live_used_.fetch_add(1, std::memory_order_relaxed);
      explore::EvalOutcome outcome;
      outcome.feasible = fresh.feasible;
      if (fresh.feasible) {
        outcome.point = core::DesignPoint{fresh.r, fresh.rl, fresh.speedup};
      }
      engine_.cache().insert(key, outcome);
      {
        util::WriterLock archive(archive_mu_);
        delta_.push_back(fresh);
      }
      return render_eval(fresh, "live");
    }
  }
  const explore::EvalResult result =
      explore::evaluate_job(job, &engine_.cache(), /*use_cache=*/true);
  return render_eval(result, "archive");
}

std::string QueryServer::answer_stats() {
  std::ostringstream os;
  {
    util::ReaderLock lock(archive_mu_);
    // Archived rows plus the live delta: the same total the record
    // vector used to report.
    os << "archive_records=" << reader_.row_count() + delta_.size() << "\n";
  }
  {
    // dir/config are immutable after construction; no lock needed, but
    // keeping the reads adjacent to the guarded count keeps the reply
    // layout unchanged.
    os << "archive_dir=" << archive_.dir << "\n"
       << "config=" << archive_.config << "\n";
  }
  const auto cache_stats = engine_.cache().stats();
  os << "cache_entries=" << engine_.cache().size() << "\n"
     << "cache_hits=" << cache_stats.hits << "\n"
     << "cache_misses=" << cache_stats.misses << "\n"
     << "queries=" << completed_.load(std::memory_order_relaxed) << "\n"
     << "live_evals=" << live_used_.load(std::memory_order_relaxed) << "\n"
     << "live_budget=" << options_.live_budget << "\n"
     << "degraded=" << (degraded_.load(std::memory_order_relaxed) ? 1 : 0)
     << "\n"
     << "shed_busy=" << shed_busy_.load(std::memory_order_relaxed) << "\n"
     << "shed_degraded=" << shed_degraded_.load(std::memory_order_relaxed)
     << "\n";
  const std::string payload = os.str();
  return ok_header(QueryKind::kStats, count_lines(payload)) + payload +
         "END\n";
}

}  // namespace mergescale::serve
