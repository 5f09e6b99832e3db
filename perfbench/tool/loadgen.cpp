// `perfbench_tool load`: the open-loop TCP load generator.
//
// One process, kConns connections, at most one request in flight per
// connection (no pipelining: pipelined cheap queries against a
// server without TCP_NODELAY stall on Nagle + delayed ACK).  Requests
// are due on a fixed schedule regardless of how fast replies come back,
// and each is timed from when it was *due*, so a stalled server's
// backlog shows up as latency of the requests queued behind it.
//
// Schedule: a discarded warm-up at the low rate (lets the server's
// throughput probe settle), then kRounds rounds of three segments: a
// measured low-rate segment, a measured high-rate segment, and a segment
// of the heavy `pareto` class at its own rate over unmeasured low-rate
// traffic.  Each class's samples are thus spread over the whole schedule,
// so a slow spell of the host lands on all of them instead of on one
// contiguous phase.  Pareto runs in segments of its own because one
// pareto costs hundreds of cheap queries: with the probe's admitted
// concurrency at 1, every cheap query queued behind it would wait out its
// whole run, so mixed into the interactive segments it would set their
// tail, not measure it.  Every request's class and arguments are a
// function of (--seed, its position), so the same seed sends the same
// requests.  After the schedule, a closed-loop batch of
// best/topk/pareto/eval/stats queries is sent for the correctness check.

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <iostream>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "search/space.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

namespace ms = mergescale;

/// The four interactive classes first, then the heavy one.
enum class Cls { kBest, kTopK, kEval, kStats, kPareto };
constexpr const char* kClassNames[] = {"best", "topk", "eval", "stats",
                                       "pareto"};
constexpr std::size_t kClasses = 5;

enum Phase { kWarmup, kLow, kHigh, kPareto };

struct Planned {
  double due = 0.0;  ///< seconds after the schedule starts
  Phase phase = kWarmup;
  Cls cls = Cls::kBest;
  std::string line;
  std::int64_t flat = -1;
  bool sample = false;
};

/// Zipf exponent of skewed `eval` coordinates: YCSB's default Zipfian
/// constant.
constexpr double kZipfExponent = 0.99;

/// Draws the grid points `eval` requests name.  Uniform over the valid
/// points of the recorded space, or Zipf-skewed (kZipfExponent) over
/// ranks mapped to grid points by a seeded affine permutation, so a few
/// points are asked often and a long tail rarely.
class EvalPicker {
 public:
  EvalPicker(const ms::search::SearchSpace& space, bool zipf,
             std::uint64_t seed)
      : space_(space), zipf_(zipf) {
    const std::uint64_t n = space.size();
    ms::util::Xoshiro256 rng(seed ^ 0x5eedULL);
    offset_ = rng.bounded(n);
    stride_ = (rng.next() | 1) % n;
    while (std::gcd(stride_, n) != 1) stride_ = (stride_ + 1) % n;
    if (zipf_) {
      cdf_.resize(n);
      double sum = 0.0;
      for (std::uint64_t rank = 0; rank < n; ++rank) {
        sum += std::pow(static_cast<double>(rank + 1), -kZipfExponent);
        cdf_[rank] = sum;
      }
      for (double& value : cdf_) value /= sum;
    }
  }

  /// A valid grid point (one that maps to a job) and its job.
  std::int64_t pick(ms::util::Xoshiro256& rng, ms::explore::EvalJob* job) {
    const std::uint64_t n = space_.size();
    for (;;) {
      std::uint64_t flat = 0;
      if (zipf_) {
        const double u = rng.uniform();
        const auto rank = static_cast<std::uint64_t>(
            std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
        flat = static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(std::min(rank, n - 1)) * stride_ +
             offset_) %
            n);
      } else {
        flat = rng.bounded(n);
      }
      if (space_.job_at(space_.decode(flat), job)) {
        return static_cast<std::int64_t>(flat);
      }
    }
  }

 private:
  const ms::search::SearchSpace& space_;
  bool zipf_;
  std::uint64_t offset_ = 0;
  std::uint64_t stride_ = 1;
  std::vector<double> cdf_;
};

struct Conn {
  int fd = -1;
  bool busy = false;
  std::size_t request = 0;
  double sent = 0.0;
  std::string buffer;
};

int connect_to(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  // One write per request; never let the client side hold it back.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool send_line(int fd, const std::string& line) {
  const std::string text = line + "\n";
  std::size_t done = 0;
  while (done < text.size()) {
    const ssize_t sent = ::send(fd, text.data() + done, text.size() - done,
                                MSG_NOSIGNAL);
    if (sent <= 0) return false;
    done += static_cast<std::size_t>(sent);
  }
  return true;
}

/// Length of the first complete framed reply in `buffer`, or 0 while it
/// is still partial: `ERR ...\n`, or `OK <kind> lines=N\n` + N lines +
/// `END\n`.
std::size_t complete_reply(const std::string& buffer) {
  const std::size_t header_end = buffer.find('\n');
  if (header_end == std::string::npos) return 0;
  if (buffer.rfind("ERR", 0) == 0) return header_end + 1;
  const std::size_t at = buffer.find("lines=");
  if (at == std::string::npos || at > header_end) return header_end + 1;
  const std::size_t lines = std::stoul(buffer.substr(at + 6));
  std::size_t pos = header_end + 1;
  for (std::size_t i = 0; i <= lines; ++i) {  // payload lines + END
    const std::size_t nl = buffer.find('\n', pos);
    if (nl == std::string::npos) return 0;
    pos = nl + 1;
  }
  return pos;
}

bool is_error(const std::string& reply) { return reply.rfind("OK ", 0) != 0; }

/// Sends one request and waits for its reply (closed loop).  Empty on a
/// transport failure or after `timeout_s`.
std::optional<std::string> round_trip(int fd, const std::string& line,
                                      double timeout_s) {
  if (fd < 0 || !send_line(fd, line)) return std::nullopt;
  const Clock::time_point start = Clock::now();
  std::string buffer;
  char chunk[65536];
  for (;;) {
    if (const std::size_t length = complete_reply(buffer)) {
      return buffer.substr(0, length);
    }
    const double left = timeout_s - seconds_since(start);
    if (left <= 0.0) return std::nullopt;
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(left * 1000.0) + 1) <= 0) continue;
    const ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
    if (got <= 0) return std::nullopt;
    buffer.append(chunk, static_cast<std::size_t>(got));
  }
}

std::string json_number(double value) {
  std::ostringstream os;
  os.precision(9);
  os << value;
  return os.str();
}

/// About one measured request in this many is recorded for the
/// correctness check.
constexpr std::uint64_t kSampleEvery = 50;

/// Connections, low/high/pareto rounds, and how long after it was due a
/// request may be answered before it fails.
constexpr std::size_t kConns = 4;
constexpr int kRounds = 4;
constexpr double kTimeoutS = 1.0;

/// Requests per p99 window: the 990th of 1000 leaves 10 samples beyond.
constexpr std::size_t kWindow = 1000;

/// Latency summary of one class in one phase, as JSON.  `latencies_ms`
/// is in due-time order.  p99 is the lower decile over consecutive
/// windows of kWindow requests of each window's p99 (pooled when there
/// are fewer than three windows).  On a shared VM the host takes the
/// guest's vCPUs away, or wakes them late, in episodes of seconds to
/// minutes that lift a window's p99 from a few hundred microseconds to
/// 3-20 ms and cover anywhere from none to all of a run; every estimator
/// that averages over the run's time (the pooled p99, the median window)
/// measures how much of the run fell into such episodes.  The lower
/// decile is the p99 the server delivers while the host leaves it alone.
/// The pooled p99 and the median window's are reported beside it.
std::string summary(const std::vector<double>& latencies_ms) {
  std::size_t beyond = 0;
  const double pooled = percentile(latencies_ms, 0.99, &beyond);
  const std::size_t windows = latencies_ms.size() / kWindow;
  std::vector<double> window_p99;
  double p99 = pooled;
  double median_window = pooled;
  if (windows >= 3) {
    for (std::size_t w = 0; w < windows; ++w) {
      const auto begin = latencies_ms.begin() +
                         static_cast<std::ptrdiff_t>(w * kWindow);
      window_p99.push_back(percentile(
          std::vector<double>(begin, begin + kWindow), 0.99, &beyond));
    }
    p99 = percentile(window_p99, 0.10);
    median_window = median(window_p99);
  }
  return "{\"count\":" + std::to_string(latencies_ms.size()) +
         ",\"p50_ms\":" + json_number(median(latencies_ms)) +
         ",\"p99_ms\":" + json_number(p99) +
         ",\"p99_median_window_ms\":" + json_number(median_window) +
         ",\"p99_pooled_ms\":" + json_number(pooled) +
         ",\"windows\":" + std::to_string(windows >= 3 ? windows : 1) +
         ",\"beyond_p99\":" + std::to_string(beyond) + "}";
}

}  // namespace

int run_load(int argc, const char* const* argv) {
  ms::util::Cli cli("perfbench_tool load",
                    "open-loop TCP load generator for serve_cli");
  cli.opt("port", static_cast<long long>(0), "serve_cli port on 127.0.0.1");
  cli.opt("run-dir", std::string(), "run directory the server serves");
  cli.opt("seed", static_cast<long long>(1), "request-stream seed");
  cli.opt("evals", std::string("uniform"),
          "eval coordinates: uniform (over recorded points) | zipf (over "
          "the whole grid)");
  cli.opt("low-rate", 200.0, "interactive requests/s in the low segments");
  cli.opt("high-rate", 1000.0, "interactive requests/s in the high segments");
  cli.opt("pareto-rate", 2.0, "pareto requests/s in the pareto segments");
  cli.opt("low-seconds", 10.0, "measured time at the low rate");
  cli.opt("high-seconds", 5.0, "measured time at the high rate");
  cli.opt("pareto-seconds", 3.0, "time in pareto segments");
  cli.opt("warmup-seconds", 1.0, "discarded warm-up at the low rate");
  cli.opt("samples", std::string(), "write sampled replies here");
  cli.flag("corrupt-sample",
           "alter one recorded reply (self-test of the correctness check)");
  if (!cli.parse(argc, argv)) return 0;

  const int port = static_cast<int>(cli.get_int("port"));
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const double warmup = cli.get_double("warmup-seconds");
  const double low_seconds = cli.get_double("low-seconds");
  const double high_seconds = cli.get_double("high-seconds");
  const std::string evals = cli.get_string("evals");
  if (evals != "uniform" && evals != "zipf") {
    throw std::invalid_argument("--evals expects uniform|zipf");
  }

  const ms::search::SearchSpace space(spec_of_run(cli.get_string("run-dir")));
  EvalPicker picker(space, evals == "zipf", seed);
  ms::util::Xoshiro256 rng(seed);

  // ---- the schedule -------------------------------------------------
  std::vector<Planned> plan;
  auto interactive = [&](Phase phase, double start, double seconds,
                         double rate) {
    const auto count = static_cast<std::size_t>(std::llround(seconds * rate));
    for (std::size_t i = 0; i < count; ++i) {
      Planned request;
      request.due = start + (static_cast<double>(i) + 0.5) / rate;
      request.phase = phase;
      // Equal shares, as in bench/bench_serve_throughput's mix (whose
      // fifth share, pareto, runs in segments of its own here).
      request.cls = static_cast<Cls>(rng.bounded(4));
      switch (request.cls) {
        case Cls::kEval: {
          ms::explore::EvalJob job;
          request.flat = picker.pick(rng, &job);
          request.line = eval_line(job);
          break;
        }
        case Cls::kTopK:
          request.line = "topk 5";
          break;
        case Cls::kBest:
          request.line = "best";
          break;
        default:
          request.line = "stats";
          break;
      }
      request.sample = request.cls != Cls::kStats &&
                       (phase == kLow || phase == kHigh) &&
                       rng.bounded(kSampleEvery) == 0;
      plan.push_back(std::move(request));
    }
  };
  const double low_rate = cli.get_double("low-rate");
  const double high_rate = cli.get_double("high-rate");
  const double pareto_rate = cli.get_double("pareto-rate");
  const double pareto_seconds = cli.get_double("pareto-seconds") / kRounds;
  const auto paretos =
      static_cast<std::size_t>(std::llround(pareto_seconds * pareto_rate));
  interactive(kWarmup, 0.0, warmup, low_rate);
  double start = warmup;
  std::size_t pareto_count = 0;
  for (int round = 0; round < kRounds; ++round) {
    interactive(kLow, start, low_seconds / kRounds, low_rate);
    start += low_seconds / kRounds;
    interactive(kHigh, start, high_seconds / kRounds, high_rate);
    start += high_seconds / kRounds;
    interactive(kPareto, start, pareto_seconds, low_rate);
    for (std::size_t j = 0; j < paretos; ++j, ++pareto_count) {
      Planned request;
      request.due = start + (static_cast<double>(j) + 0.5) / pareto_rate;
      request.phase = kPareto;
      request.cls = Cls::kPareto;
      request.line = pareto_count % 2 == 0 ? "pareto area" : "pareto cores";
      request.sample = pareto_count < 2;
      plan.push_back(std::move(request));
    }
    start += pareto_seconds;
  }
  std::stable_sort(plan.begin(), plan.end(),
                   [](const Planned& a, const Planned& b) {
                     return a.due < b.due;
                   });

  // ---- the open loop ------------------------------------------------
  std::vector<Conn> conns(kConns);
  std::uint64_t refused = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t err_replies = 0;
  std::uint64_t late_replies = 0;
  std::uint64_t failed_replies = 0;  ///< ERR or late, counted once
  struct Timed {
    double due;
    double ms;
    Cls cls;
  };
  std::vector<Timed> timed[2];  // [low/high]
  std::vector<double> pareto_ms;
  std::vector<double> lateness_ms;
  std::vector<Sample> samples;
  std::set<std::int64_t> eval_points;

  for (Conn& conn : conns) conn.fd = connect_to(port);

  auto finish = [&](Conn& conn, const std::string& reply, double now) {
    const Planned& request = plan[conn.request];
    const double latency = now - request.due;
    const bool error = is_error(reply);
    if (error) ++err_replies;
    if (latency > kTimeoutS) ++late_replies;
    if (error || latency > kTimeoutS) ++failed_replies;
    if (request.phase == kLow || request.phase == kHigh) {
      timed[request.phase == kLow ? 0 : 1].push_back(
          Timed{request.due, latency * 1e3, request.cls});
    } else if (request.cls == Cls::kPareto) {
      pareto_ms.push_back(latency * 1e3);
    }
    if (request.sample) {
      samples.push_back(Sample{"traffic", request.flat, request.line, reply});
    }
    if (request.cls == Cls::kEval) eval_points.insert(request.flat);
    conn.busy = false;
  };

  const Clock::time_point t0 = Clock::now();
  std::size_t next = 0;
  std::deque<std::size_t> pending;
  char chunk[65536];
  std::vector<pollfd> pfds;
  std::vector<std::size_t> polled;
  for (;;) {
    double now = seconds_since(t0);
    while (next < plan.size() && plan[next].due <= now) {
      if (plan[next].phase != kWarmup) {
        lateness_ms.push_back((now - plan[next].due) * 1e3);
      }
      pending.push_back(next++);
    }
    for (Conn& conn : conns) {
      if (pending.empty()) break;
      if (conn.busy) continue;
      if (conn.fd < 0) {
        conn.fd = connect_to(port);
        if (conn.fd < 0) {
          // A refused connection fails the request it was meant to carry.
          ++refused;
          pending.pop_front();
          continue;
        }
      }
      conn.request = pending.front();
      pending.pop_front();
      conn.buffer.clear();
      if (!send_line(conn.fd, plan[conn.request].line)) {
        ++refused;
        ::close(conn.fd);
        conn.fd = -1;
        continue;
      }
      conn.busy = true;
      conn.sent = seconds_since(t0);
    }
    bool any_busy = false;
    for (const Conn& conn : conns) any_busy = any_busy || conn.busy;
    if (next >= plan.size() && pending.empty() && !any_busy) break;

    // Spin: poll the busy connections without blocking.  A generator
    // that sleeps pays a wake-up (an inter-processor interrupt on a VM)
    // per reply and per due time, which lands in every latency it
    // reports; spinning keeps its own core awake and its timing exact.
    pfds.clear();
    polled.clear();
    for (std::size_t c = 0; c < conns.size(); ++c) {
      if (!conns[c].busy) continue;
      pfds.push_back(pollfd{conns[c].fd, POLLIN, 0});
      polled.push_back(c);
    }
    if (!pfds.empty() && ::poll(pfds.data(), pfds.size(), 0) < 0 &&
        errno != EINTR) {
      throw std::runtime_error(std::string("poll: ") + std::strerror(errno));
    }
    for (std::size_t p = 0; p < pfds.size(); ++p) {
      Conn& conn = conns[polled[p]];
      if ((pfds[p].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const ssize_t got = ::recv(conn.fd, chunk, sizeof(chunk), 0);
      if (got <= 0) {
        ++refused;  // dropped mid-request
        ::close(conn.fd);
        conn.fd = -1;
        conn.busy = false;
        continue;
      }
      conn.buffer.append(chunk, static_cast<std::size_t>(got));
      if (const std::size_t length = complete_reply(conn.buffer)) {
        finish(conn, conn.buffer.substr(0, length), seconds_since(t0));
      }
    }
    now = seconds_since(t0);
    for (Conn& conn : conns) {
      if (conn.busy && now - conn.sent > kTimeoutS) {
        ++timeouts;
        ::close(conn.fd);
        conn.fd = -1;
        conn.busy = false;
      }
    }
  }

  // ---- closed-loop check batch --------------------------------------
  std::vector<std::string> final_lines = {"best", "topk 5", "topk 20",
                                          "pareto area", "pareto cores"};
  std::vector<std::int64_t> final_flats(final_lines.size(), -1);
  for (const Sample& sample : samples) {
    if (sample.flat < 0 || final_flats.size() >= final_lines.size() + 64) {
      continue;
    }
    final_lines.push_back(sample.query);
    final_flats.push_back(sample.flat);
  }
  final_lines.push_back("stats");
  final_flats.push_back(-1);
  std::uint64_t final_failed = 0;
  std::map<std::string, std::string> stats;
  int fd = conns.front().fd >= 0 ? conns.front().fd : connect_to(port);
  conns.front().fd = fd;
  for (std::size_t i = 0; i < final_lines.size(); ++i) {
    const std::optional<std::string> reply =
        round_trip(fd, final_lines[i], kTimeoutS * 5);
    if (!reply || is_error(*reply)) {
      ++final_failed;
      continue;
    }
    if (final_lines[i] == "stats") {
      std::istringstream in(*reply);
      for (std::string line; std::getline(in, line);) {
        const std::size_t eq = line.find('=');
        if (eq != std::string::npos) {
          stats[line.substr(0, eq)] = line.substr(eq + 1);
        }
      }
    } else {
      samples.push_back(Sample{"final", final_flats[i], final_lines[i], *reply});
    }
  }
  for (Conn& conn : conns) {
    if (conn.fd >= 0) ::close(conn.fd);
  }

  if (cli.get_flag("corrupt-sample") && !samples.empty()) {
    std::string& reply = samples.front().reply;
    const std::size_t digit = reply.find_first_of("0123456789",
                                                  reply.find('\n') + 1);
    if (digit != std::string::npos) {
      reply[digit] = reply[digit] == '1' ? '2' : '1';
    }
  }
  if (const std::string path = cli.get_string("samples"); !path.empty()) {
    write_samples(path, samples);
  }

  // ---- report -------------------------------------------------------
  const std::size_t attempted = plan.size() + final_lines.size();
  const std::uint64_t failed =
      refused + timeouts + failed_replies + final_failed;
  std::ostringstream out;
  out << "{\"attempted\":" << attempted << ",\"failed\":" << failed
      << ",\"refused\":" << refused << ",\"timeouts\":" << timeouts
      << ",\"err_replies\":" << err_replies
      << ",\"late_replies\":" << late_replies
      << ",\"final_failed\":" << final_failed
      << ",\"samples\":" << samples.size()
      << ",\"distinct_eval_points\":" << eval_points.size()
      << ",\"lateness_p99_ms\":" << json_number(percentile(lateness_ms, 0.99))
      << ",\"lateness_max_ms\":"
      << json_number(lateness_ms.empty()
                         ? 0.0
                         : *std::max_element(lateness_ms.begin(),
                                             lateness_ms.end()));
  for (int p = 0; p < 2; ++p) {
    std::sort(timed[p].begin(), timed[p].end(),
              [](const Timed& a, const Timed& b) { return a.due < b.due; });
    auto of_class = [&](std::optional<Cls> cls) {
      std::vector<double> ms;
      for (const Timed& t : timed[p]) {
        if (!cls || t.cls == *cls) ms.push_back(t.ms);
      }
      return ms;
    };
    out << ",\"" << (p == 0 ? "low" : "high")
        << "\":{\"interactive\":" << summary(of_class(std::nullopt));
    for (std::size_t c = 0; c < kClasses; ++c) {
      if (static_cast<Cls>(c) == Cls::kPareto) continue;
      out << ",\"" << kClassNames[c]
          << "\":" << summary(of_class(static_cast<Cls>(c)));
    }
    out << "}";
  }
  out << ",\"pareto\":" << summary(pareto_ms);
  out << ",\"stats\":{";
  bool first = true;
  for (const char* key : {"concurrency_limit", "probe_windows", "live_evals",
                          "archive_records", "cache_entries", "queries"}) {
    const auto it = stats.find(key);
    out << (first ? "" : ",") << "\"" << key
        << "\":" << (it == stats.end() ? "-1" : it->second);
    first = false;
  }
  out << "}}";
  std::cout << out.str() << "\n";
  return 0;
}

}  // namespace perfbench
