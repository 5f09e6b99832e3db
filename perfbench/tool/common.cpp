#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>

#include "core/design_space.hpp"
#include "search/run_log.hpp"
#include "serve/archive.hpp"
#include "util/json.hpp"

namespace perfbench {

namespace mx = mergescale::explore;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

Tracer::Tracer() : epoch_(Clock::now()) {}

std::size_t Tracer::open(std::string_view name) {
  Span span;
  span.name = std::string(name);
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - epoch_)
                      .count();
  const std::size_t id = spans_.size();
  if (open_.empty()) {
    span.trace = static_cast<std::int64_t>(id);
  } else {
    span.parent = static_cast<std::int64_t>(open_.back());
    span.trace = spans_[open_.back()].trace;
  }
  spans_.push_back(std::move(span));
  open_.push_back(id);
  return id;
}

void Tracer::close(std::size_t id) {
  spans_[id].end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - epoch_)
                          .count();
  // Scopes close innermost first, so `id` is the top of the stack.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

double Tracer::total_ns(std::string_view name) const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.name == name) total += double(span.end_ns - span.start_ns);
  }
  return total;
}

std::vector<double> Tracer::durations_ns(std::string_view name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back(double(span.end_ns - span.start_ns));
  }
  return out;
}

std::vector<std::pair<std::string, double>> Tracer::self_ns() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = double(spans_[i].end_ns - spans_[i].start_ns);
  }
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      self[static_cast<std::size_t>(span.parent)] -=
          double(span.end_ns - span.start_ns);
    }
  }
  std::vector<std::pair<std::string, double>> out;
  std::map<std::string, std::size_t, std::less<>> slot;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto [it, fresh] = slot.try_emplace(spans_[i].name, out.size());
    if (fresh) out.emplace_back(spans_[i].name, 0.0);
    out[it->second].second += self[i];
  }
  return out;
}

void Tracer::write_ndjson(const std::string& path) const {
  std::ofstream out(path);
  for (const Span& span : spans_) {
    out << "{\"name\":\"" << mergescale::util::json_escape(span.name)
        << "\",\"start_ns\":" << span.start_ns << ",\"end_ns\":" << span.end_ns
        << ",\"parent\":" << span.parent << ",\"trace\":" << span.trace
        << "}\n";
  }
  if (!out) throw std::runtime_error("cannot write trace file " + path);
}

mx::ScenarioSpec spec_of_run(const std::string& run_dir) {
  const auto meta = mergescale::search::RunLog::read_meta(run_dir);
  if (!meta) throw std::runtime_error("no meta.json in " + run_dir);
  return mergescale::serve::spec_from_run_config(*meta);
}

namespace {

std::string exact(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

/// The server's number rendering in replies (serve/server.cpp).
std::string compact(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return buf;
}

}  // namespace

std::string eval_line(const mx::EvalJob& job) {
  namespace core = mergescale::core;
  const core::EvalRequest& request = job.request;
  std::string line = "eval variant=" +
                     std::string(core::model_variant_name(request.variant)) +
                     " n=" + exact(request.chip.n) + " app=" +
                     request.app.name + " growth=" + request.growth.name() +
                     " r=" + exact(request.r);
  if (core::is_asymmetric_variant(request.variant)) {
    line += " rl=" + exact(request.rl);
  }
  if (core::is_comm_variant(request.variant)) {
    line += " topology=" + job.topology;
  }
  return line;
}

std::string eval_reply_prefix(const mx::EvalResult& result) {
  return "eval: variant=" +
         std::string(mergescale::core::model_variant_name(result.variant)) +
         " n=" + compact(result.n) + " app=" + result.app +
         " growth=" + result.growth + " topology=" + result.topology +
         " r=" + compact(result.r) + " rl=" + compact(result.rl) +
         " feasible=" + (result.feasible ? "yes" : "no") +
         " cores=" + compact(result.cores) +
         " speedup=" + compact(result.speedup) + " source=";
}

void write_samples(const std::string& path,
                   const std::vector<Sample>& samples) {
  std::ofstream out(path, std::ios::binary);
  for (const Sample& sample : samples) {
    out << sample.phase << ' ' << sample.flat << ' ' << sample.query.size()
        << ' ' << sample.reply.size() << '\n'
        << sample.query << sample.reply;
  }
  if (!out) throw std::runtime_error("cannot write samples file " + path);
}

std::vector<Sample> read_samples(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read samples file " + path);
  std::vector<Sample> samples;
  Sample sample;
  std::size_t query_bytes = 0;
  std::size_t reply_bytes = 0;
  while (in >> sample.phase >> sample.flat >> query_bytes >> reply_bytes) {
    in.get();  // the header's newline
    sample.query.assign(query_bytes, '\0');
    sample.reply.assign(reply_bytes, '\0');
    in.read(sample.query.data(), static_cast<std::streamsize>(query_bytes));
    in.read(sample.reply.data(), static_cast<std::streamsize>(reply_bytes));
    if (!in) throw std::runtime_error("truncated samples file " + path);
    samples.push_back(sample);
  }
  return samples;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double percentile(std::vector<double> values, double p, std::size_t* beyond) {
  if (values.empty()) {
    if (beyond != nullptr) *beyond = 0;
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(p * static_cast<double>(values.size()))));
  if (beyond != nullptr) *beyond = values.size() - rank;
  return values[rank - 1];
}

}  // namespace perfbench
