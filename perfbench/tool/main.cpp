// perfbench_tool: the C++ side of the benchmark (perfbench/run.py drives
// it).  Subcommands:
//
//   load    open-loop TCP load generator against a running serve_cli
//   check   byte-compare sampled serve replies with in-process answers
//   layers  traced per-layer run over a finished benchmark journey
//
//   perfbench_tool <subcommand> --help

#include <cstring>
#include <exception>
#include <iostream>

namespace perfbench {
int run_load(int argc, const char* const* argv);
int run_check(int argc, const char* const* argv);
int run_layers(int argc, const char* const* argv);
}  // namespace perfbench

int main(int argc, char** argv) try {
  if (argc < 2) {
    std::cerr << "usage: perfbench_tool load|check|layers [options]\n";
    return 2;
  }
  // The subcommand takes argv[0]'s place for its own option parser.
  const char* const* rest = argv + 1;
  if (std::strcmp(argv[1], "load") == 0) {
    return perfbench::run_load(argc - 1, rest);
  }
  if (std::strcmp(argv[1], "check") == 0) {
    return perfbench::run_check(argc - 1, rest);
  }
  if (std::strcmp(argv[1], "layers") == 0) {
    return perfbench::run_layers(argc - 1, rest);
  }
  std::cerr << "perfbench_tool: unknown subcommand " << argv[1] << "\n";
  return 2;
} catch (const std::exception& e) {
  std::cerr << "perfbench_tool: " << e.what() << "\n";
  return 1;
}
