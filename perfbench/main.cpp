/// \file main.cpp
/// perfbench: runs one benchmark workload in this process and prints
/// one JSON record of its metrics, exact counts, and failures on the last
/// line of standard output. perfbench/run.py builds it, checks the record
/// against the recorded references, and prints the benchmark result.
///
///   perfbench --workload <name> --seed <n> --seconds <s>
///                    --trace <0|1> [--smoke] [--k-ref <k> --k-pcm <pcm>]
///                    [--trace-dir <dir>]
///   perfbench --print-stream <count> --seed <n>

#include <cstdio>
#include <exception>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>

#include "perfbench.h"

namespace {

using perfbench::json_number;
using perfbench::json_quote;
using perfbench::Options;
using perfbench::Result;

template <class Map, class Fmt>
std::string object(const Map& m, Fmt&& fmt) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) out += ", ";
    first = false;
    out += json_quote(k) + ": " + fmt(v);
  }
  return out + "}";
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <c5g7-managed|"
               "c5g7-decomp-cmfd|engine-screen> --seed <n> --seconds <s> "
               "--trace <0|1> [--smoke] [--k-ref <k> --k-pcm <pcm>] "
               "[--trace-dir <dir>]\n"
               "       perfbench --print-stream <count> --seed <n>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  int print_stream = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    try {
      if (a == "--workload") opt.workload = next();
      else if (a == "--seed") opt.seed = std::stoull(next());
      else if (a == "--seconds") opt.seconds = std::stod(next());
      else if (a == "--trace") opt.trace = next() == "1";
      else if (a == "--smoke") opt.smoke = true;
      else if (a == "--k-ref") opt.k_ref = std::stod(next());
      else if (a == "--k-pcm") opt.k_pcm = std::stod(next());
      else if (a == "--trace-dir") opt.trace_dir = next();
      else if (a == "--print-stream") print_stream = std::stoi(next());
      else return usage();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bad argument %s: %s\n", a.c_str(), e.what());
      return usage();
    }
  }

  if (print_stream >= 0) {
    for (const std::string& d : perfbench::scenario_pool_descriptions(opt.seed))
      std::printf("pool %s\n", d.c_str());
    for (int idx : perfbench::scenario_stream(opt.seed, print_stream))
      std::printf("%d\n", idx);
    return 0;
  }

  Result r;
  try {
    if (opt.workload == "c5g7-managed")
      r = perfbench::run_c5g7_managed(opt);
    else if (opt.workload == "c5g7-decomp-cmfd")
      r = perfbench::run_c5g7_decomp_cmfd(opt);
    else if (opt.workload == "engine-screen")
      r = perfbench::run_engine_screen(opt);
    else
      return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n",
                 opt.workload.c_str(), e.what());
    return 1;
  }

  if (opt.trace && !opt.trace_dir.empty()) {
    const std::string path = opt.trace_dir + "/trace-" + opt.workload +
                             "-seed" + std::to_string(opt.seed) + ".json";
    if (perfbench::Tracer::instance().write(path))
      r.info["trace_file"] = path;
    else
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
  }

  std::map<std::string, std::string> host = {
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"compiler", PERFBENCH_COMPILER},
      {"flags", PERFBENCH_FLAGS},
      {"build_type", PERFBENCH_BUILD_TYPE}};
  std::string fail_list = "[";
  for (std::size_t i = 0; i < r.failures.size(); ++i)
    fail_list += (i ? ", " : "") + json_quote(r.failures[i]);
  fail_list += "]";

  std::printf(
      "{\"workload\": %s, \"seed\": %llu, \"trace\": %d, \"smoke\": %d, "
      "\"attempted\": %ld, \"failed\": %ld, \"failures\": %s, "
      "\"metrics\": %s, \"exact\": %s, \"info\": %s, \"host\": %s}\n",
      json_quote(opt.workload).c_str(),
      static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0,
      opt.smoke ? 1 : 0, r.attempted, r.failed, fail_list.c_str(),
      object(r.metrics, json_number).c_str(),
      object(r.exact, json_number).c_str(), object(r.info, json_quote).c_str(),
      object(host, json_quote).c_str());
  return 0;
}
