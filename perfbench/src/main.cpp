// The repository benchmark driver. One run = one workload for a fixed
// time; the last stdout line is the JSON result (end-to-end metrics, or
// the per-layer ones with --trace 1). perfbench/run.py builds and calls
// it; see perfbench/NOTES.md for the workloads and metrics.
//
//   perfbench --workload cold_sweep|cli_snapshot --seed N --seconds S
//             --trace 0|1 --bin-dir D --repo R --work W [--corrupt]
//             [--setup-only]
//
// --setup-only runs the workload's set-up alone and prints
// "setup_s <seconds>", timed from the start of main; the untraced run
// starts itself this way kSetups times to measure setup_s.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opts;
  opts.start_s = now_s();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--corrupt") {
      opts.corrupt = true;
      continue;
    }
    if (arg == "--setup-only") {
      opts.setup_only = true;
      continue;
    }
    if (value == nullptr) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", arg.c_str());
      return 2;
    }
    ++i;
    if (arg == "--workload") opts.workload = value;
    else if (arg == "--seed") opts.seed = std::strtoull(value, nullptr, 10);
    else if (arg == "--seconds") opts.seconds = std::strtod(value, nullptr);
    else if (arg == "--trace") opts.trace = std::strcmp(value, "0") != 0;
    else if (arg == "--bin-dir") opts.bin_dir = value;
    else if (arg == "--repo") opts.repo_dir = value;
    else if (arg == "--work") opts.work_dir = value;
    else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", arg.c_str());
      return 2;
    }
  }
  if (opts.bin_dir.empty() || opts.repo_dir.empty() || opts.work_dir.empty() ||
      opts.seconds <= 0) {
    std::fprintf(stderr, "perfbench: --bin-dir, --repo, --work and a positive "
                         "--seconds are required\n");
    return 2;
  }

  Report report;
  try {
    // Tools run with the work directory as their cwd.
    for (std::string* dir : {&opts.bin_dir, &opts.repo_dir, &opts.work_dir}) {
      *dir = std::filesystem::absolute(*dir).lexically_normal().string();
    }
    if (opts.workload == "cold_sweep") {
      run_cold_sweep(opts, report);
    } else if (opts.workload == "cli_snapshot") {
      run_cli_snapshot(opts, report);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   opts.workload.c_str());
      return 2;
    }
    if (opts.setup_only) {
      std::printf("setup_s %.17g\n", report.value("setup_s"));
      return 0;
    }
    if (opts.trace) run_layers(opts, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  report.print();
  return 0;
}
