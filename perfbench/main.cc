// perfbench — runs one workload of the repository benchmark and prints
// its record as one JSON line. perfbench/run.py builds it, runs it and turns
// the record into the benchmark's result line; see perfbench/NOTES.md.
//
//   perfbench --workload=release|serve --seed=N --seconds=S
//             --trace=0|1 --work-dir=DIR --serve-bin=PATH
//
// Exit codes: 0 the run completed (failed operations are counted in the
// record, not signalled here), 1 the harness could not run, 2 bad usage.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "common/thread_pool.h"
#include "bench.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

std::string WriteDatasetCsv(const RunConfig& config, const std::string& stem,
                            const std::string& csv_text) {
  const std::string path = config.work_dir + "/" + stem + ".csv";
  std::ofstream(path, std::ios::binary) << csv_text;
  return path;
}

}  // namespace perfbench

namespace {

bool ParseFlag(const std::string& arg, const char* name, std::string* value) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig config;
  std::string value;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (ParseFlag(arg, "workload", &value)) {
      config.workload = value;
    } else if (ParseFlag(arg, "seed", &value)) {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "seconds", &value)) {
      config.seconds = std::atoi(value.c_str());
    } else if (ParseFlag(arg, "trace", &value)) {
      config.trace = value == "1";
    } else if (ParseFlag(arg, "work-dir", &value)) {
      config.work_dir = value;
    } else if (ParseFlag(arg, "serve-bin", &value)) {
      config.serve_binary = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  if (config.workload.empty() || config.work_dir.empty() || config.seconds < 1) {
    std::fprintf(stderr,
                 "usage: perfbench --workload=W --seed=N --seconds=S "
                 "--trace=0|1 --work-dir=DIR [--serve-bin=PATH]\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(config.work_dir, ec);

  Recorder recorder;
  Tracer tracer;
  int rc = 2;
  if (config.workload == "release") {
    rc = RunReleaseWorkload(config, &recorder, &tracer);
  } else if (config.workload == "serve") {
    rc = RunServeWorkload(config, &recorder, &tracer);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 config.workload.c_str());
  }
  if (rc != 0) return rc;

  if (config.trace) {
    const std::string path = config.work_dir + "/spans-" + config.workload + "-" +
                             std::to_string(config.seed) + ".json";
    const vadasa::Status written = tracer.Write(path);
    if (!written.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", written.ToString().c_str());
      return 1;
    }
    recorder.Note("spans", path);
  }

  const char* threads = std::getenv("VADASA_THREADS");
  vadasa::Json record = recorder.ToJson();
  record["workload"] = config.workload;
  record["seed"] = config.seed;
  record["seconds"] = config.seconds;
  record["trace"] = config.trace;
  record["attempted"] = static_cast<int64_t>(recorder.attempted());
  record["failed"] = static_cast<int64_t>(recorder.failed());
  record["checks_failed"] = static_cast<int64_t>(recorder.checks_failed());
  record["provenance"] = vadasa::Json::Object{
      {"build_type", vadasa::Json(PERFBENCH_BUILD_TYPE)},
      {"compiler", vadasa::Json(__VERSION__)},
      {"nproc", vadasa::Json(static_cast<int64_t>(sysconf(_SC_NPROCESSORS_ONLN)))},
      {"vadasa_threads", vadasa::Json(threads != nullptr ? threads : "unset")},
      {"global_pool_threads",
       vadasa::Json(static_cast<int64_t>(vadasa::ThreadPool::Global().num_threads()))}};
  std::printf("%s\n", record.Dump().c_str());
  std::fflush(stdout);
  return 0;
}
