// esvabench: one repetition of one benchmark workload per invocation.
//
//   esvabench batch-fig2   --seed S --trace 0|1 --t0-ns NS
//   esvabench stream-fleet --seed S --trace 0|1 --t0-ns NS [--check 1]
//   esvabench serve-mixed  --seed S --trace 0|1 --t0-ns NS --seconds T
//                          --esva PATH   (run inside a scratch directory)
//   esvabench fingerprint
//
// --t0-ns is the launcher's CLOCK_MONOTONIC stamp taken just before it
// spawned this process, so setup_s covers process start-up too. Each run
// prints one JSON line; perfbench/run.py aggregates them.

#include <unistd.h>

#include <iostream>
#include <string>

#include "workloads.h"

#ifndef ESVABENCH_BUILD_TYPE
#define ESVABENCH_BUILD_TYPE "unknown"
#endif

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: esvabench <batch-fig2|stream-fleet|serve-mixed|"
                 "fingerprint> [--key value ...]\n";
    return 2;
  }
  const std::string what = argv[1];
  const esvabench::Args args(argc, argv, 2);
  try {
    if (what == "batch-fig2") return esvabench::batch_fig2(args);
    if (what == "stream-fleet") return esvabench::stream_fleet(args);
    if (what == "serve-mixed") return esvabench::serve_mixed(args);
    if (what == "fingerprint") {
      // Asserts are live when this file, compiled with the library's own
      // flags, has NDEBUG undefined.
#ifdef NDEBUG
      const bool asserts = false;
#else
      const bool asserts = true;
#endif
      std::cout << esvabench::JsonOut()
                       .num("nproc", double(::sysconf(_SC_NPROCESSORS_ONLN)))
                       .str("compiler", __VERSION__)
                       .str("build_type", ESVABENCH_BUILD_TYPE)
                       .boolean("asserts_live", asserts)
                       .str()
                << std::endl;
      return 0;
    }
  } catch (const std::exception& e) {
    std::cerr << what << ": " << e.what() << '\n';
    return 1;
  }
  std::cerr << "unknown workload '" << what << "'\n";
  return 2;
}
