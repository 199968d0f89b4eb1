// are_perfbench: the measured side of the repository benchmark. run.py
// generates the inputs with `gen`, then runs one mode per workload:
//
//   are_perfbench gen --workload W --seed N --dir D [--smoke]
//   are_perfbench batch_pml   --dir D --seconds S --trace 0|1 --out F [--trace-out T]
//   are_perfbench out_of_core --dir D --seconds S --trace 0|1 --out F [--trace-out T]
//   are_perfbench serve   --dir D --socket P --out F [--trace 1 --trace-out T]
//   are_perfbench loadgen --socket P --seconds S --rate R --seed N --out F ...
//   are_perfbench info
//
// Each mode writes its metrics, gate outcomes and notes as one JSON object
// to --out; a failed gate makes the exit status 3.

#include <cstdio>
#include <exception>
#include <string>

#include "inputs.hpp"
#include "modes.hpp"
#include "simd/dispatch.hpp"

#ifndef ARE_PERFBENCH_COMPILER
#define ARE_PERFBENCH_COMPILER "unknown"
#endif
#ifndef ARE_PERFBENCH_BUILD_TYPE
#define ARE_PERFBENCH_BUILD_TYPE "unknown"
#endif

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) {
    std::fprintf(stderr, "usage: are_perfbench gen|batch_pml|out_of_core|serve|loadgen|info ...\n");
    return 2;
  }
  const std::string mode = argv[1];
  try {
    const Flags flags(argc, argv, 2);
    if (mode == "gen") {
      generate_inputs(shape_for(flags.require("workload"), flags.has("smoke")),
                      flags.get_u64("seed", 1), flags.require("dir"));
      return 0;
    }
    if (mode == "batch_pml") return run_batch(flags);
    if (mode == "out_of_core") return run_out_of_core(flags);
    if (mode == "serve") return run_serve(flags);
    if (mode == "loadgen") return run_loadgen(flags);
    if (mode == "info") {
      std::printf("{\"compiler\":\"%s\",\"build_type\":\"%s\",\"simd_compiled\":\"%s\","
                  "\"simd_detected\":\"%s\",\"simd_best\":\"%s\"}\n",
                  ARE_PERFBENCH_COMPILER, ARE_PERFBENCH_BUILD_TYPE,
                  are::simd::describe_mask(are::simd::compiled_extensions()).c_str(),
                  are::simd::describe_mask(are::simd::detected_extensions()).c_str(),
                  json_escape(are::simd::best_extension_reason()).c_str());
      return 0;
    }
    std::fprintf(stderr, "unknown mode '%s'\n", mode.c_str());
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "are_perfbench %s: %s\n", mode.c_str(), error.what());
    return 1;
  }
}
