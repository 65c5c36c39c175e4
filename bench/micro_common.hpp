// Shared main() for the google-benchmark micro benches, adding the repo's
// `--json PATH` convention on top of the standard benchmark flags: results
// still print to the console exactly as before, and a machine-readable row
// per benchmark (name, iterations, per-iteration real/cpu time,
// items/bytes per second) is written to PATH. Unlike the sweep benches'
// --json, micro timings are wall-clock by nature — the file is for
// tracking and tooling, not for byte-identity gates.
//
// Kept separate from teamnet_bench_common so the scenario benches don't
// pick up a link dependency on the google-benchmark library.
#pragma once

namespace teamnet::bench {

/// Drop-in replacement for BENCHMARK_MAIN()'s body: strips `--json PATH`,
/// forwards everything else to benchmark::Initialize, runs the registered
/// benchmarks with a console+collecting reporter, and writes the JSON
/// sink if requested. Returns the process exit code: 1 for an unrecognized
/// argument or a --benchmark_format other than console.
int micro_main(int argc, char** argv);

}  // namespace teamnet::bench
