// The served-path benchmark's testable pieces: protocol response parsing,
// percentiles, the paper's accuracy bound, and the seed-keyed input cache.
// served_bench.cc drives the server with them; bench_lib_test.cc checks
// them in isolation.

#ifndef HKPR_PERFBENCH_BENCH_LIB_H_
#define HKPR_PERFBENCH_BENCH_LIB_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// One parsed `topk` response line:
///   ok graph=G version=V seed=S backend=B k=K cache=hit|miss n:s n:s ...
struct TopkResponse {
  std::string graph;
  uint64_t version = 0;
  uint32_t seed = 0;
  std::string backend;
  bool cache_hit = false;
  std::vector<uint32_t> nodes;
  std::vector<double> scores;
};

/// Parses a `topk` response. Returns false and sets `error` for an `err`
/// line, a missing or out-of-order field, a malformed number, a `k=` that
/// disagrees with the number of node:score pairs, or trailing junk.
bool ParseTopkResponse(std::string_view line, TopkResponse* out,
                       std::string* error);

/// One parsed `graph load` response line:
///   ok graph=G version=V nodes=N edges=M
struct LoadResponse {
  std::string graph;
  uint64_t version = 0;
  uint32_t nodes = 0;
  uint64_t edges = 0;
};

/// Parses a `graph load` response; same failure rules as ParseTopkResponse.
bool ParseLoadResponse(std::string_view line, LoadResponse* out,
                       std::string* error);

/// A percentile together with the number of samples it was taken over.
struct Percentile {
  double value = 0.0;
  size_t count = 0;
};

/// The q-quantile (0 <= q <= 1) of `samples` by linear interpolation
/// between closest ranks (numpy's default). An empty input gives
/// {0, 0}; callers check `count` before trusting the value.
Percentile PercentileOf(std::vector<double> samples, double q);

/// The paper's (d, eps_r, delta) guarantee for one normalized score:
/// relative error <= eps_r where the exact value exceeds delta, absolute
/// error <= eps_r * delta elsewhere.
bool ScoreWithinBound(double estimate, double exact, double eps_r,
                      double delta);

/// A generated graph the workloads serve. Every preset is a pure function
/// of the workload seed.
enum class GraphPreset {
  kRmatMedium,   ///< R-MAT scale 17, avg degree 18, largest component
  kPowerlaw20k,  ///< PowerlawCluster(20000, 4, 0.3): the server's default
};

/// Files holding one preset graph: a SNAP edge list and a v2 CSR snapshot.
struct InputFiles {
  std::string edges;
  std::string snapshot;
};

/// Returns the cached files for (preset, seed) under `dir`, generating
/// them on a miss. Files are written under a temporary name and renamed,
/// so a partial file never carries a final name; generation is
/// deterministic, so a hit and a miss yield byte-identical files. Returns
/// false with `error` set when the directory or a file cannot be written.
bool EnsureInputs(GraphPreset preset, uint64_t seed, const std::string& dir,
                  InputFiles* files, std::string* error);

}  // namespace perfbench

#endif  // HKPR_PERFBENCH_BENCH_LIB_H_
