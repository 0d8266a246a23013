// Tests of the served-path benchmark's own pieces.
//
//   bench_lib_test <work-dir>
//
// Exits 0 when every check passes; prints each failed check otherwise.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "bench_lib.h"
#include "graph/graph_io.h"
#include "hkpr/power_method.h"
#include "hkpr/queries.h"
#include "hkpr/tea_plus.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: FAILED %s\n", __FILE__, __LINE__, #cond); \
      ++failures;                                                      \
    }                                                                  \
  } while (0)

bool Near(double a, double b) { return std::abs(a - b) < 1e-9; }

void TestTopkParser() {
  using perfbench::ParseTopkResponse;
  perfbench::TopkResponse r;
  std::string error;
  EXPECT(ParseTopkResponse(
      "ok graph=g version=3 seed=17 backend=tea+ k=2 cache=hit 17:0.25 "
      "4:1.5e-05",
      &r, &error));
  EXPECT(r.graph == "g" && r.version == 3 && r.seed == 17);
  EXPECT(r.backend == "tea+" && r.cache_hit);
  EXPECT(r.nodes.size() == 2 && r.nodes[1] == 4 && Near(r.scores[1], 1.5e-5));
  EXPECT(ParseTopkResponse(
      "ok graph=g version=1 seed=0 backend=tea+ k=0 cache=miss", &r, &error));
  EXPECT(!r.cache_hit && r.nodes.empty());

  const char* bad[] = {
      "",
      "err status=rejected",
      "err unknown graph \"g\" (graph load/use first)",
      "ok",
      "ok graph=g version=x seed=1 backend=tea+ k=1 cache=hit 1:0.5",
      "ok graph=g version=1 seed=-1 backend=tea+ k=1 cache=hit 1:0.5",
      "ok graph=g seed=1 version=1 backend=tea+ k=1 cache=hit 1:0.5",
      "ok graph=g version=1 seed=1 backend=tea+ k=2 cache=hit 1:0.5",
      "ok graph=g version=1 seed=1 backend=tea+ k=1 cache=warm 1:0.5",
      "ok graph=g version=1 seed=1 backend=tea+ k=1 cache=hit 1-0.5",
      "ok graph=g version=1 seed=1 backend=tea+ k=1 cache=hit 1:nan",
      "ok graph=g version=1 seed=1 backend=tea+ k=1 cache=hit 1:0.5x",
      "ok graph=g version=1 seed=1 backend=tea+ k=1 cache=hit 1:0.5 ",
      "ok graph=g version=1 seed=1 backend=tea+ k=1 cache=hit 1:0.5 2:0.1",
      "ok graph=g version=1 seed=1 backend=tea+ k=1  cache=hit 1:0.5",
  };
  for (const char* line : bad) {
    error.clear();
    const bool parsed = ParseTopkResponse(line, &r, &error);
    EXPECT(!parsed && !error.empty());
    if (parsed) std::fprintf(stderr, "  accepted: \"%s\"\n", line);
  }
}

void TestLoadParser() {
  using perfbench::ParseLoadResponse;
  perfbench::LoadResponse r;
  std::string error;
  EXPECT(ParseLoadResponse("ok graph=g version=7 nodes=20000 edges=79566", &r,
                           &error));
  EXPECT(r.graph == "g" && r.version == 7 && r.nodes == 20000 &&
         r.edges == 79566);
  const char* bad[] = {
      "err cannot load x: not found",
      "ok graph=g version=7 nodes=20000",
      "ok graph=g version=7 nodes=20000 edges=79566 extra",
      "ok graph=g version=7 nodes=2e4 edges=79566",
      "ok graph=g version=1 seed=1 backend=tea+ k=0 cache=hit",
  };
  for (const char* line : bad) {
    error.clear();
    EXPECT(!ParseLoadResponse(line, &r, &error) && !error.empty());
  }
}

void TestPercentile() {
  using perfbench::PercentileOf;
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);  // unsorted input
  EXPECT(PercentileOf(hundred, 0.5).count == 100);
  EXPECT(Near(PercentileOf(hundred, 0.5).value, 50.5));
  EXPECT(Near(PercentileOf(hundred, 0.95).value, 95.05));
  EXPECT(Near(PercentileOf(hundred, 0.0).value, 1.0));
  EXPECT(Near(PercentileOf(hundred, 1.0).value, 100.0));
  EXPECT(Near(PercentileOf({4.0, 1.0, 3.0}, 0.5).value, 3.0));
  const perfbench::Percentile one = PercentileOf({2.5}, 0.95);
  EXPECT(one.count == 1 && Near(one.value, 2.5));
  const perfbench::Percentile none = PercentileOf({}, 0.5);
  EXPECT(none.count == 0 && none.value == 0.0);
}

void TestAccuracyBound(const hkpr::Graph& graph) {
  using perfbench::ScoreWithinBound;
  // Relative regime (exact > delta) and absolute regime (exact <= delta).
  EXPECT(ScoreWithinBound(1e-3, 1e-3, 0.5, 1e-4));
  EXPECT(ScoreWithinBound(1.49e-3, 1e-3, 0.5, 1e-4));
  EXPECT(!ScoreWithinBound(1.51e-3, 1e-3, 0.5, 1e-4));
  EXPECT(!ScoreWithinBound(0.49e-3, 1e-3, 0.5, 1e-4));
  EXPECT(ScoreWithinBound(1e-5 + 0.49e-4, 1e-5, 0.5, 1e-4));
  EXPECT(!ScoreWithinBound(1e-5 + 0.51e-4, 1e-5, 0.5, 1e-4));

  // On a real graph: the exact scores pass, TEA+'s answers pass, and each
  // answer moved by three times its allowed error is flagged.
  hkpr::ApproxParams params;
  params.delta = 1.0 / graph.NumNodes();
  const hkpr::NodeId seed = 5;
  std::vector<double> exact = hkpr::ExactHkpr(graph, params.t, seed);
  hkpr::NormalizeByDegree(graph, exact);
  hkpr::TeaPlusEstimator estimator(graph, params, 7);
  const std::vector<hkpr::ScoredNode> top =
      hkpr::TopKQuery(graph, estimator, seed, 10);
  EXPECT(top.size() == 10);
  for (const hkpr::ScoredNode& s : top) {
    EXPECT(ScoreWithinBound(exact[s.node], exact[s.node], params.eps_r,
                            params.delta));
    EXPECT(ScoreWithinBound(s.score, exact[s.node], params.eps_r,
                            params.delta));
    const double allowed =
        params.eps_r * std::max(exact[s.node], params.delta);
    EXPECT(!ScoreWithinBound(s.score + 3.0 * allowed, exact[s.node],
                             params.eps_r, params.delta));
  }
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void TestInputCache(const std::string& work_dir) {
  namespace fs = std::filesystem;
  using perfbench::EnsureInputs;
  using perfbench::GraphPreset;
  const std::string a = work_dir + "/cache-a";
  const std::string b = work_dir + "/cache-b";
  fs::remove_all(a);
  fs::remove_all(b);
  perfbench::InputFiles miss, hit, fresh, other;
  std::string error;
  EXPECT(EnsureInputs(GraphPreset::kPowerlaw20k, 11, a, &miss, &error));
  const std::string edges = ReadFile(miss.edges);
  const std::string snapshot = ReadFile(miss.snapshot);
  EXPECT(!edges.empty() && !snapshot.empty());
  const auto stamp = fs::last_write_time(miss.snapshot);
  EXPECT(EnsureInputs(GraphPreset::kPowerlaw20k, 11, a, &hit, &error));
  EXPECT(hit.edges == miss.edges && hit.snapshot == miss.snapshot);
  EXPECT(fs::last_write_time(hit.snapshot) == stamp);  // not regenerated
  EXPECT(EnsureInputs(GraphPreset::kPowerlaw20k, 11, b, &fresh, &error));
  EXPECT(ReadFile(fresh.edges) == edges);
  EXPECT(ReadFile(fresh.snapshot) == snapshot);
  EXPECT(EnsureInputs(GraphPreset::kPowerlaw20k, 12, b, &other, &error));
  EXPECT(other.edges != fresh.edges && ReadFile(other.edges) != edges);
  // Both forms hold the same graph.
  const hkpr::Result<hkpr::Graph> from_edges = hkpr::LoadEdgeList(miss.edges);
  const hkpr::Result<hkpr::Graph> mapped = hkpr::MapBinary(miss.snapshot);
  EXPECT(from_edges.ok() && mapped.ok());
  if (from_edges.ok() && mapped.ok()) {
    EXPECT(from_edges.value().NumNodes() == mapped.value().NumNodes());
    EXPECT(from_edges.value().NumEdges() == mapped.value().NumEdges());
    TestAccuracyBound(mapped.value());
  }
  EXPECT(!EnsureInputs(GraphPreset::kPowerlaw20k, 11, miss.edges + "/sub",
                       &fresh, &error) &&
         !error.empty());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: bench_lib_test <work-dir>\n");
    return 2;
  }
  TestTopkParser();
  TestLoadParser();
  TestPercentile();
  TestInputCache(argv[1]);
  if (failures > 0) {
    std::fprintf(stderr, "bench_lib_test: %d checks failed\n", failures);
    return 1;
  }
  std::printf("bench_lib_test: all checks passed\n");
  return 0;
}
