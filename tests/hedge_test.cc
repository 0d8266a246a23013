// Tests for hedged requests (AsyncQueryService + HedgeOptions): hedged
// results are bit-identical to directly invoking whichever backend won,
// a query's callback runs exactly once whichever side wins, the hedged /
// hedge_wins counters and RoutingEvent stamps stay consistent, and
// hedging is inert when disabled, un-advised (rule router), or pinned.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "graph/graph_builder.h"
#include "hkpr/backend.h"
#include "hkpr/queries.h"
#include "hkpr/router.h"
#include "service/async_query_service.h"
#include "service_test_util.h"

namespace hkpr {
namespace {

ApproxParams TestParams(double delta) {
  ApproxParams p;
  p.t = 5.0;
  p.eps_r = 0.5;
  p.delta = delta;
  p.p_f = 1e-4;
  return p;
}

void ExpectSameVector(const SparseVector& a, const SparseVector& b) {
  ASSERT_EQ(a.nnz(), b.nnz());
  EXPECT_DOUBLE_EQ(a.degree_offset(), b.degree_offset());
  for (const auto& e : a.entries()) EXPECT_DOUBLE_EQ(b.Get(e.key), e.value);
}

/// Same routing graph the router tests use: a 600-cycle, a degree-100
/// hub, and a pendant leaf — big enough that no small-graph rule fires.
Graph MakeRoutingGraph() {
  GraphBuilder b(602);
  for (uint32_t v = 0; v < 600; ++v) b.AddEdge(v, (v + 1) % 600);
  for (uint32_t v = 0; v < 100; ++v) b.AddEdge(600, v);
  b.AddEdge(601, 300);
  return b.Build();
}

/// A test policy that always routes to `primary` and always advises
/// hedging with `runner_up` after `p95_us` — the deterministic stand-in
/// for a trained LearnedRouter.
class AlwaysHedgePolicy : public RoutingPolicy {
 public:
  AlwaysHedgePolicy(std::string primary, std::string runner_up,
                    double p95_us = 0.0)
      : primary_(std::move(primary)),
        runner_up_(std::move(runner_up)),
        p95_us_(p95_us) {}

  std::string_view Route(const RoutingQuery&) const override {
    return primary_;
  }
  std::optional<HedgeAdvice> Advise(const RoutingQuery&,
                                    uint32_t) const override {
    HedgeAdvice advice;
    advice.backend = runner_up_;
    advice.backend_id = StableBackendId(runner_up_);
    advice.primary_p95_us = p95_us_;
    return advice;
  }
  std::string_view name() const override { return "always-hedge"; }

 private:
  std::string primary_;
  std::string runner_up_;
  double p95_us_;
};

ServiceOptions HedgedOptions(std::shared_ptr<const RoutingPolicy> router) {
  ServiceOptions options;
  options.num_workers = 2;
  options.cache_capacity = 0;  // every query computes (and may hedge)
  options.backend.name = std::string(kAutoBackend);
  options.router = std::move(router);
  options.hedge.enabled = true;
  options.hedge.min_trigger_us = 0;  // fire as soon as the monitor wakes
  return options;
}

TEST(HedgeServiceTest, HedgedResultsBitIdenticalToWinningBackend) {
  const Graph g = MakeRoutingGraph();
  const ApproxParams params = TestParams(1e-3);
  const uint64_t kSeed = 99;

  AsyncQueryService service(
      g, params, kSeed,
      HedgedOptions(std::make_shared<AlwaysHedgePolicy>("tea+", "hk-relax")));

  // Sequential submit-then-wait pins query index i to seeds[i]; the
  // hedge reuses the *same* index, so whichever side wins, the result
  // must be bit-identical to directly invoking that backend at index i.
  QueryExecutor direct_primary(g, params, kSeed, BackendSpec{.name = "tea+"});
  QueryExecutor direct_hedge(g, params, kSeed,
                             BackendSpec{.name = "hk-relax"});
  const std::vector<NodeId> seeds = {450, 600, 601, 42, 7, 300, 600, 123};
  for (size_t i = 0; i < seeds.size(); ++i) {
    const QueryResult result = service.Submit(seeds[i]).result.get();
    ASSERT_EQ(result.status, QueryStatus::kOk);
    ASSERT_TRUE(result.backend == "tea+" || result.backend == "hk-relax")
        << result.backend;
    QueryExecutor& winner =
        result.backend == "tea+" ? direct_primary : direct_hedge;
    ExpectSameVector(*result.estimate, winner.Answer(seeds[i], i));
  }

  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.completed, seeds.size());
  EXPECT_LE(stats.hedge_wins, stats.hedged);
}

TEST(HedgeServiceTest, SlowPrimaryFiresHedgeAndCountsWins) {
  const Graph g = MakeRoutingGraph();
  // A tight delta makes the Monte-Carlo primary orders of magnitude
  // slower than the HK-Relax runner-up, so the hedge reliably fires
  // (p95 prediction 0 + min_trigger 0) and reliably wins.
  const ApproxParams params = TestParams(1e-4);
  const uint64_t kSeed = 7;

  AsyncQueryService service(g, params, kSeed,
                            HedgedOptions(std::make_shared<AlwaysHedgePolicy>(
                                "monte-carlo", "hk-relax")));

  QueryExecutor direct_primary(g, params, kSeed,
                               BackendSpec{.name = "monte-carlo"});
  QueryExecutor direct_hedge(g, params, kSeed,
                             BackendSpec{.name = "hk-relax"});
  const size_t kQueries = 16;
  for (size_t i = 0; i < kQueries; ++i) {
    const QueryResult result =
        service.Submit(static_cast<NodeId>(i * 37 % 600)).result.get();
    ASSERT_EQ(result.status, QueryStatus::kOk);
    QueryExecutor& winner =
        result.backend == "monte-carlo" ? direct_primary : direct_hedge;
    ExpectSameVector(*result.estimate,
                     winner.Answer(static_cast<NodeId>(i * 37 % 600), i));
  }

  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.completed, kQueries);
  EXPECT_GE(stats.hedged, 1u) << "slow primary never triggered a hedge";
  EXPECT_GE(stats.hedge_wins, 1u) << "fast runner-up never won";
  EXPECT_LE(stats.hedge_wins, stats.hedged);

  // One routing event per completed query — the losing side of a hedge
  // records nothing — and the hedge stamps are internally consistent.
  std::vector<RoutingEvent> events = service.DrainRoutingEvents();
  ASSERT_EQ(events.size(), kQueries);
  uint64_t stamped_hedged = 0;
  for (const RoutingEvent& event : events) {
    if (event.hedge_won == 1) {
      EXPECT_EQ(event.hedged, 1) << "a hedge win implies a fired hedge";
      EXPECT_EQ(event.backend_id, StableBackendId("hk-relax"));
    }
    stamped_hedged += event.hedged;
  }
  // Every stamped event had a fired hedge; the counter may run ahead of
  // the stamps by the (benign) fire-vs-claim race.
  EXPECT_LE(stamped_hedged, stats.hedged);
  EXPECT_GE(stamped_hedged, stats.hedge_wins);
}

TEST(HedgeServiceTest, DisabledUnadvisedOrPinnedNeverHedges) {
  const Graph g = MakeRoutingGraph();
  const ApproxParams params = TestParams(1e-3);

  // Hedging disabled: the advice-happy policy changes nothing.
  {
    ServiceOptions options =
        HedgedOptions(std::make_shared<AlwaysHedgePolicy>("tea+", "hk-relax"));
    options.hedge.enabled = false;
    AsyncQueryService service(g, params, 1, options);
    for (NodeId seed = 0; seed < 8; ++seed) {
      ASSERT_EQ(service.Submit(seed).result.get().status, QueryStatus::kOk);
    }
    EXPECT_EQ(service.Stats().hedged, 0u);
    EXPECT_EQ(service.Stats().hedge_wins, 0u);
  }

  // Enabled but routed through the rule policy: Advise declines, hedging
  // is inert.
  {
    ServiceOptions options = HedgedOptions(nullptr);  // DefaultRouter()
    AsyncQueryService service(g, params, 1, options);
    for (NodeId seed = 0; seed < 8; ++seed) {
      ASSERT_EQ(service.Submit(seed).result.get().status, QueryStatus::kOk);
    }
    EXPECT_EQ(service.Stats().hedged, 0u);
  }

  // Pinned plans (explicit backend, not routed) never hedge even with an
  // advice-happy policy installed.
  {
    AsyncQueryService service(
        g, params, 1,
        HedgedOptions(std::make_shared<AlwaysHedgePolicy>("tea+",
                                                          "hk-relax")));
    SubmitOptions pinned;
    pinned.plan.backend = "tea+";
    for (NodeId seed = 0; seed < 8; ++seed) {
      ASSERT_EQ(service.Submit(seed, pinned).result.get().status,
                QueryStatus::kOk);
    }
    EXPECT_EQ(service.Stats().hedged, 0u);
  }
}

/// Runs one query whose primary ("gated-hk-relax") and runner-up
/// ("gated-hk-relax-2") are both held at their gates after the hedge
/// fired, then releases `first` before `second`: the side released first
/// wins. `probe` and `*stats` are read after the service has drained.
void RunHeldHedge(testing::ComputeGate& first, testing::ComputeGate& second,
                  testing::CallbackProbe& probe, ServiceStatsSnapshot* stats) {
  testing::RegisterGatedBackend();
  const Graph g = MakeRoutingGraph();
  {
    AsyncQueryService service(
        g, TestParams(1e-3), 5,
        HedgedOptions(std::make_shared<AlwaysHedgePolicy>(
            "gated-hk-relax", "gated-hk-relax-2")));
    testing::GateReleaser releaser;
    testing::Gate().Arm();
    testing::SecondGate().Arm();
    service.Submit(450, {}, probe.Callback());
    ASSERT_TRUE(testing::Gate().WaitEntered(1));
    ASSERT_TRUE(testing::SecondGate().WaitEntered(1));
    first.Release();
    ASSERT_TRUE(probe.WaitCalled());
    second.Release();
    service.Shutdown();
    *stats = service.Stats();
  }
}

TEST(HedgeServiceTest, HedgeWinCompletesTheCallbackOnce) {
  testing::CallbackProbe probe;
  ServiceStatsSnapshot stats;
  RunHeldHedge(testing::SecondGate(), testing::Gate(), probe, &stats);
  EXPECT_EQ(probe.calls(), 1);
  EXPECT_EQ(probe.result().status, QueryStatus::kOk);
  EXPECT_EQ(probe.result().backend, "gated-hk-relax-2");
  EXPECT_EQ(stats.hedged, 1u);
  EXPECT_EQ(stats.hedge_wins, 1u);
  EXPECT_EQ(stats.computed, 2u);  // the losing primary still finished
  EXPECT_EQ(stats.completed, 1u);
}

TEST(HedgeServiceTest, HedgeLossCompletesTheCallbackOnce) {
  testing::CallbackProbe probe;
  ServiceStatsSnapshot stats;
  RunHeldHedge(testing::Gate(), testing::SecondGate(), probe, &stats);
  EXPECT_EQ(probe.calls(), 1);
  EXPECT_EQ(probe.result().status, QueryStatus::kOk);
  EXPECT_EQ(probe.result().backend, "gated-hk-relax");
  EXPECT_EQ(stats.hedged, 1u);
  EXPECT_EQ(stats.hedge_wins, 0u);
  EXPECT_EQ(stats.computed, 2u);  // the losing runner-up still finished
  EXPECT_EQ(stats.completed, 1u);
}

TEST(HedgeServiceTest, ShutdownWithArmedHedgesDrainsCleanly) {
  const Graph g = MakeRoutingGraph();
  const ApproxParams params = TestParams(1e-4);

  // Submit a burst of slow hedged queries and shut down without waiting:
  // every future must still resolve (no stranded promises, no leaks).
  auto service = std::make_unique<AsyncQueryService>(
      g, params, 3,
      HedgedOptions(
          std::make_shared<AlwaysHedgePolicy>("monte-carlo", "hk-relax")));
  std::vector<QueryHandle> handles;
  for (NodeId seed = 0; seed < 24; ++seed) {
    handles.push_back(service->Submit(seed));
  }
  service->Shutdown();
  size_t ok = 0;
  for (QueryHandle& handle : handles) {
    const QueryResult result = handle.result.get();
    ASSERT_TRUE(result.status == QueryStatus::kOk ||
                result.status == QueryStatus::kRejected)
        << QueryStatusName(result.status);
    if (result.status == QueryStatus::kOk) ++ok;
  }
  EXPECT_GE(ok, 1u);
  service.reset();
}

}  // namespace
}  // namespace hkpr
