// Tests for the async serving subsystem: AsyncQueryService determinism
// against the synchronous batch path, the result cache (hits never
// recompute, single-flight dedup, LRU bounds, invalidation), top-k served
// from the ranking stored with a cached estimate, admission control,
// deadlines, cancellation, the completion-callback contract (once per
// terminal status, cache hits answered on the submitting thread), and the
// stats/latency plumbing.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "baselines/hk_relax.h"
#include "graph/generators.h"
#include "hkpr/backend.h"
#include "hkpr/queries.h"
#include "service/async_query_service.h"
#include "service/result_cache.h"
#include "service/service_stats.h"
#include "service_test_util.h"
#include "test_util.h"

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

std::vector<QueryResult> SubmitAllAndWait(AsyncQueryService& service,
                                          const std::vector<NodeId>& seeds) {
  std::vector<QueryHandle> handles;
  handles.reserve(seeds.size());
  for (NodeId seed : seeds) handles.push_back(service.Submit(seed));
  std::vector<QueryResult> results;
  results.reserve(handles.size());
  for (QueryHandle& handle : handles) results.push_back(handle.result.get());
  return results;
}

TEST(AsyncQueryServiceTest, BitIdenticalToBatchQueryEngine) {
  // The acceptance-criterion test: the async path must return bit-identical
  // estimates to the synchronous BatchQueryEngine for the same (seed
  // sequence, params, engine seed) — the query index assigned at submission
  // drives the RNG in both. Includes a duplicate seed: with the cache
  // disabled it is recomputed at its own index, exactly like the engine.
  Graph g = PowerlawCluster(400, 3, 0.3, 7);
  const ApproxParams params = TestParams(1e-5);
  const std::vector<NodeId> seeds = {1, 5, 9, 5, 22, 60, 120, 350};

  BatchQueryEngine engine(g, params, 77, 2);
  const auto expected = engine.EstimateBatch(seeds);

  for (uint32_t workers : {1u, 3u}) {
    ServiceOptions options;
    options.num_workers = workers;
    options.cache_capacity = 0;  // determinism across duplicates
    AsyncQueryService service(g, params, 77, options);
    const auto results = SubmitAllAndWait(service, seeds);
    ASSERT_EQ(results.size(), expected.size());
    for (size_t i = 0; i < results.size(); ++i) {
      ASSERT_EQ(results[i].status, QueryStatus::kOk) << "query " << i;
      ExpectSameVector(*results[i].estimate, expected[i]);
    }
  }
}

TEST(AsyncQueryServiceTest, ColdCachedPassMatchesBatchOnDistinctSeeds) {
  // With the cache enabled, a cold pass over distinct seeds still computes
  // each query at its submission index — same bits as the batch engine.
  Graph g = PowerlawCluster(300, 3, 0.3, 8);
  const ApproxParams params = TestParams(1e-4);
  const std::vector<NodeId> seeds = {2, 8, 31, 100};

  BatchQueryEngine engine(g, params, 55, 2);
  const auto expected = engine.EstimateBatch(seeds);

  ServiceOptions options;
  options.num_workers = 2;
  AsyncQueryService service(g, params, 55, options);
  const auto results = SubmitAllAndWait(service, seeds);
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_EQ(results[i].status, QueryStatus::kOk);
    ExpectSameVector(*results[i].estimate, expected[i]);
  }
}

TEST(AsyncQueryServiceTest, TopKMatchesBatchTopK) {
  Graph g = PowerlawCluster(400, 4, 0.3, 10);
  const ApproxParams params = TestParams(1e-5);
  const std::vector<NodeId> seeds = {3, 17, 200};

  BatchQueryEngine engine(g, params, 33, 2);
  const auto expected = engine.TopKBatch(seeds, 10);

  ServiceOptions options;
  options.num_workers = 2;
  options.cache_capacity = 0;
  AsyncQueryService service(g, params, 33, options);
  std::vector<QueryHandle> handles;
  for (NodeId seed : seeds) handles.push_back(service.SubmitTopK(seed, 10));
  for (size_t i = 0; i < handles.size(); ++i) {
    const QueryResult result = handles[i].result.get();
    ASSERT_EQ(result.status, QueryStatus::kOk);
    ASSERT_EQ(result.top_k.size(), expected[i].size());
    for (size_t j = 0; j < expected[i].size(); ++j) {
      EXPECT_EQ(result.top_k[j].node, expected[i][j].node);
      EXPECT_DOUBLE_EQ(result.top_k[j].score, expected[i][j].score);
    }
  }
}

TEST(AsyncQueryServiceTest, CacheHitsNeverRecompute) {
  Graph g = testing::MakeComplete(16);
  const ApproxParams params = TestParams(1e-3);
  ServiceOptions options;
  options.num_workers = 2;
  AsyncQueryService service(g, params, 13, options);

  const QueryResult first = service.Submit(5).result.get();
  ASSERT_EQ(first.status, QueryStatus::kOk);
  EXPECT_FALSE(first.from_cache);

  for (int i = 0; i < 9; ++i) {
    const QueryResult repeat = service.Submit(5).result.get();
    ASSERT_EQ(repeat.status, QueryStatus::kOk);
    EXPECT_TRUE(repeat.from_cache);
    // Pointer identity: the very same cached object, not a recomputation.
    EXPECT_EQ(repeat.estimate.get(), first.estimate.get());
  }
  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.computed, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits + stats.coalesced, 9u);
  EXPECT_EQ(stats.completed, 10u);
  EXPECT_EQ(stats.latency_count, 10u);
}

TEST(AsyncQueryServiceTest, SingleFlightCoalescesConcurrentDuplicates) {
  // A burst of identical queries must cost exactly one computation: the
  // first processed request leads, everyone else hits or waits on it.
  Graph g = PowerlawCluster(500, 4, 0.3, 3);
  const ApproxParams params = TestParams(1e-5);
  ServiceOptions options;
  options.num_workers = 4;
  AsyncQueryService service(g, params, 17, options);

  constexpr int kBurst = 32;
  const auto results =
      SubmitAllAndWait(service, std::vector<NodeId>(kBurst, 9));
  for (const QueryResult& result : results) {
    ASSERT_EQ(result.status, QueryStatus::kOk);
    EXPECT_EQ(result.estimate.get(), results[0].estimate.get());
  }
  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.computed, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits + stats.coalesced, kBurst - 1u);
}

TEST(AsyncQueryServiceTest, AdmissionControlRejectsWhenQueueFull) {
  // max_queue_depth = 0 degenerates admission to "reject everything" —
  // a deterministic stand-in for a saturated queue.
  Graph g = testing::MakeComplete(8);
  ServiceOptions options;
  options.num_workers = 1;
  options.max_queue_depth = 0;
  AsyncQueryService service(g, TestParams(1e-2), 5, options);

  for (int i = 0; i < 5; ++i) {
    QueryResult result = service.Submit(1).result.get();
    EXPECT_EQ(result.status, QueryStatus::kRejected);
    EXPECT_EQ(result.estimate, nullptr);
  }
  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.submitted, 5u);
  EXPECT_EQ(stats.rejected, 5u);
  EXPECT_EQ(stats.computed, 0u);
}

TEST(AsyncQueryServiceTest, ExpiredDeadlineSkipsComputation) {
  Graph g = PowerlawCluster(2000, 4, 0.3, 6);
  const ApproxParams params = TestParams(1e-6);
  ServiceOptions options;
  options.num_workers = 1;
  options.cache_capacity = 0;
  AsyncQueryService service(g, params, 7, options);

  // Keep the single worker busy so the deadline of the second request has
  // certainly passed by the time it is dequeued.
  QueryHandle blocker = service.Submit(3);
  SubmitOptions expired;
  expired.timeout = std::chrono::nanoseconds(1);
  QueryHandle doomed = service.Submit(4, expired);

  EXPECT_EQ(blocker.result.get().status, QueryStatus::kOk);
  EXPECT_EQ(doomed.result.get().status, QueryStatus::kExpired);
  EXPECT_EQ(service.Stats().expired, 1u);
}

TEST(AsyncQueryServiceTest, CancelWinsWhileQueued) {
  Graph g = PowerlawCluster(2000, 4, 0.3, 9);
  const ApproxParams params = TestParams(1e-6);
  ServiceOptions options;
  options.num_workers = 1;
  options.cache_capacity = 0;
  AsyncQueryService service(g, params, 11, options);

  QueryHandle blocker = service.Submit(3);
  QueryHandle cancelled = service.Submit(4);
  cancelled.Cancel();

  EXPECT_EQ(blocker.result.get().status, QueryStatus::kOk);
  EXPECT_EQ(cancelled.result.get().status, QueryStatus::kCancelled);
  EXPECT_EQ(service.Stats().cancelled, 1u);
}

TEST(AsyncQueryServiceTest, InvalidateCacheForcesRecompute) {
  Graph g = testing::MakeComplete(16);
  ServiceOptions options;
  options.num_workers = 1;
  AsyncQueryService service(g, TestParams(1e-3), 19, options);

  const QueryResult before = service.Submit(2).result.get();
  ASSERT_EQ(before.status, QueryStatus::kOk);
  service.InvalidateCache();
  const QueryResult after = service.Submit(2).result.get();
  ASSERT_EQ(after.status, QueryStatus::kOk);
  EXPECT_FALSE(after.from_cache);

  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.computed, 2u);
  EXPECT_EQ(stats.cache_misses, 2u);
}

TEST(AsyncQueryServiceTest, HkRelaxBackendMatchesDirectEstimator) {
  // The estimator choice is a service option, not a hard-wired TEA+ path;
  // HK-Relax is deterministic, so the service must reproduce the direct
  // estimator's bits exactly (eps_a = eps_r * delta by construction).
  Graph g = PowerlawCluster(400, 3, 0.3, 12);
  const ApproxParams params = TestParams(1e-4);
  ServiceOptions options;
  options.num_workers = 2;
  options.backend.name = "hk-relax";
  AsyncQueryService service(g, params, 23, options);
  EXPECT_EQ(service.backend_name(), "HK-Relax");
  EXPECT_EQ(service.backend_id(), StableBackendId("hk-relax"));

  HkRelaxOptions relax;
  relax.t = params.t;
  relax.eps_a = params.eps_r * params.delta;
  HkRelaxEstimator direct(g, relax);
  const SparseVector expected = direct.Estimate(31);

  const QueryResult computed = service.Submit(31).result.get();
  ASSERT_EQ(computed.status, QueryStatus::kOk);
  ExpectSameVector(*computed.estimate, expected);

  const QueryResult cached = service.Submit(31).result.get();
  EXPECT_TRUE(cached.from_cache);
  EXPECT_EQ(cached.estimate.get(), computed.estimate.get());
}

TEST(AsyncQueryServiceTest, FourBackendsBitIdenticalToBatchEngine) {
  // The acceptance criterion of the pluggable-backend refactor: the async
  // and batch paths answer through the same four registry backends — the
  // paper's central comparison (TEA+, TEA, HK-Relax, Monte-Carlo) — and per
  // backend every query is bit-identical between the two frontends for the
  // same (engine seed, query index), regardless of worker count.
  Graph g = PowerlawCluster(400, 3, 0.3, 7);
  const ApproxParams params = TestParams(1e-3);
  const std::vector<NodeId> seeds = {1, 5, 9, 22, 120, 350};

  for (const char* name : {"tea+", "tea", "hk-relax", "monte-carlo"}) {
    BackendSpec spec;
    spec.name = name;
    BatchQueryEngine engine(g, params, 77, 2, spec);
    const auto expected = engine.EstimateBatch(seeds);

    ServiceOptions options;
    options.num_workers = 3;
    options.cache_capacity = 0;  // determinism: every query computes
    options.backend = spec;
    AsyncQueryService service(g, params, 77, options);
    const auto results = SubmitAllAndWait(service, seeds);
    ASSERT_EQ(results.size(), expected.size());
    for (size_t i = 0; i < results.size(); ++i) {
      ASSERT_EQ(results[i].status, QueryStatus::kOk)
          << name << " query " << i;
      SCOPED_TRACE(std::string(name) + " query " + std::to_string(i));
      ExpectSameVector(*results[i].estimate, expected[i]);
    }
  }
}

TEST(AsyncQueryServiceTest, SnapshotVersionStampsResultsAndCacheKeys) {
  // A service built on a GraphStore snapshot co-owns the graph and stamps
  // the store version on every result; the legacy borrowed-graph path
  // reports version 0.
  GraphStore store;
  const uint64_t version = store.Publish("g", testing::MakeComplete(16));
  ASSERT_GE(version, 1u);

  ServiceOptions options;
  options.num_workers = 2;
  AsyncQueryService service(store.Get("g"), TestParams(1e-3), 13, options);
  EXPECT_EQ(service.graph_version(), version);
  EXPECT_EQ(service.graph().NumNodes(), 16u);

  const QueryResult computed = service.Submit(3).result.get();
  ASSERT_EQ(computed.status, QueryStatus::kOk);
  EXPECT_EQ(computed.graph_version, version);
  const QueryResult cached = service.Submit(3).result.get();
  EXPECT_TRUE(cached.from_cache);
  EXPECT_EQ(cached.graph_version, version);

  // The service survives the store dropping the graph: its snapshot keeps
  // the graph alive for in-flight and future queries.
  store.Remove("g");
  const QueryResult after_remove = service.Submit(5).result.get();
  EXPECT_EQ(after_remove.status, QueryStatus::kOk);

  Graph borrowed = testing::MakeComplete(8);
  AsyncQueryService legacy(borrowed, TestParams(1e-2), 5, options);
  EXPECT_EQ(legacy.graph_version(), 0u);
  EXPECT_EQ(legacy.Submit(1).result.get().graph_version, 0u);
}

TEST(AsyncQueryServiceTest, ShutdownIsIdempotentAndDrains) {
  Graph g = PowerlawCluster(400, 3, 0.3, 6);
  ServiceOptions options;
  options.num_workers = 2;
  AsyncQueryService service(g, TestParams(1e-4), 43, options);
  std::vector<QueryHandle> handles;
  for (NodeId seed = 0; seed < 12; ++seed) {
    handles.push_back(service.Submit(seed));
  }
  service.Shutdown();
  for (QueryHandle& handle : handles) {
    EXPECT_EQ(handle.result.get().status, QueryStatus::kOk);
  }
  // Post-shutdown submissions are rejected, not lost.
  EXPECT_EQ(service.Submit(1).result.get().status, QueryStatus::kRejected);
  service.Shutdown();  // second call: no-op, no double-join
}

TEST(AsyncQueryServiceTest, DestructorDrainsPendingQueries) {
  Graph g = PowerlawCluster(500, 3, 0.3, 4);
  const ApproxParams params = TestParams(1e-5);
  std::vector<QueryHandle> handles;
  {
    ServiceOptions options;
    options.num_workers = 2;
    AsyncQueryService service(g, params, 29, options);
    for (NodeId seed = 0; seed < 20; ++seed) {
      handles.push_back(service.Submit(seed));
    }
    // Destructor runs here with most queries still queued.
  }
  for (QueryHandle& handle : handles) {
    EXPECT_EQ(handle.result.get().status, QueryStatus::kOk);
  }
}

// ---------------------------------------------------------------------------
// Top-k on cache hits: every served ranking equals a fresh
// TopKNormalized of the served estimate, whichever way the hit got it.

void ExpectSameRanking(const std::vector<ScoredNode>& actual,
                       const std::vector<ScoredNode>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].node, expected[i].node) << "rank " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(actual[i].score),
              std::bit_cast<uint64_t>(expected[i].score))
        << "rank " << i;
  }
}

/// Submits a top-k query and checks its ranking against the estimate.
QueryResult TopKAndCheck(AsyncQueryService& service, const Graph& g,
                         NodeId seed, size_t k) {
  QueryResult result = service.SubmitTopK(seed, k).result.get();
  EXPECT_EQ(result.status, QueryStatus::kOk);
  if (result.estimate != nullptr) {
    SCOPED_TRACE("k=" + std::to_string(k));
    ExpectSameRanking(result.top_k, TopKNormalized(g, *result.estimate, k));
  }
  return result;
}

TEST(AsyncQueryServiceTest, TopKHitsMatchFullRankingForAnyK) {
  Graph g = PowerlawCluster(400, 4, 0.3, 10);
  ServiceOptions options;
  options.num_workers = 1;
  AsyncQueryService service(g, TestParams(1e-5), 21, options);

  const QueryResult leader = TopKAndCheck(service, g, 17, 10);
  ASSERT_EQ(leader.top_k.size(), 10u);
  EXPECT_FALSE(leader.from_cache);
  // Smaller than, equal to and larger than the computing request's k.
  for (size_t k : {1u, 3u, 10u, 11u, 40u}) {
    const QueryResult hit = TopKAndCheck(service, g, 17, k);
    EXPECT_TRUE(hit.from_cache);
    EXPECT_EQ(hit.estimate.get(), leader.estimate.get());
    EXPECT_EQ(hit.top_k.size(), k);  // the estimate has > 40 ranked nodes
  }
  EXPECT_EQ(service.Stats().computed, 1u);
}

TEST(AsyncQueryServiceTest, TopKHitAfterFullVectorQueryRanksTheEstimate) {
  // A full-vector computation stores no ranking; a later top-k hit ranks
  // the cached estimate in one pass.
  Graph g = PowerlawCluster(400, 4, 0.3, 10);
  ServiceOptions options;
  options.num_workers = 1;
  AsyncQueryService service(g, TestParams(1e-5), 21, options);

  const QueryResult full = service.Submit(17).result.get();
  ASSERT_EQ(full.status, QueryStatus::kOk);
  EXPECT_TRUE(full.top_k.empty());
  const QueryResult hit = TopKAndCheck(service, g, 17, 10);
  EXPECT_TRUE(hit.from_cache);
  EXPECT_EQ(hit.top_k.size(), 10u);
  EXPECT_EQ(service.Stats().computed, 1u);
}

TEST(AsyncQueryServiceTest, CompleteRankingServesAnyLargerK) {
  // The computing request asked for more nodes than the estimate ranks,
  // so its stored ranking is complete and answers every later k.
  Graph g = testing::MakeComplete(8);
  ServiceOptions options;
  options.num_workers = 1;
  AsyncQueryService service(g, TestParams(1e-3), 23, options);

  const QueryResult leader = TopKAndCheck(service, g, 2, 20);
  ASSERT_FALSE(leader.top_k.empty());
  ASSERT_LT(leader.top_k.size(), 20u);
  for (size_t k : {1u, 20u, 50u}) {
    const QueryResult hit = TopKAndCheck(service, g, 2, k);
    EXPECT_TRUE(hit.from_cache);
    EXPECT_EQ(hit.top_k.size(), std::min(k, leader.top_k.size()));
  }
  EXPECT_EQ(service.Stats().computed, 1u);
}

using testing::ComputeGate;
using testing::Gate;
using testing::GateReleaser;
using testing::RegisterGatedBackend;

TEST(AsyncQueryServiceTest, CoalescedFollowerWithLargerKRanksItsOwnK) {
  RegisterGatedBackend();
  Graph g = PowerlawCluster(400, 4, 0.3, 10);
  ServiceOptions options;
  options.num_workers = 2;
  options.backend.name = "gated-hk-relax";
  AsyncQueryService service(g, TestParams(1e-5), 25, options);
  // Declared after the service: released before its destructor drains.
  GateReleaser releaser;
  ComputeGate& gate = Gate();
  {
    std::lock_guard<std::mutex> lock(gate.mu);
    gate.armed = true;
    gate.entered = 0;
  }

  QueryHandle leader = service.SubmitTopK(17, 3);
  {
    std::unique_lock<std::mutex> lock(gate.mu);
    ASSERT_TRUE(gate.cv.wait_for(lock, std::chrono::seconds(30),
                                 [&] { return gate.entered == 1; }));
  }
  // The leader is computing on one worker; the other worker picks the
  // follower up (from its own shard or by stealing) and parks it on the
  // leader's in-flight computation.
  QueryHandle follower = service.SubmitTopK(17, 30);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(30);
  while (service.Stats().coalesced == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(service.Stats().coalesced, 1u);
  {
    std::lock_guard<std::mutex> lock(gate.mu);
    gate.armed = false;
  }
  gate.cv.notify_all();

  const QueryResult led = leader.result.get();
  const QueryResult followed = follower.result.get();
  ASSERT_EQ(led.status, QueryStatus::kOk);
  ASSERT_EQ(followed.status, QueryStatus::kOk);
  EXPECT_FALSE(led.from_cache);
  EXPECT_TRUE(followed.from_cache);
  EXPECT_EQ(followed.estimate.get(), led.estimate.get());
  ExpectSameRanking(led.top_k, TopKNormalized(g, *led.estimate, 3));
  ExpectSameRanking(followed.top_k,
                    TopKNormalized(g, *followed.estimate, 30));
  EXPECT_EQ(followed.top_k.size(), 30u);
  EXPECT_EQ(service.Stats().computed, 1u);
}

// ---------------------------------------------------------------------------
// The completion contract: a QueryCallback runs exactly once per accepted
// submission, for every terminal status; hits on completed entries are
// answered on the submitting thread without changing admission or the
// query-index sequence.

using testing::CallbackProbe;

TEST(AsyncQueryServiceTest, CallbackRunsOnceForEveryTerminalStatus) {
  RegisterGatedBackend();
  Graph g = PowerlawCluster(400, 4, 0.3, 10);
  ServiceOptions options;
  options.num_workers = 1;
  options.backend.name = "gated-hk-relax";
  CallbackProbe miss, hit, invalid, blocker, cancelled, expired, rejected;
  {
    AsyncQueryService service(g, TestParams(1e-5), 31, options);
    GateReleaser releaser;

    service.Submit(17, {}, miss.Callback());
    ASSERT_TRUE(miss.WaitCalled());
    service.Submit(17, {}, hit.Callback());
    SubmitOptions bogus;
    bogus.plan.backend = "no-such-backend";
    service.Submit(17, bogus, invalid.Callback());

    // Hold the only worker, then queue one request to cancel and one that
    // expires while it waits.
    Gate().Arm();
    service.Submit(40, {}, blocker.Callback());
    ASSERT_TRUE(Gate().WaitEntered(1));
    SubmitOptions cancel;
    cancel.cancel = std::make_shared<std::atomic<bool>>(false);
    service.Submit(41, cancel, cancelled.Callback());
    cancel.cancel->store(true);
    SubmitOptions deadline;
    deadline.timeout = std::chrono::nanoseconds(1);
    service.Submit(42, deadline, expired.Callback());
    Gate().Release();

    service.Shutdown();
    service.Submit(43, {}, rejected.Callback());
  }
  // The service is gone: every callback has run, and none ran twice.
  const std::pair<CallbackProbe*, QueryStatus> expected[] = {
      {&miss, QueryStatus::kOk},
      {&hit, QueryStatus::kOk},
      {&invalid, QueryStatus::kInvalidArgument},
      {&blocker, QueryStatus::kOk},
      {&cancelled, QueryStatus::kCancelled},
      {&expired, QueryStatus::kExpired},
      {&rejected, QueryStatus::kRejected},
  };
  for (const auto& [probe, status] : expected) {
    SCOPED_TRACE(QueryStatusName(status));
    EXPECT_EQ(probe->calls(), 1);
    EXPECT_EQ(probe->result().status, status);
  }
  EXPECT_FALSE(miss.result().from_cache);
  EXPECT_TRUE(hit.result().from_cache);
}

TEST(AsyncQueryServiceTest, CoalescedFollowerCallbackRunsOnce) {
  RegisterGatedBackend();
  Graph g = PowerlawCluster(400, 4, 0.3, 10);
  ServiceOptions options;
  options.num_workers = 2;
  options.backend.name = "gated-hk-relax";
  CallbackProbe leader, follower;
  {
    AsyncQueryService service(g, TestParams(1e-5), 25, options);
    GateReleaser releaser;
    Gate().Arm();
    service.SubmitTopK(17, 3, {}, leader.Callback());
    ASSERT_TRUE(Gate().WaitEntered(1));
    // The entry is in flight, not completed: the follower goes to a worker
    // and parks on the leader instead of being answered inline.
    service.SubmitTopK(17, 30, {}, follower.Callback());
    EXPECT_EQ(follower.calls(), 0);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (service.Stats().coalesced == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(service.Stats().coalesced, 1u);
    Gate().Release();
    ASSERT_TRUE(follower.WaitCalled());
  }
  EXPECT_EQ(leader.calls(), 1);
  EXPECT_EQ(follower.calls(), 1);
  EXPECT_FALSE(leader.result().from_cache);
  EXPECT_TRUE(follower.result().from_cache);
  EXPECT_EQ(follower.result().top_k.size(), 30u);
  EXPECT_EQ(follower.result().estimate.get(), leader.result().estimate.get());
}

TEST(AsyncQueryServiceTest, HitCompletesOnSubmittingThreadBeforeSubmitReturns) {
  Graph g = PowerlawCluster(400, 4, 0.3, 10);
  ServiceOptions options;
  options.num_workers = 2;
  AsyncQueryService service(g, TestParams(1e-5), 27, options);
  CallbackProbe miss, hit, topk_hit;

  service.SubmitTopK(17, 5, {}, miss.Callback());
  ASSERT_TRUE(miss.WaitCalled());
  // A miss computes on a worker.
  EXPECT_NE(miss.thread(), std::this_thread::get_id());

  service.Submit(17, {}, hit.Callback());
  // No wait: the hit has already completed, here.
  ASSERT_EQ(hit.calls(), 1);
  EXPECT_EQ(hit.thread(), std::this_thread::get_id());
  EXPECT_TRUE(hit.result().from_cache);
  EXPECT_EQ(hit.result().estimate.get(), miss.result().estimate.get());

  service.SubmitTopK(17, 3, {}, topk_hit.Callback());
  ASSERT_EQ(topk_hit.calls(), 1);
  EXPECT_EQ(topk_hit.thread(), std::this_thread::get_id());
  ExpectSameRanking(topk_hit.result().top_k,
                    TopKNormalized(g, *topk_hit.result().estimate, 3));

  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.cache_hits, 2u);
  EXPECT_EQ(stats.computed, 1u);
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(service.queue_depth(), 0u);
}

TEST(AsyncQueryServiceTest, InlineHitsConsumeQueryIndices) {
  // Repeats are answered inline from the cache, yet each one still takes
  // its query index: every fresh seed after them computes at its own
  // position, bit-identical to the batch engine at that index.
  Graph g = PowerlawCluster(400, 3, 0.3, 7);
  const ApproxParams params = TestParams(1e-5);
  const std::vector<NodeId> seeds = {1, 5, 1, 9, 5, 1, 22, 60};
  BatchQueryEngine engine(g, params, 77, 2);
  const auto expected = engine.EstimateBatch(seeds);

  ServiceOptions options;
  options.num_workers = 2;
  AsyncQueryService service(g, params, 77, options);
  std::vector<bool> seen(g.NumNodes(), false);
  for (size_t i = 0; i < seeds.size(); ++i) {
    const QueryResult result = service.Submit(seeds[i]).result.get();
    ASSERT_EQ(result.status, QueryStatus::kOk) << "query " << i;
    EXPECT_EQ(result.from_cache, seen[seeds[i]]) << "query " << i;
    if (!seen[seeds[i]]) ExpectSameVector(*result.estimate, expected[i]);
    seen[seeds[i]] = true;
  }
  EXPECT_EQ(service.queries_accepted(), seeds.size());
  EXPECT_EQ(service.Stats().cache_hits, 3u);
}

TEST(AsyncQueryServiceTest, FullQueueRejectsWouldBeHit) {
  // Admission is claimed before the cache is consulted: with the queue at
  // max_queue_depth, a query whose answer is cached is still rejected.
  RegisterGatedBackend();
  Graph g = PowerlawCluster(400, 4, 0.3, 10);
  ServiceOptions options;
  options.num_workers = 1;
  options.max_queue_depth = 1;
  options.backend.name = "gated-hk-relax";
  AsyncQueryService service(g, TestParams(1e-5), 29, options);
  GateReleaser releaser;

  ASSERT_EQ(service.Submit(17).result.get().status, QueryStatus::kOk);
  Gate().Arm();
  QueryHandle computing = service.Submit(40);  // holds the only worker
  ASSERT_TRUE(Gate().WaitEntered(1));
  QueryHandle queued = service.Submit(41);  // fills the queue
  EXPECT_EQ(service.queue_depth(), 1u);
  const uint64_t accepted = service.queries_accepted();

  CallbackProbe would_be_hit;
  service.Submit(17, {}, would_be_hit.Callback());
  ASSERT_EQ(would_be_hit.calls(), 1);
  EXPECT_EQ(would_be_hit.result().status, QueryStatus::kRejected);
  EXPECT_EQ(service.queries_accepted(), accepted);  // no index consumed

  Gate().Release();
  EXPECT_EQ(computing.result.get().status, QueryStatus::kOk);
  EXPECT_EQ(queued.result.get().status, QueryStatus::kOk);
  const QueryResult hit = service.Submit(17).result.get();
  EXPECT_EQ(hit.status, QueryStatus::kOk);
  EXPECT_TRUE(hit.from_cache);
  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
}

TEST(AsyncQueryServiceTest, ZeroQueueDepthRejectsBeforeTheCache) {
  // max_queue_depth = 0 rejects every submission, and a rejected request
  // never reaches the cache: no lookup is counted.
  Graph g = testing::MakeComplete(8);
  ServiceOptions options;
  options.num_workers = 1;
  options.max_queue_depth = 0;
  AsyncQueryService service(g, TestParams(1e-2), 5, options);
  CallbackProbe probe;
  service.Submit(1, {}, probe.Callback());
  ASSERT_EQ(probe.calls(), 1);
  EXPECT_EQ(probe.result().status, QueryStatus::kRejected);
  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, 0u);
  EXPECT_EQ(service.queries_accepted(), 0u);
}

TEST(AsyncQueryServiceTest, StaleTrySubmitNeitherCallsNorConsumesCallback) {
  Graph g = testing::MakeComplete(8);
  AsyncQueryService service(g, TestParams(1e-2), 5, {});
  service.Shutdown();
  int calls = 0;
  QueryCallback done = [&calls](QueryResult) { ++calls; };
  EXPECT_FALSE(service.TrySubmit(1, {}, done));
  EXPECT_FALSE(service.TrySubmitTopK(1, 3, {}, done));
  EXPECT_TRUE(static_cast<bool>(done));  // still ours to retry with
  EXPECT_EQ(calls, 0);
}

// ---------------------------------------------------------------------------
// ResultCache unit tests.

ResultCacheKey MakeKey(NodeId seed, uint64_t version = 0) {
  ResultCacheKey key;
  key.graph_version = version;
  key.seed = seed;
  key.t = 5.0;
  key.eps_r = 0.5;
  key.delta = 1e-5;
  key.p_f = 1e-6;
  return key;
}

CachedEstimate MakeValue(NodeId seed, double value) {
  auto ranked = std::make_shared<RankedEstimate>();
  ranked->estimate.Add(seed, value);
  return ranked;
}

TEST(ResultCacheTest, MissComputeHitRoundTrip) {
  ResultCache cache(64, 4);
  auto miss = cache.LookupOrStartCompute(MakeKey(7));
  ASSERT_EQ(miss.outcome, ResultCache::Outcome::kMiss);
  cache.Complete(MakeKey(7), miss.leader, MakeValue(7, 0.5));

  auto hit = cache.LookupOrStartCompute(MakeKey(7));
  ASSERT_EQ(hit.outcome, ResultCache::Outcome::kHit);
  EXPECT_DOUBLE_EQ(hit.value->estimate.Get(7), 0.5);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ResultCacheTest, DistinctBackendsNeverShareAnEntry) {
  // Two backends with bit-identical parameters must key separately: the
  // backend_id field carries the registry's stable id, which is unique per
  // registered name (collision-checked at registration).
  ResultCache cache(64, 4);
  ResultCacheKey tea_plus = MakeKey(7);
  tea_plus.backend_id = StableBackendId("tea+");
  ResultCacheKey relax = MakeKey(7);  // every other field identical
  relax.backend_id = StableBackendId("hk-relax");
  ASSERT_NE(tea_plus.backend_id, relax.backend_id);

  auto miss = cache.LookupOrStartCompute(tea_plus);
  ASSERT_EQ(miss.outcome, ResultCache::Outcome::kMiss);
  cache.Complete(tea_plus, miss.leader, MakeValue(7, 0.5));

  // The completed TEA+ entry must not satisfy the HK-Relax lookup.
  EXPECT_EQ(cache.LookupOrStartCompute(relax).outcome,
            ResultCache::Outcome::kMiss);
  EXPECT_EQ(cache.LookupOrStartCompute(tea_plus).outcome,
            ResultCache::Outcome::kHit);
}

TEST(ResultCacheTest, DifferentParamsAreDifferentKeys) {
  ResultCache cache(64, 4);
  auto a = cache.LookupOrStartCompute(MakeKey(7));
  cache.Complete(MakeKey(7), a.leader, MakeValue(7, 0.5));

  ResultCacheKey other = MakeKey(7);
  other.delta = 1e-4;
  EXPECT_EQ(cache.LookupOrStartCompute(other).outcome,
            ResultCache::Outcome::kMiss);
}

TEST(ResultCacheTest, SecondRequesterCoalescesOnInFlightLeader) {
  ResultCache cache(64, 4);
  auto leader = cache.LookupOrStartCompute(MakeKey(3));
  ASSERT_EQ(leader.outcome, ResultCache::Outcome::kMiss);

  auto follower = cache.LookupOrStartCompute(MakeKey(3));
  ASSERT_EQ(follower.outcome, ResultCache::Outcome::kInFlight);

  // Follower blocks until the leader publishes.
  std::thread completer([&] {
    cache.Complete(MakeKey(3), leader.leader, MakeValue(3, 0.25));
  });
  const CachedEstimate value = follower.pending.get();
  completer.join();
  EXPECT_DOUBLE_EQ(value->estimate.Get(3), 0.25);
}

TEST(ResultCacheTest, PeekSeesOnlyCompletedEntriesAndNeverLeads) {
  ResultCache cache(8);
  const ResultCacheKey key = MakeKey(3);
  EXPECT_EQ(cache.Peek(key), nullptr);  // absent
  EXPECT_EQ(cache.size(), 0u);          // ...and no leader was registered
  ResultCache::Lookup lead = cache.LookupOrStartCompute(key);
  ASSERT_EQ(lead.outcome, ResultCache::Outcome::kMiss);
  EXPECT_EQ(cache.Peek(key), nullptr);  // in flight
  const CachedEstimate value = MakeValue(3, 0.25);
  cache.Complete(key, lead.leader, value);
  EXPECT_EQ(cache.Peek(key), value);
  EXPECT_EQ(cache.LookupOrStartCompute(key).outcome,
            ResultCache::Outcome::kHit);
}

TEST(ResultCacheTest, EvictsLeastRecentlyUsedCompletedEntry) {
  ResultCache cache(2, 1);  // one shard, two entries
  for (NodeId seed : {1u, 2u}) {
    auto miss = cache.LookupOrStartCompute(MakeKey(seed));
    cache.Complete(MakeKey(seed), miss.leader, MakeValue(seed, 1.0));
  }
  // Touch 1 so 2 becomes the LRU victim.
  ASSERT_EQ(cache.LookupOrStartCompute(MakeKey(1)).outcome,
            ResultCache::Outcome::kHit);
  auto miss = cache.LookupOrStartCompute(MakeKey(3));
  ASSERT_EQ(miss.outcome, ResultCache::Outcome::kMiss);
  cache.Complete(MakeKey(3), miss.leader, MakeValue(3, 1.0));

  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.LookupOrStartCompute(MakeKey(1)).outcome,
            ResultCache::Outcome::kHit);
  EXPECT_EQ(cache.LookupOrStartCompute(MakeKey(2)).outcome,
            ResultCache::Outcome::kMiss);
}

TEST(ResultCacheTest, InvalidateDropsEntriesAndBumpsVersion) {
  ResultCache cache(64, 4);
  auto miss = cache.LookupOrStartCompute(MakeKey(9));
  cache.Complete(MakeKey(9), miss.leader, MakeValue(9, 1.0));
  ASSERT_EQ(cache.size(), 1u);

  const uint64_t v1 = cache.Invalidate();
  EXPECT_EQ(v1, cache.version());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.LookupOrStartCompute(MakeKey(9)).outcome,
            ResultCache::Outcome::kMiss);
}

TEST(ResultCacheTest, CompleteAfterInvalidateStillWakesFollowers) {
  ResultCache cache(64, 4);
  auto leader = cache.LookupOrStartCompute(MakeKey(5));
  auto follower = cache.LookupOrStartCompute(MakeKey(5));
  ASSERT_EQ(follower.outcome, ResultCache::Outcome::kInFlight);

  cache.Invalidate();  // entry is gone, promise is not
  cache.Complete(MakeKey(5), leader.leader, MakeValue(5, 2.0));
  EXPECT_DOUBLE_EQ(follower.pending.get()->estimate.Get(5), 2.0);
  // The stale completion must not resurrect a cache entry.
  EXPECT_EQ(cache.LookupOrStartCompute(MakeKey(5)).outcome,
            ResultCache::Outcome::kMiss);
}

TEST(ResultCacheTest, RankedEstimateServesStoredRankingOnlyWhenItCovers) {
  const Graph g = testing::MakePath(6);
  RankedEstimate ranked;
  for (NodeId v = 0; v < 6; ++v) ranked.estimate.Add(v, 0.1 * (v + 1));
  // A sentinel no ranking pass would produce, so the test can tell a copy
  // of the stored ranking from a fresh pass over the estimate.
  const std::vector<ScoredNode> sentinel = {{5, 9.0}, {4, 8.0}};
  ranked.top = sentinel;
  ranked.ranked_k = 2;
  ExpectSameRanking(ranked.TopK(g, 1), {sentinel[0]});
  ExpectSameRanking(ranked.TopK(g, 2), sentinel);
  ExpectSameRanking(ranked.TopK(g, 3), TopKNormalized(g, ranked.estimate, 3));
  // Fewer ranked nodes than were asked for: the ranking was complete and
  // covers every k.
  ranked.ranked_k = 4;
  ExpectSameRanking(ranked.TopK(g, 50), sentinel);
  // No stored ranking (a full-vector computation): every k ranks afresh.
  ranked.top.clear();
  ranked.ranked_k = 0;
  ExpectSameRanking(ranked.TopK(g, 2), TopKNormalized(g, ranked.estimate, 2));
}

// ---------------------------------------------------------------------------
// ServiceStats / latency histogram.

TEST(ServiceStatsTest, HistogramPercentilesAreOrderedAndBucketed) {
  LatencyHistogram histogram;
  for (int i = 0; i < 99; ++i) histogram.Record(1e-3);  // 1ms
  histogram.Record(1.0);                                // one 1s outlier
  EXPECT_EQ(histogram.TotalCount(), 100u);

  const double p50 = histogram.PercentileMs(0.50);
  const double p99 = histogram.PercentileMs(0.99);
  const double p100 = histogram.PercentileMs(1.0);
  EXPECT_LE(p50, p99);
  EXPECT_LT(p99, p100);
  // 1ms lands in the [512us, 1024us) bucket; its upper bound is ~1.023ms.
  EXPECT_NEAR(p50, 1.023, 0.001);
  EXPECT_GT(p100, 500.0);  // the outlier dominates the last percentile
}

TEST(ServiceStatsTest, SummedBucketPercentilesMatchCombinedHistogram) {
  // The aggregation contract MultiGraphService and the telemetry merge
  // rely on: summing raw bucket counts from N independent histograms and
  // running LatencyPercentileMs over the sums yields exactly the
  // percentiles of one histogram that saw every sample. (Percentile
  // *values* do not add; bucket counts do.)
  constexpr int kServices = 3;
  LatencyHistogram shards[kServices];
  LatencyHistogram combined;
  // Distinct latency mixes per shard, spanning several log2 buckets.
  const double samples[kServices][4] = {
      {1e-4, 2e-4, 1e-3, 5e-3},   // fast shard
      {1e-3, 1e-3, 2e-2, 2e-2},   // medium shard
      {5e-3, 1e-1, 1e-1, 1.0},    // slow shard with an outlier
  };
  for (int s = 0; s < kServices; ++s) {
    for (double v : samples[s]) {
      shards[s].Record(v);
      combined.Record(v);
    }
  }

  std::array<uint64_t, LatencyHistogram::kBuckets> summed{};
  for (int s = 0; s < kServices; ++s) {
    const auto counts = shards[s].BucketCounts();
    for (size_t b = 0; b < counts.size(); ++b) summed[b] += counts[b];
  }

  for (double q : {0.5, 0.95, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(LatencyPercentileMs(summed, q), combined.PercentileMs(q))
        << "q=" << q;
  }
}

TEST(ServiceStatsTest, SnapshotFoldsCounters) {
  ServiceStats stats;
  stats.RecordSubmitted();
  stats.RecordSubmitted();
  stats.RecordCacheHit();
  stats.RecordCompleted(2e-3);
  const ServiceStatsSnapshot snap = stats.TakeSnapshot();
  EXPECT_EQ(snap.submitted, 2u);
  EXPECT_EQ(snap.cache_hits, 1u);
  EXPECT_EQ(snap.completed, 1u);
  EXPECT_EQ(snap.latency_count, 1u);
  EXPECT_GT(snap.latency_p50_ms, 0.0);
}

}  // namespace
}  // namespace hkpr
