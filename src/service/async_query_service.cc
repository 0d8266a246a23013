#include "service/async_query_service.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/logging.h"

namespace hkpr {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

/// Completes `done` with a result that carries only `status`.
void CompleteWith(QueryCallback& done, QueryStatus status) {
  QueryResult result;
  result.status = status;
  done(std::move(result));
}

}  // namespace

QueryHandle MakeQueryHandle(SubmitOptions* submit, QueryCallback* done) {
  if (submit->cancel == nullptr) {
    submit->cancel = std::make_shared<std::atomic<bool>>(false);
  }
  auto promise = std::make_shared<std::promise<QueryResult>>();
  QueryHandle handle;
  handle.cancel_ = submit->cancel;
  handle.result = promise->get_future();
  *done = [promise](QueryResult result) {
    promise->set_value(std::move(result));
  };
  return handle;
}

const char* QueryStatusName(QueryStatus status) {
  switch (status) {
    case QueryStatus::kOk:
      return "ok";
    case QueryStatus::kRejected:
      return "rejected";
    case QueryStatus::kCancelled:
      return "cancelled";
    case QueryStatus::kExpired:
      return "expired";
    case QueryStatus::kUnknownGraph:
      return "unknown-graph";
    case QueryStatus::kInvalidArgument:
      return "invalid-argument";
  }
  return "invalid";
}

AsyncQueryService::AsyncQueryService(GraphSnapshot snapshot,
                                     const ApproxParams& params, uint64_t seed,
                                     const ServiceOptions& options)
    : snapshot_(std::move(snapshot)),
      params_(params),
      options_(options),
      telemetry_(options.telemetry) {
  HKPR_CHECK(snapshot_.graph != nullptr) << "service needs a graph snapshot";
  // Die at startup on out-of-range defaults, not on whichever request
  // happens to trigger plan resolution first (ResolveQueryPlan reports
  // rather than aborts, relying on this construction-time validation).
  HKPR_CHECK(ServableParams(params))
      << "service ApproxParams out of range (t in (0, 1000], eps_r in "
         "(0, 1), delta > 0, p_f in (0, 1))";
  const Graph& graph = *snapshot_.graph;
  // Snapshot-level routing features, computed once: the graph is immutable
  // for this service's lifetime, so every submission reuses them.
  scale_features_ = GraphScaleFeatures::Of(graph);
  uint32_t num_workers = options.num_workers;
  if (num_workers == 0) {
    num_workers = std::max(1u, std::thread::hardware_concurrency());
  }
  if (options.cache_capacity > 0) {
    cache_ = std::make_unique<ResultCache>(options.cache_capacity,
                                           options.cache_shards);
  }
  router_owner_ = options.router;
  router_ = router_owner_ ? router_owner_.get() : &DefaultRouter();

  // An "auto" default means every unpinned request is routed per query;
  // the executors still need a concrete backend for their eagerly built
  // default estimator — warm the router's usual winner.
  BackendSpec exec_spec = options.backend;
  if (exec_spec.name == kAutoBackend) exec_spec.name = "tea+";
  // Resolve shared precomputations once for all per-worker executors;
  // ResolvedSpec check-fails on unknown backend names, so a misconfigured
  // service dies loudly at construction. p'_f is resolved even for
  // deterministic defaults (one O(n) scan): a routed or overridden plan
  // may lazily build a randomized backend on any worker.
  BackendSpec spec = ResolvedSpec(exec_spec, graph, params);
  if (spec.context.pf_prime < 0.0) {
    spec.context.pf_prime = ComputePfPrime(graph, params.p_f);
  }
  CheckPoolUnsharedAcrossWorkers(spec, num_workers);
  executors_.reserve(num_workers);
  for (uint32_t w = 0; w < num_workers; ++w) {
    executors_.push_back(
        std::make_unique<QueryExecutor>(graph, params, seed, spec));
  }
  // The registry's collision-checked id (as resolved by the executors),
  // folded into every cache key.
  backend_id_ = executors_.front()->backend_id();

  defaults_.backend = options.backend.name;
  defaults_.params = params;
  if (defaults_.backend != kAutoBackend) {
    // Pre-resolve the fast path: unpinned requests reuse this plan
    // without consulting the registry per submission.
    defaults_.plan = executors_.front()->default_plan();
  }

  shards_.reserve(num_workers);
  for (uint32_t w = 0; w < num_workers; ++w) {
    shards_.push_back(std::make_unique<Shard>());
  }
  workers_.reserve(num_workers);
  for (uint32_t w = 0; w < num_workers; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
  if (options_.hedge.enabled) {
    hedge_monitor_ = std::thread([this] { HedgeMonitorLoop(); });
  }
}

bool AsyncQueryService::SetDefaultBackend(std::string_view backend) {
  QueryPlan plan;
  if (backend != kAutoBackend) {
    const BackendInfo* info = EstimatorRegistry::Global().Find(backend);
    if (info == nullptr) return false;
    plan.backend = std::string(backend);
    plan.backend_id = info->stable_id;
  }
  std::lock_guard<std::mutex> lock(config_mu_);
  defaults_.backend = std::string(backend);
  if (backend != kAutoBackend) {
    plan.params = defaults_.params;
    defaults_.plan = std::move(plan);
  }
  return true;
}

void AsyncQueryService::SetDefaultParams(const ApproxParams& params) {
  HKPR_CHECK(ServableParams(params))
      << "default ApproxParams out of range (t in (0, 1000], eps_r in "
         "(0, 1), delta > 0, p_f in (0, 1))";
  std::lock_guard<std::mutex> lock(config_mu_);
  defaults_.params = params;
  defaults_.plan.params = params;
}

std::string AsyncQueryService::default_backend() const {
  std::lock_guard<std::mutex> lock(config_mu_);
  return defaults_.backend;
}

ApproxParams AsyncQueryService::default_params() const {
  std::lock_guard<std::mutex> lock(config_mu_);
  return defaults_.params;
}

AsyncQueryService::PlanDefaults AsyncQueryService::GetDefaults() const {
  std::lock_guard<std::mutex> lock(config_mu_);
  return defaults_;
}

AsyncQueryService::AsyncQueryService(const Graph& graph,
                                     const ApproxParams& params, uint64_t seed,
                                     const ServiceOptions& options)
    : AsyncQueryService(GraphSnapshot::Borrowed(graph), params, seed,
                        options) {}

void AsyncQueryService::Shutdown() {
  std::call_once(shutdown_once_, [this] {
    stopping_.store(true);  // seq_cst, paired with Enqueue's in-lock check
    // The hedge monitor goes first: joining it before the worker drain
    // guarantees any hedge it fired landed while workers were still
    // running (so it drains like any request), and none fire after.
    // Board entries left behind are harmless — their primaries are still
    // queued or computing and fulfill through the shared state.
    if (hedge_monitor_.joinable()) {
      { std::lock_guard<std::mutex> lock(hedge_mu_); }
      hedge_cv_.notify_all();
      hedge_monitor_.join();
    }
    for (std::unique_ptr<Shard>& shard : shards_) {
      // Lock/unlock fence: any submitter that passed its in-lock stopping
      // check on this shard has already pushed (a worker will drain it);
      // any submitter arriving later observes stopping_ under the lock and
      // rejects inline. Notify under no lock is safe — workers recheck
      // their predicate under the shard lock, and the park has a timeout.
      { std::lock_guard<std::mutex> lock(shard->mu); }
      shard->cv.notify_all();
    }
    for (std::thread& worker : workers_) worker.join();
  });
}

AsyncQueryService::~AsyncQueryService() { Shutdown(); }

ResultCacheKey AsyncQueryService::MakeKey(const QueryPlan& plan,
                                          NodeId seed) const {
  ResultCacheKey key;
  // The snapshot version is fixed for this service's lifetime and the
  // cache version is bumped by InvalidateCache(), so within one cache the
  // sum is strictly monotone across invalidations — no two key epochs can
  // collide. Across hot-swaps the store's version alone separates epochs.
  key.graph_version =
      snapshot_.version + (cache_ ? cache_->version() : 0);
  key.seed = seed;
  // The *resolved plan* is the key: backend id plus every effective
  // parameter, so no two distinct plans can ever share an entry — and the
  // same plan reached via routing, override or default shares one.
  key.backend_id = plan.backend_id;
  key.t = plan.params.t;
  key.eps_r = plan.params.eps_r;
  key.delta = plan.params.delta;
  key.p_f = plan.params.p_f;
  return key;
}

bool AsyncQueryService::Enqueue(NodeId seed, size_t k,
                                const SubmitOptions& submit,
                                QueryCallback& done, bool stale_if_stopping) {
  HKPR_CHECK(seed < snapshot_.graph->NumNodes()) << "query seed out of range";
  Request request;
  request.seed = seed;
  request.k = k;
  request.submit_time = Clock::now();
  request.deadline = submit.timeout == Clock::duration::zero()
                         ? Clock::time_point::max()
                         : request.submit_time + submit.timeout;
  request.cancelled = submit.cancel;

  // Resolve the request into its plan now — a queued request is immune to
  // later default switches. Unpinned requests under a concrete default
  // take the pre-resolved plan; everything else (overrides, "auto")
  // resolves through the router/registry.
  const PlanDefaults defaults = GetDefaults();
  // The routing-event `routed` bit: true when the RoutingPolicy (not a
  // pinned default or an explicit override) picks the backend.
  request.routed = submit.plan.backend == kAutoBackend ||
                   (submit.plan.backend.empty() &&
                    defaults.backend == kAutoBackend);
  if (submit.plan.empty() && defaults.backend != kAutoBackend) {
    request.plan = defaults.plan;
  } else {
    std::optional<QueryPlan> plan =
        ResolveQueryPlan(*snapshot_.graph, seed, scale_features_,
                         defaults.backend, defaults.params, submit.plan,
                         *router_);
    if (!plan.has_value()) {
      // The request named an unregistered backend or out-of-range
      // parameter overrides: report, don't abort — and don't consume a
      // query index. Counted as invalid_plans, not rejected: this is
      // malformed input, not admission pressure.
      stats_.RecordSubmitted();
      stats_.RecordInvalidPlan();
      CompleteWith(done, QueryStatus::kInvalidArgument);
      return true;
    }
    request.plan = *std::move(plan);
  }
  request.key = MakeKey(request.plan, seed);
  const bool traced = telemetry_.enabled();
  if (traced) {
    request.trace.submit = request.submit_time;
    request.trace.plan_resolved = Clock::now();
  }

  if (stopping_.load()) {
    if (stale_if_stopping) return false;
    stats_.RecordSubmitted();
    stats_.RecordRejected();
    CompleteWith(done, QueryStatus::kRejected);
    return true;
  }
  stats_.RecordSubmitted();
  // Exact global admission without any shared lock: claim a waiting slot;
  // undo and reject if the claim overshot the bound.
  if (pending_.fetch_add(1) >= options_.max_queue_depth) {
    pending_.fetch_sub(1);
    stats_.RecordRejected();
    CompleteWith(done, QueryStatus::kRejected);
    return true;
  }
  request.query_index = next_query_index_.fetch_add(1);
  request.done = std::move(done);

  // A completed cache entry answers here, on the submitting thread: no
  // shard push, no worker wakeup. The admission slot and the query index
  // are already claimed, so max_queue_depth and the index sequence mean
  // what they mean for a worker-served hit, and the slot (released after
  // the callback) keeps Shutdown's drain waiting for this answer. A
  // submitter that sees stopping_ here, or a request already cancelled or
  // past its deadline, takes the shard path, which settles it as before.
  if (cache_ != nullptr && !stopping_.load() &&
      (request.cancelled == nullptr || !request.cancelled->load()) &&
      (request.deadline == Clock::time_point::max() ||
       Clock::now() < request.deadline)) {
    if (CachedEstimate hit = cache_->Peek(request.key)) {
      stats_.RecordCacheHit();
      request.cache_outcome = CacheOutcome::kHit;
      if (traced) {
        request.trace.dequeue = Clock::now();
        request.trace.cache_done = request.trace.dequeue;
      }
      Fulfill(request, std::move(hit), /*from_cache=*/true);
      pending_.fetch_sub(1);
      return true;
    }
  }

  Shard& shard = *shards_[next_shard_.fetch_add(1, std::memory_order_relaxed) %
                          shards_.size()];
  bool stopped = false;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    // Shutdown may have begun after the admission check, and its drain may
    // already have passed this shard: settle the request below instead of
    // stranding its callback in a dead queue.
    stopped = stopping_.load();
    if (!stopped) shard.queue.push_back(std::move(request));
  }
  if (!stopped) {
    shard.cv.notify_one();
    return true;
  }
  pending_.fetch_sub(1);
  stats_.RecordRejected();
  if (stale_if_stopping) {
    done = std::move(request.done);  // handed back, never called
    return false;
  }
  CompleteWith(request.done, QueryStatus::kRejected);
  return true;
}

void AsyncQueryService::Submit(NodeId seed, const SubmitOptions& submit,
                               QueryCallback done) {
  Enqueue(seed, 0, submit, done, /*stale_if_stopping=*/false);
}

void AsyncQueryService::SubmitTopK(NodeId seed, size_t k,
                                   const SubmitOptions& submit,
                                   QueryCallback done) {
  HKPR_CHECK(k > 0) << "top-k query needs k >= 1";
  Enqueue(seed, k, submit, done, /*stale_if_stopping=*/false);
}

QueryHandle AsyncQueryService::Submit(NodeId seed,
                                      const SubmitOptions& submit) {
  SubmitOptions options = submit;
  QueryCallback done;
  QueryHandle handle = MakeQueryHandle(&options, &done);
  Submit(seed, options, std::move(done));
  return handle;
}

QueryHandle AsyncQueryService::SubmitTopK(NodeId seed, size_t k,
                                          const SubmitOptions& submit) {
  SubmitOptions options = submit;
  QueryCallback done;
  QueryHandle handle = MakeQueryHandle(&options, &done);
  SubmitTopK(seed, k, options, std::move(done));
  return handle;
}

bool AsyncQueryService::TrySubmit(NodeId seed, const SubmitOptions& submit,
                                  QueryCallback& done) {
  return Enqueue(seed, 0, submit, done, /*stale_if_stopping=*/true);
}

bool AsyncQueryService::TrySubmitTopK(NodeId seed, size_t k,
                                      const SubmitOptions& submit,
                                      QueryCallback& done) {
  HKPR_CHECK(k > 0) << "top-k query needs k >= 1";
  return Enqueue(seed, k, submit, done, /*stale_if_stopping=*/true);
}

size_t AsyncQueryService::StealInto(uint32_t thief, std::vector<Request>& batch,
                                    uint32_t max_batch) {
  const size_t num_shards = shards_.size();
  for (size_t hop = 1; hop < num_shards; ++hop) {
    Shard& victim = *shards_[(thief + hop) % num_shards];
    std::lock_guard<std::mutex> lock(victim.mu);
    if (victim.queue.empty()) continue;
    // Take the *older* half from the front: the thief serves the requests
    // that have waited longest, and the victim keeps the newer half (it
    // is presumably busy, or its own drain would have taken them).
    const size_t take =
        std::min<size_t>(max_batch, (victim.queue.size() + 1) / 2);
    for (size_t i = 0; i < take; ++i) {
      batch.push_back(std::move(victim.queue.front()));
      victim.queue.pop_front();
    }
    return take;
  }
  return 0;
}

void AsyncQueryService::WorkerLoop(uint32_t worker_id) {
  QueryExecutor& executor = *executors_[worker_id];
  Shard& home = *shards_[worker_id];
  const uint32_t max_batch = std::max(1u, options_.max_batch);
  std::vector<Request> batch;
  std::vector<Deferred> deferred;
  batch.reserve(max_batch);
  for (;;) {
    batch.clear();
    deferred.clear();
    {
      // Opportunistic micro-batching: drain up to max_batch waiting
      // requests in one wakeup so a loaded worker answers them in a tight
      // loop on its warmed executor (the async analogue of the static
      // batch shard).
      std::lock_guard<std::mutex> lock(home.mu);
      const size_t take = std::min<size_t>(max_batch, home.queue.size());
      for (size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(home.queue.front()));
        home.queue.pop_front();
      }
    }
    if (batch.empty() && shards_.size() > 1) {
      const size_t stolen = StealInto(worker_id, batch, max_batch);
      if (stolen > 0) stats_.RecordStolen(stolen);
    }
    if (batch.empty()) {
      // stopping_ is set before the shutdown drain, and pending_ counts
      // every admitted-but-unprocessed request (including ones a raced
      // submitter has claimed but not yet pushed — those resolve under the
      // shard lock), so this exit condition cannot strand a callback.
      if (stopping_.load() && pending_.load() == 0) return;
      std::unique_lock<std::mutex> lock(home.mu);
      // The timeout doubles as the steal-poll period: a worker whose own
      // shard stays empty re-scans the victims' shards even though only
      // its own cv is notified on their submissions.
      home.cv.wait_for(lock, std::chrono::milliseconds(1), [&] {
        return stopping_.load() || !home.queue.empty();
      });
      continue;
    }
    pending_.fetch_sub(batch.size());
    for (Request& request : batch) Process(executor, request, deferred);
    // Requests coalesced onto another worker's in-flight computation are
    // resolved last: the drained batch is this worker's private backlog,
    // so blocking on a leader mid-batch would stall unrelated requests
    // that no idle worker can steal back.
    for (Deferred& wait : deferred) {
      Fulfill(wait.request, wait.pending.get(), /*from_cache=*/true);
    }
  }
}

CachedEstimate AsyncQueryService::Compute(QueryExecutor& executor,
                                          const Request& request) {
  stats_.RecordComputed();
  // The executor re-seeds the plan's backend from (engine seed, query
  // index) — the exact BatchQueryEngine derivation — so the async and
  // batch paths are bit-identical per plan, and a routed plan is
  // bit-identical to directly invoking its chosen backend at the same
  // index. Deterministic backends ignore the re-seed and the index plays
  // no role.
  auto ranked = std::make_shared<RankedEstimate>();
  ranked->estimate =
      executor.Answer(request.seed, request.query_index, request.plan);
  // Rank once, here: hits and coalesced followers asking for at most this
  // k copy a prefix of it instead of re-ranking the whole estimate.
  if (request.k > 0) {
    ranked->top = TopKNormalized(*snapshot_.graph, ranked->estimate,
                                 request.k);
    ranked->ranked_k = request.k;
  }
  return ranked;
}

void AsyncQueryService::Process(QueryExecutor& executor, Request& request,
                                std::vector<Deferred>& deferred) {
  const bool traced = telemetry_.enabled();
  if (traced) request.trace.dequeue = Clock::now();
  if (request.cancelled != nullptr &&
      request.cancelled->load(std::memory_order_relaxed)) {
    // A cancelled hedge request means its primary already won the
    // arbitration: drop it silently — the query completed normally, so
    // neither the cancelled counter nor a callback should fire.
    if (request.is_hedge) return;
    stats_.RecordCancelled();
    CompleteWith(request.done, QueryStatus::kCancelled);
    return;
  }
  if (request.deadline != Clock::time_point::max() &&
      Clock::now() >= request.deadline) {
    // An over-deadline hedge is just a backup that arrived too late;
    // the primary (which passed this check before computing) answers.
    if (request.is_hedge) return;
    stats_.RecordExpired();
    CompleteWith(request.done, QueryStatus::kExpired);
    return;
  }

  CachedEstimate estimate;
  bool from_cache = false;
  if (cache_) {
    ResultCache::Lookup lookup = cache_->LookupOrStartCompute(request.key);
    if (traced) request.trace.cache_done = Clock::now();
    switch (lookup.outcome) {
      case ResultCache::Outcome::kHit:
        stats_.RecordCacheHit();
        request.cache_outcome = CacheOutcome::kHit;
        estimate = std::move(lookup.value);
        from_cache = true;
        break;
      case ResultCache::Outcome::kInFlight:
        // Single-flight: another worker is computing this key. Park the
        // request for resolution after the rest of the batch; the leader
        // never waits on this key, so the eventual get() cannot deadlock.
        stats_.RecordCoalesced();
        request.cache_outcome = CacheOutcome::kCoalesced;
        deferred.push_back(
            Deferred{std::move(request), std::move(lookup.pending)});
        return;
      case ResultCache::Outcome::kMiss:
        stats_.RecordCacheMiss();
        request.cache_outcome = CacheOutcome::kMiss;
        MaybeRegisterHedge(request);
        if (traced) request.trace.compute_begin = Clock::now();
        estimate = Compute(executor, request);
        if (traced) request.trace.compute_end = Clock::now();
        cache_->Complete(request.key, lookup.leader, estimate);
        break;
    }
  } else {
    // No cache: the lookup stage is zero-width by definition.
    request.cache_outcome = CacheOutcome::kNone;
    MaybeRegisterHedge(request);
    if (traced) {
      request.trace.cache_done = request.trace.dequeue;
      request.trace.compute_begin = Clock::now();
    }
    estimate = Compute(executor, request);
    if (traced) request.trace.compute_end = Clock::now();
  }
  Fulfill(request, std::move(estimate), from_cache);
}

void AsyncQueryService::MaybeRegisterHedge(Request& request) {
  if (!options_.hedge.enabled || request.is_hedge || !request.routed) return;
  // Only routed computes hedge: a pinned plan expressed an explicit
  // backend choice, and the policy could not predict its cost anyway.
  RoutingQuery query;
  query.seed = request.seed;
  query.seed_degree = snapshot_.graph->Degree(request.seed);
  query.num_nodes = scale_features_.num_nodes;
  query.num_edges = scale_features_.num_edges;
  query.avg_degree = scale_features_.avg_degree;
  query.params = request.plan.params;
  std::optional<HedgeAdvice> advice =
      router_->Advise(query, request.plan.backend_id);
  if (!advice.has_value() || advice->backend_id == request.plan.backend_id) {
    return;
  }
  const double p95_us = std::max<double>(
      static_cast<double>(options_.hedge.min_trigger_us),
      std::min(advice->primary_p95_us, 1e12));
  auto state = std::make_shared<HedgeState>();
  state->hedge_cancelled = std::make_shared<std::atomic<bool>>(false);
  PendingHedge entry;
  entry.fire_at =
      Clock::now() +
      std::chrono::microseconds(static_cast<int64_t>(p95_us));
  entry.seed = request.seed;
  entry.k = request.k;
  entry.query_index = request.query_index;
  entry.submit_time = request.submit_time;
  entry.deadline = request.deadline;
  entry.plan.backend = std::move(advice->backend);
  entry.plan.backend_id = advice->backend_id;
  entry.plan.params = request.plan.params;
  entry.state = state;
  bool wake_monitor = false;
  {
    std::lock_guard<std::mutex> lock(hedge_mu_);
    if (stopping_.load(std::memory_order_relaxed) ||
        hedge_board_.size() >= options_.hedge.max_pending) {
      return;  // run unhedged; the caller's callback stays on the request
    }
    // From here on the caller's callback is settled through the state:
    // whichever side wins the claimed CAS calls it exactly once.
    state->done = std::move(request.done);
    request.hedge = state;
    wake_monitor = entry.fire_at < hedge_wakeup_at_;
    hedge_board_.push_back(std::move(entry));
  }
  // Waking the monitor on every registration would cost a context switch
  // per routed compute; it only needs a nudge when it is parked past this
  // entry's trigger (its own wakeup re-scans the board otherwise).
  if (wake_monitor) hedge_cv_.notify_one();
}

void AsyncQueryService::FireHedge(PendingHedge&& entry) {
  if (entry.state->claimed.load(std::memory_order_acquire)) return;
  if (stopping_.load()) return;
  // Hedges respect admission like any request — under overload the
  // backup work would only make the tail worse.
  if (pending_.fetch_add(1) >= options_.max_queue_depth) {
    pending_.fetch_sub(1);
    return;
  }
  Request request;
  request.seed = entry.seed;
  request.k = entry.k;
  // The SAME query index as the primary: the runner-up plan computes
  // exactly what a direct invocation of that backend at this index
  // would, so a hedge win is bit-identical to the un-hedged alternative.
  request.query_index = entry.query_index;
  request.submit_time = entry.submit_time;
  request.deadline = entry.deadline;
  request.cancelled = entry.state->hedge_cancelled;
  request.plan = std::move(entry.plan);
  request.key = MakeKey(request.plan, request.seed);
  request.routed = true;
  request.is_hedge = true;
  request.hedge = entry.state;
  if (telemetry_.enabled()) {
    request.trace.submit = entry.submit_time;
    request.trace.plan_resolved = Clock::now();
  }
  // `fired` before the enqueue: the winner's RoutingEvent (possibly the
  // primary, completing concurrently) stamps hedged=1 only when a
  // runner-up was actually submitted.
  entry.state->fired.store(true, std::memory_order_release);
  Shard& shard = *shards_[next_shard_.fetch_add(1, std::memory_order_relaxed) %
                          shards_.size()];
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (stopping_.load()) {
      pending_.fetch_sub(1);
      return;
    }
    // Counted before the push: once a worker can see the runner-up it may
    // win and count hedge_wins, which must never overtake hedged.
    stats_.RecordHedged();
    shard.queue.push_back(std::move(request));
  }
  shard.cv.notify_one();
}

void AsyncQueryService::HedgeMonitorLoop() {
  std::unique_lock<std::mutex> lock(hedge_mu_);
  std::vector<PendingHedge> due;
  while (!stopping_.load()) {
    if (hedge_board_.empty()) {
      // Parked until a registration (or shutdown) notifies; the timeout
      // only bounds a lost-wakeup window.
      hedge_wakeup_at_ = Clock::time_point::max();
      hedge_cv_.wait_for(lock, std::chrono::milliseconds(50));
      continue;
    }
    const Clock::time_point now = Clock::now();
    Clock::time_point next_fire = Clock::time_point::max();
    due.clear();
    for (auto it = hedge_board_.begin(); it != hedge_board_.end();) {
      if (it->state->claimed.load(std::memory_order_acquire)) {
        // The primary settled before the trigger: never fires, and the
        // board stays bounded by live computes.
        it = hedge_board_.erase(it);
      } else if (it->fire_at <= now) {
        due.push_back(std::move(*it));
        it = hedge_board_.erase(it);
      } else {
        next_fire = std::min(next_fire, it->fire_at);
        ++it;
      }
    }
    if (!due.empty()) {
      lock.unlock();
      for (PendingHedge& entry : due) FireHedge(std::move(entry));
      lock.lock();
      continue;
    }
    hedge_wakeup_at_ = next_fire;
    hedge_cv_.wait_until(lock, next_fire);
  }
}

void AsyncQueryService::Fulfill(Request& request, CachedEstimate estimate,
                                bool from_cache) {
  if (request.hedge != nullptr &&
      request.hedge->claimed.exchange(true, std::memory_order_acq_rel)) {
    // Lost the arbitration: the other side already completed the caller
    // (and recorded the completion), so this result is discarded whole —
    // no counters, no event, no callback. Its cache Complete (if any)
    // already happened and is harmless: plan-keyed entries can't collide.
    return;
  }
  QueryResult result;
  result.from_cache = from_cache;
  result.graph_version = snapshot_.version;
  result.backend = std::move(request.plan.backend);
  result.backend_id = request.plan.backend_id;
  if (request.k > 0) {
    result.top_k = estimate->TopK(*snapshot_.graph, request.k);
  }
  // The caller sees the plain estimate; the alias shares ownership of the
  // whole cached value.
  const SparseVector* vector = &estimate->estimate;
  result.estimate = std::shared_ptr<const SparseVector>(std::move(estimate),
                                                        vector);
  result.status = QueryStatus::kOk;
  const Clock::time_point complete = Clock::now();
  const double latency_s = SecondsBetween(request.submit_time, complete);
  result.latency_ms = latency_s * 1000.0;
  if (request.hedge != nullptr) {
    if (request.is_hedge) {
      stats_.RecordHedgeWin();
    } else {
      // The primary won: cancel the runner-up so a still-queued hedge is
      // dropped without computing (one already computing finishes and
      // loses the CAS above).
      request.hedge->hedge_cancelled->store(true, std::memory_order_relaxed);
    }
  }
  stats_.RecordCompleted(latency_s);
  if (telemetry_.enabled()) RecordTrace(request, complete);
  // Moved out first, so whatever the callback captured is released when it
  // returns, not when the losing hedge side lets go of the shared state.
  QueryCallback done =
      std::move(request.hedge != nullptr ? request.hedge->done : request.done);
  done(std::move(result));
}

void AsyncQueryService::RecordTrace(Request& request,
                                    Clock::time_point complete) {
  QueryTrace& trace = request.trace;
  // Cache hits and coalesced waits never computed: their compute stage
  // is zero-width at the point the lookup settled, which keeps every
  // event's stage offsets monotone non-decreasing.
  if (trace.compute_begin == QueryTrace::Clock::time_point{}) {
    trace.compute_begin = trace.cache_done;
    trace.compute_end = trace.cache_done;
  }
  const auto offset_us = [&](QueryTrace::Clock::time_point t) -> uint64_t {
    if (t <= trace.submit) return 0;
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(t - trace.submit)
            .count());
  };
  RoutingEvent event;
  event.query_index = request.query_index;
  event.graph_version = snapshot_.version;
  event.seed = request.seed;
  event.seed_degree = snapshot_.graph->Degree(request.seed);
  event.num_nodes = scale_features_.num_nodes;
  event.num_edges = scale_features_.num_edges;
  event.avg_degree = scale_features_.avg_degree;
  event.params = request.plan.params;
  event.backend_id = request.plan.backend_id;
  event.routed = request.routed ? 1 : 0;
  event.cache = static_cast<uint8_t>(request.cache_outcome);
  // Hedge outcome, stamped on the *winning* side's event only (the
  // loser records nothing): hedged when a runner-up actually fired,
  // hedge_won when this completion IS the runner-up.
  if (request.hedge != nullptr &&
      request.hedge->fired.load(std::memory_order_acquire)) {
    event.hedged = 1;
  }
  event.hedge_won = request.is_hedge ? 1 : 0;
  event.plan_us = offset_us(trace.plan_resolved);
  event.dequeue_us = std::max(event.plan_us, offset_us(trace.dequeue));
  event.cache_us = std::max(event.dequeue_us, offset_us(trace.cache_done));
  event.compute_begin_us =
      std::max(event.cache_us, offset_us(trace.compute_begin));
  event.compute_end_us =
      std::max(event.compute_begin_us, offset_us(trace.compute_end));
  event.complete_us = std::max(event.compute_end_us, offset_us(complete));
  telemetry_.Record(event);
}

void AsyncQueryService::InvalidateCache() {
  if (cache_) cache_->Invalidate();
}

ServiceStatsSnapshot AsyncQueryService::Stats() const {
  ServiceStatsSnapshot snap = stats_.TakeSnapshot();
  snap.queue_depth = queue_depth();
  telemetry_.FillStages(snap);
  return snap;
}

TelemetrySnapshot AsyncQueryService::Telemetry() const {
  return telemetry_.Snapshot();
}

std::vector<RoutingEvent> AsyncQueryService::DrainRoutingEvents() {
  return telemetry_.DrainRoutingEvents();
}

size_t AsyncQueryService::queue_depth() const { return pending_.load(); }

uint64_t AsyncQueryService::queries_accepted() const {
  return next_query_index_.load();
}

}  // namespace hkpr
