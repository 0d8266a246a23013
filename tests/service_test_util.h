// Serving-test helpers shared by the service, hedge, multi-graph and socket
// suites:
//  - "gated-hk-relax" and "gated-hk-relax-2", test backends that answer
//    exactly as "hk-relax" except that while their gate is armed every
//    computation blocks until it is released — how a test holds a
//    single-flight leader, a hedge side or a socket query in flight;
//  - CallbackProbe, which records each call of a QueryCallback.

#ifndef HKPR_TESTS_SERVICE_TEST_UTIL_H_
#define HKPR_TESTS_SERVICE_TEST_UTIL_H_

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>

#include "hkpr/backend.h"
#include "service/async_query_service.h"

namespace hkpr::testing {

/// Blocks computations of one gated test backend while armed.
struct ComputeGate {
  std::mutex mu;
  std::condition_variable cv;
  bool armed = false;
  int entered = 0;  // computations blocked so far while armed

  /// Arms the gate and resets the entered count.
  void Arm() {
    std::lock_guard<std::mutex> lock(mu);
    armed = true;
    entered = 0;
  }

  /// Disarms the gate, releasing every blocked computation.
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu);
      armed = false;
    }
    cv.notify_all();
  }

  /// Waits (up to 30 s) until `count` computations are blocked.
  bool WaitEntered(int count) {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, std::chrono::seconds(30),
                       [&] { return entered >= count; });
  }
};

/// The gate of "gated-hk-relax".
inline ComputeGate& Gate() {
  static ComputeGate gate;
  return gate;
}

/// The gate of "gated-hk-relax-2", a second backend id for tests that
/// hold two plans (a hedge's primary and runner-up) independently.
inline ComputeGate& SecondGate() {
  static ComputeGate gate;
  return gate;
}

/// Releases both gates on scope exit. Declare it after the service it
/// guards, so blocked computations are let go before the service drains.
struct GateReleaser {
  ~GateReleaser() {
    Gate().Release();
    SecondGate().Release();
  }
};

/// HK-Relax behind a gate. Disarmed it answers exactly as "hk-relax", so
/// tests that iterate every registered backend are unaffected.
class GatedEstimator : public WorkspaceEstimator {
 public:
  GatedEstimator(std::unique_ptr<WorkspaceEstimator> inner, ComputeGate& gate)
      : inner_(std::move(inner)), gate_(gate) {}
  const SparseVector& EstimateInto(NodeId seed, QueryWorkspace& ws,
                                   EstimatorStats* stats) override {
    {
      std::unique_lock<std::mutex> lock(gate_.mu);
      if (gate_.armed) {
        ++gate_.entered;
        gate_.cv.notify_all();
        gate_.cv.wait(lock, [&] { return !gate_.armed; });
      }
    }
    return inner_->EstimateInto(seed, ws, stats);
  }
  void Reseed(uint64_t seed) override { inner_->Reseed(seed); }
  std::string_view name() const override { return "Gated-HK-Relax"; }

 private:
  std::unique_ptr<WorkspaceEstimator> inner_;
  ComputeGate& gate_;
};

/// Registers "gated-hk-relax" (behind Gate()) and "gated-hk-relax-2"
/// (behind SecondGate()); idempotent.
inline void RegisterGatedBackend() {
  EstimatorRegistry& registry = EstimatorRegistry::Global();
  const auto add = [&](const char* name, ComputeGate& gate) {
    if (registry.Contains(name)) return;
    BackendInfo info;
    info.name = name;
    info.algorithm = "HK-Relax that can be held in flight (test backend)";
    info.randomized = false;
    info.factory = [&gate](const Graph& graph, const ApproxParams& params,
                           uint64_t seed, const BackendContext& context) {
      return std::unique_ptr<WorkspaceEstimator>(new GatedEstimator(
          EstimatorRegistry::Global().Create("hk-relax", graph, params, seed,
                                             context),
          gate));
    };
    registry.Register(std::move(info));
  };
  add("gated-hk-relax", Gate());
  add("gated-hk-relax-2", SecondGate());
}

/// Records every call of the QueryCallback it hands out: how many, the
/// last result, and the thread that made the last call. Must outlive the
/// service the callback was submitted to.
class CallbackProbe {
 public:
  QueryCallback Callback() {
    return [this](QueryResult result) {
      std::lock_guard<std::mutex> lock(mu_);
      ++calls_;
      result_ = std::move(result);
      thread_ = std::this_thread::get_id();
      cv_.notify_all();
    };
  }

  int calls() const {
    std::lock_guard<std::mutex> lock(mu_);
    return calls_;
  }
  QueryResult result() const {
    std::lock_guard<std::mutex> lock(mu_);
    return result_;
  }
  std::thread::id thread() const {
    std::lock_guard<std::mutex> lock(mu_);
    return thread_;
  }

  /// Waits (up to 30 s) for the first call.
  bool WaitCalled() {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(30),
                        [&] { return calls_ > 0; });
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  int calls_ = 0;
  QueryResult result_;
  std::thread::id thread_;
};

}  // namespace hkpr::testing

#endif  // HKPR_TESTS_SERVICE_TEST_UTIL_H_
