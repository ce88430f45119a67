// Online runtime prediction (paper §4.1 / future work #2).
//
// The paper observes that SD-Policy gets more precise — and DynAVGSD gets
// better — when requested times approach real durations (workload 2), and
// proposes replacing user estimates with a predictive method. This is the
// classic online estimator from the literature the paper gestures at: a
// per-user exponential moving average of the actual/requested ratio, with a
// global fallback until a user accumulates history.
//
// Predictions never exceed the user's request (the limit still kills jobs)
// and never drop below one second. Consumers treat the prediction as the
// scheduler's working estimate everywhere a requested time is used:
// reservation durations, predicted ends and the SD decision inputs.
#pragma once

#include <unordered_map>

#include "job/job.h"

namespace sdsched {

class RuntimePredictor {
 public:
  /// `smoothing` is the EMA weight of the newest observation; `min_history`
  /// observations are required before a user's model is trusted.
  explicit RuntimePredictor(double smoothing = 0.3, std::size_t min_history = 3) noexcept
      : smoothing_(smoothing), min_history_(min_history) {}

  /// Record a completion (actual wallclock vs the request).
  void observe(const JobSpec& spec, SimTime actual_runtime);

  /// Predicted wallclock for a job about to be scheduled.
  [[nodiscard]] SimTime predict(const JobSpec& spec) const;

 private:
  struct UserModel {
    double ema_ratio = 1.0;  ///< actual / requested
    std::size_t count = 0;
  };

  [[nodiscard]] const UserModel* trusted_model(int user_id) const;

  double smoothing_;
  std::size_t min_history_;
  // Determinism audit (detlint D1): keyed lookup only (find in
  // trusted_model, operator[] on observe) — never iterated, so per-user
  // prediction is a pure function of that user's observation sequence.
  std::unordered_map<int, UserModel> users_;
  UserModel global_;
};

}  // namespace sdsched
