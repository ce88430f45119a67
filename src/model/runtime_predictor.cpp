#include "model/runtime_predictor.h"

#include <algorithm>
#include <cmath>

namespace sdsched {

void RuntimePredictor::observe(const JobSpec& spec, SimTime actual_runtime) {
  const auto req = static_cast<double>(std::max<SimTime>(spec.req_time, 1));
  const double actual = static_cast<double>(std::max<SimTime>(actual_runtime, 1));
  const double ratio = std::min(actual / req, 1.0);

  const auto fold = [this, ratio](UserModel& model) {
    model.ema_ratio =
        model.count == 0 ? ratio : (1.0 - smoothing_) * model.ema_ratio + smoothing_ * ratio;
    ++model.count;
  };
  fold(users_[spec.user_id]);
  fold(global_);
}

const RuntimePredictor::UserModel* RuntimePredictor::trusted_model(int user_id) const {
  if (const auto it = users_.find(user_id);
      it != users_.end() && it->second.count >= min_history_) {
    return &it->second;
  }
  if (global_.count >= min_history_) return &global_;
  return nullptr;
}

SimTime RuntimePredictor::predict(const JobSpec& spec) const {
  const UserModel* model = trusted_model(spec.user_id);
  if (model == nullptr) return spec.req_time;  // no history: trust the user
  const auto predicted =
      static_cast<SimTime>(std::ceil(model->ema_ratio * static_cast<double>(spec.req_time)));
  return std::clamp<SimTime>(predicted, 1, spec.req_time);
}

}  // namespace sdsched
