#include "model/runtime_predictor.h"

#include <gtest/gtest.h>

namespace sdsched {
namespace {

JobSpec spec_of(int user, SimTime req) {
  JobSpec spec;
  spec.user_id = user;
  spec.req_time = req;
  return spec;
}

TEST(RuntimePredictor, NoHistoryTrustsUser) {
  const RuntimePredictor predictor;
  EXPECT_EQ(predictor.predict(spec_of(1, 1000)), 1000);
}

TEST(RuntimePredictor, LearnsUserOverestimation) {
  RuntimePredictor predictor(/*smoothing=*/0.5, /*min_history=*/3);
  // User 1 always runs at 25% of the request.
  for (int i = 0; i < 6; ++i) {
    predictor.observe(spec_of(1, 1000), 250);
  }
  const SimTime predicted = predictor.predict(spec_of(1, 2000));
  EXPECT_GT(predicted, 400);
  EXPECT_LT(predicted, 700);
}

TEST(RuntimePredictor, PredictionNeverExceedsRequest) {
  RuntimePredictor predictor(0.5, 1);
  predictor.observe(spec_of(1, 100), 100);
  predictor.observe(spec_of(1, 100), 100);
  EXPECT_LE(predictor.predict(spec_of(1, 100)), 100);
  // Even an over-running job (actual > request) must not push above req.
  predictor.observe(spec_of(1, 100), 500);
  EXPECT_LE(predictor.predict(spec_of(1, 100)), 100);
}

TEST(RuntimePredictor, GlobalFallbackForNewUsers) {
  RuntimePredictor predictor(0.5, 3);
  for (int i = 0; i < 5; ++i) {
    predictor.observe(spec_of(1, 1000), 100);  // everyone overestimates 10x
  }
  // User 99 has no history; the global model applies.
  const SimTime predicted = predictor.predict(spec_of(99, 1000));
  EXPECT_LT(predicted, 500);
}

TEST(RuntimePredictor, PerUserModelsAreIndependent) {
  RuntimePredictor predictor(0.9, 2);
  for (int i = 0; i < 4; ++i) {
    predictor.observe(spec_of(1, 1000), 100);   // user 1: 10% of request
    predictor.observe(spec_of(2, 1000), 1000);  // user 2: exact
  }
  EXPECT_LT(predictor.predict(spec_of(1, 1000)), 300);
  EXPECT_GT(predictor.predict(spec_of(2, 1000)), 700);
}

TEST(RuntimePredictor, MinimumOneSecond) {
  RuntimePredictor predictor(1.0, 1);
  predictor.observe(spec_of(1, 1000), 1);
  EXPECT_GE(predictor.predict(spec_of(1, 1000)), 1);
}

}  // namespace
}  // namespace sdsched
