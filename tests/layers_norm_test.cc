// Tests for BatchNorm, LRN and AvgPool2d: forward semantics, running
// statistics, numerical gradient checks, and solver interaction with
// non-learnable state blobs.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <ostream>
#include <string>

#include "common/rng.h"
#include "dl/gradcheck.h"
#include "dl/layers.h"
#include "dl/layers_norm.h"
#include "dl/models.h"
#include "dl/net.h"
#include "dl/solver.h"

namespace shmcaffe::dl {
namespace {

TEST(BatchNorm, TrainingOutputIsNormalisedPerChannel) {
  BatchNorm bn("bn", 2);
  common::Rng rng(1);
  bn.init_params(rng);
  Tensor x({4, 2, 3, 3});
  for (float& v : x.span()) v = static_cast<float>(rng.uniform(-3, 3));
  // Shift channel 1 strongly.
  for (int n = 0; n < 4; ++n) {
    for (int y = 0; y < 3; ++y) {
      for (int w = 0; w < 3; ++w) x.at(n, 1, y, w) += 10.0F;
    }
  }
  Tensor top;
  bn.setup({&x}, top);
  bn.forward({&x}, top, /*train=*/true);
  for (int c = 0; c < 2; ++c) {
    double mean = 0.0;
    double var = 0.0;
    for (int n = 0; n < 4; ++n) {
      for (int y = 0; y < 3; ++y) {
        for (int w = 0; w < 3; ++w) mean += top.at(n, c, y, w);
      }
    }
    mean /= 36.0;
    for (int n = 0; n < 4; ++n) {
      for (int y = 0; y < 3; ++y) {
        for (int w = 0; w < 3; ++w) {
          var += (top.at(n, c, y, w) - mean) * (top.at(n, c, y, w) - mean);
        }
      }
    }
    var /= 36.0;
    EXPECT_NEAR(mean, 0.0, 1e-4) << "channel " << c;
    EXPECT_NEAR(var, 1.0, 1e-2) << "channel " << c;
  }
}

TEST(BatchNorm, ScaleAndShiftApply) {
  BatchNorm bn("bn", 1);
  common::Rng rng(2);
  bn.init_params(rng);
  bn.params()[0]->value[0] = 2.0F;   // gamma
  bn.params()[1]->value[0] = -1.0F;  // beta
  Tensor x({8, 1, 2, 2});
  for (float& v : x.span()) v = static_cast<float>(rng.normal(5.0, 2.0));
  Tensor top;
  bn.setup({&x}, top);
  bn.forward({&x}, top, true);
  double mean = 0.0;
  for (float v : top.span()) mean += v;
  mean /= static_cast<double>(top.size());
  EXPECT_NEAR(mean, -1.0, 1e-4);  // beta shifts the normalised mean
}

TEST(BatchNorm, RunningStatisticsConvergeAndDriveEvalMode) {
  BatchNorm bn("bn", 1);
  common::Rng rng(3);
  bn.init_params(rng);
  Tensor x({16, 1, 4, 4});
  Tensor top;
  bn.setup({&x}, top);
  // Feed many batches from N(3, 4): running stats approach (3, 4).
  for (int step = 0; step < 200; ++step) {
    for (float& v : x.span()) v = static_cast<float>(rng.normal(3.0, 2.0));
    bn.forward({&x}, top, /*train=*/true);
  }
  const float running_mean = bn.params()[2]->value[0];
  const float running_var = bn.params()[3]->value[0];
  EXPECT_NEAR(running_mean, 3.0F, 0.3F);
  EXPECT_NEAR(running_var, 4.0F, 0.8F);

  // Eval mode uses the running stats: a batch at exactly N(3,4) maps close
  // to N(0,1).
  for (float& v : x.span()) v = static_cast<float>(rng.normal(3.0, 2.0));
  bn.forward({&x}, top, /*train=*/false);
  double mean = 0.0;
  for (float v : top.span()) mean += v;
  mean /= static_cast<double>(top.size());
  EXPECT_NEAR(mean, 0.0, 0.25);
}

TEST(BatchNorm, RunningStatsAreNotLearnable) {
  BatchNorm bn("bn", 4);
  auto params = bn.params();
  ASSERT_EQ(params.size(), 4u);
  EXPECT_TRUE(params[0]->learnable);   // scale
  EXPECT_TRUE(params[1]->learnable);   // shift
  EXPECT_FALSE(params[2]->learnable);  // running mean
  EXPECT_FALSE(params[3]->learnable);  // running var
}

TEST(Solver, SkipsNonLearnableBlobs) {
  Net net("bn_net");
  net.add_input("data");
  net.add_input("label");
  net.add(std::make_unique<Conv2d>("conv", 1, 2, 1, 1, 0), {"data"}, "conv");
  net.add(std::make_unique<BatchNorm>("bn", 2), {"conv"}, "bn");
  net.add(std::make_unique<GlobalAvgPool>("gap"), {"bn"}, "gap");
  net.add(std::make_unique<FullyConnected>("logits", 2, 2), {"gap"}, "logits");
  net.add(std::make_unique<SoftmaxCrossEntropy>("loss"), {"logits", "label"}, "loss");
  common::Rng rng(4);
  net.init_params(rng);

  SolverOptions options;
  options.weight_decay = 0.5;  // would decay running stats if not skipped
  options.base_lr = 0.1;
  SgdSolver solver(net, options);
  // Find the running-var blob and record it.
  ParamBlob* running_var = nullptr;
  for (ParamBlob* blob : net.params()) {
    if (blob->name == "bn.running_var") running_var = blob;
  }
  ASSERT_NE(running_var, nullptr);
  const float before = running_var->value[0];
  solver.apply_update(0.1);
  EXPECT_EQ(running_var->value[0], before);
}

TEST(Lrn, UnitInputMatchesClosedForm) {
  Lrn lrn("lrn", 3, 0.3, 0.75, 1.0);
  Tensor x({1, 4, 1, 1});
  x.fill(1.0F);
  Tensor top;
  lrn.setup({&x}, top);
  lrn.forward({&x}, top, true);
  // Channel 0: window {0,1} -> denom = 1 + 0.1*2 = 1.2.
  // Channel 1: window {0,1,2} -> denom = 1 + 0.1*3 = 1.3.
  EXPECT_NEAR(top[0], std::pow(1.2, -0.75), 1e-5);
  EXPECT_NEAR(top[1], std::pow(1.3, -0.75), 1e-5);
  EXPECT_NEAR(top[3], std::pow(1.2, -0.75), 1e-5);
}

TEST(Lrn, RejectsEvenWindow) {
  EXPECT_THROW(Lrn("lrn", 4), std::invalid_argument);
  EXPECT_THROW(Lrn("lrn", 3, -1.0), std::invalid_argument);
}

TEST(AvgPool2d, AveragesWindows) {
  AvgPool2d pool("p", 2, 2);
  Tensor x({1, 1, 4, 4});
  for (std::size_t i = 0; i < 16; ++i) x[i] = static_cast<float>(i);
  Tensor top;
  pool.setup({&x}, top);
  pool.forward({&x}, top, true);
  EXPECT_EQ(top.shape(), (std::vector<int>{1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(top.at(0, 0, 0, 0), (0 + 1 + 4 + 5) / 4.0F);
  EXPECT_FLOAT_EQ(top.at(0, 0, 1, 1), (10 + 11 + 14 + 15) / 4.0F);
}

// --- gradient checks through the new layers ---

Net build_bn_net() {
  Net net("bn_gradcheck");
  net.add_input("data");
  net.add_input("label");
  net.add(std::make_unique<Conv2d>("conv", 3, 4, 3, 1, 1), {"data"}, "conv");
  net.add(std::make_unique<BatchNorm>("bn", 4), {"conv"}, "bn");
  net.add(std::make_unique<Relu>("relu"), {"bn"}, "relu");
  net.add(std::make_unique<GlobalAvgPool>("gap"), {"relu"}, "gap");
  net.add(std::make_unique<FullyConnected>("logits", 4, 4), {"gap"}, "logits");
  net.add(std::make_unique<SoftmaxCrossEntropy>("loss"), {"logits", "label"}, "loss");
  return net;
}

Net build_lrn_avgpool_net() {
  Net net("lrn_gradcheck");
  net.add_input("data");
  net.add_input("label");
  net.add(std::make_unique<Conv2d>("conv", 3, 6, 3, 1, 1), {"data"}, "conv");
  net.add(std::make_unique<Lrn>("lrn", 3), {"conv"}, "lrn");
  net.add(std::make_unique<Relu>("relu"), {"lrn"}, "relu");
  net.add(std::make_unique<AvgPool2d>("pool", 2, 2), {"relu"}, "pool");
  net.add(std::make_unique<FullyConnected>("logits", 6 * 4 * 4, 4), {"pool"}, "logits");
  net.add(std::make_unique<SoftmaxCrossEntropy>("loss"), {"logits", "label"}, "loss");
  return net;
}

struct NormGradCase {
  const char* name;
  Net (*build)();
};

// Printed by name: gtest would otherwise dump the function pointer, and the
// discovered ctest names would change with every load address.
void PrintTo(const NormGradCase& c, std::ostream* os) { *os << c.name; }

class NormGradCheck : public ::testing::TestWithParam<NormGradCase> {};

TEST_P(NormGradCheck, AnalyticMatchesNumeric) {
  common::Rng rng(77);
  Net net = GetParam().build();
  net.init_params(rng);
  Tensor& data = net.input("data");
  data.reshape({2, 3, 8, 8});
  for (float& v : data.span()) v = static_cast<float>(rng.uniform(-1, 1));
  Tensor& labels = net.input("label");
  labels.reshape({2});
  for (float& v : labels.span()) v = static_cast<float>(rng.uniform_int(0, 3));

  const GradCheckResult result = check_gradients(net, 1e-3, 120, rng);
  EXPECT_LT(result.max_rel_error, 0.05);
}

INSTANTIATE_TEST_SUITE_P(Nets, NormGradCheck,
                         ::testing::Values(NormGradCase{"bn", &build_bn_net},
                                           NormGradCase{"lrn_avgpool", &build_lrn_avgpool_net}),
                         [](const ::testing::TestParamInfo<NormGradCase>& info) {
                           return std::string(info.param.name);
                         });

TEST(ModelZoo, MiniInceptionResnetForwardBackward) {
  common::Rng rng(7);
  ModelInputSpec spec;
  Net net = make_model("mini_inception_resnet", spec);
  net.init_params(rng);
  Tensor& data = net.input("data");
  data.reshape({4, spec.channels, spec.height, spec.width});
  for (float& v : data.span()) v = static_cast<float>(rng.uniform(-1, 1));
  Tensor& labels = net.input("label");
  labels.reshape({4});
  for (float& v : labels.span()) {
    v = static_cast<float>(rng.uniform_int(0, spec.classes - 1));
  }
  const Tensor& loss = net.forward(true);
  EXPECT_TRUE(std::isfinite(loss[0]));
  net.backward();
  SgdSolver solver(net, {});
  solver.step();  // must not disturb running stats but must update weights
  const Tensor& loss2 = net.forward(true);
  EXPECT_TRUE(std::isfinite(loss2[0]));
}

}  // namespace
}  // namespace shmcaffe::dl
