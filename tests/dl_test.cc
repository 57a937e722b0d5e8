// Tests for the mini-Caffe library: tensor mechanics, each layer's forward
// semantics, numerical gradient checks through every layer type, net DAG
// behaviour, solver policies, parameter flattening, and end-to-end learning.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "dl/gradcheck.h"
#include "dl/layers.h"
#include "dl/models.h"
#include "dl/net.h"
#include "dl/param_vector.h"
#include "dl/solver.h"
#include "dl/tensor.h"

namespace shmcaffe::dl {
namespace {

TEST(Tensor, ReshapeAndIndexing) {
  Tensor t({2, 3, 4, 5});
  EXPECT_EQ(t.size(), 120u);
  EXPECT_EQ(t.n(), 2);
  EXPECT_EQ(t.c(), 3);
  EXPECT_EQ(t.h(), 4);
  EXPECT_EQ(t.w(), 5);
  t.at(1, 2, 3, 4) = 7.5F;
  EXPECT_FLOAT_EQ(t[119], 7.5F);
  t.fill(2.0F);
  EXPECT_FLOAT_EQ(t.at(0, 0, 0, 0), 2.0F);
  t.zero();
  EXPECT_FLOAT_EQ(t.at(1, 1, 1, 1), 0.0F);
}

TEST(Tensor, ReshapeKeepPreservesData) {
  Tensor t({2, 6});
  for (std::size_t i = 0; i < t.size(); ++i) t[i] = static_cast<float>(i);
  t.reshape_keep({3, 4});
  EXPECT_EQ(t.dim(0), 3);
  EXPECT_FLOAT_EQ(t[7], 7.0F);
}

// --- layer forward semantics ---

TEST(Conv2d, IdentityKernelPassesThrough) {
  Conv2d conv("c", 1, 1, 1, 1, 0);
  Tensor x({1, 1, 2, 2});
  x.span()[0] = 1;
  x.span()[1] = 2;
  x.span()[2] = 3;
  x.span()[3] = 4;
  Tensor top;
  conv.setup({&x}, top);
  conv.params()[0]->value[0] = 1.0F;  // 1x1 weight = 1, bias = 0
  conv.forward({&x}, top, true);
  EXPECT_EQ(top.shape(), x.shape());
  for (std::size_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(top[i], x[i]);
}

TEST(Conv2d, KnownConvolutionValue) {
  // 3x3 all-ones kernel over a 3x3 all-ones image with pad 1: centre = 9,
  // edges = 6, corners = 4.
  Conv2d conv("c", 1, 1, 3, 1, 1);
  Tensor x({1, 1, 3, 3});
  x.fill(1.0F);
  Tensor top;
  conv.setup({&x}, top);
  conv.params()[0]->value.fill(1.0F);
  conv.forward({&x}, top, true);
  EXPECT_FLOAT_EQ(top.at(0, 0, 1, 1), 9.0F);
  EXPECT_FLOAT_EQ(top.at(0, 0, 0, 1), 6.0F);
  EXPECT_FLOAT_EQ(top.at(0, 0, 0, 0), 4.0F);
}

TEST(Conv2d, StrideReducesResolution) {
  Conv2d conv("c", 1, 2, 3, 2, 1);
  Tensor x({2, 1, 8, 8});
  Tensor top;
  conv.setup({&x}, top);
  EXPECT_EQ(top.shape(), (std::vector<int>{2, 2, 4, 4}));
}

TEST(Relu, ClampsNegatives) {
  Relu relu("r");
  Tensor x({1, 4});
  x.span()[0] = -1;
  x.span()[1] = 0;
  x.span()[2] = 2;
  x.span()[3] = -3;
  Tensor top;
  relu.setup({&x}, top);
  relu.forward({&x}, top, true);
  EXPECT_FLOAT_EQ(top[0], 0);
  EXPECT_FLOAT_EQ(top[1], 0);
  EXPECT_FLOAT_EQ(top[2], 2);
  EXPECT_FLOAT_EQ(top[3], 0);
}

TEST(MaxPool2d, SelectsWindowMaxima) {
  MaxPool2d pool("p", 2, 2);
  Tensor x({1, 1, 4, 4});
  for (std::size_t i = 0; i < 16; ++i) x[i] = static_cast<float>(i);
  Tensor top;
  pool.setup({&x}, top);
  pool.forward({&x}, top, true);
  EXPECT_EQ(top.shape(), (std::vector<int>{1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(top.at(0, 0, 0, 0), 5.0F);
  EXPECT_FLOAT_EQ(top.at(0, 0, 1, 1), 15.0F);
}

TEST(GlobalAvgPool, AveragesSpatialExtent) {
  GlobalAvgPool gap("g");
  Tensor x({1, 2, 2, 2});
  for (std::size_t i = 0; i < 4; ++i) x[i] = 2.0F;       // channel 0
  for (std::size_t i = 4; i < 8; ++i) x[i] = static_cast<float>(i);  // 4,5,6,7
  Tensor top;
  gap.setup({&x}, top);
  gap.forward({&x}, top, true);
  EXPECT_FLOAT_EQ(top.at(0, 0, 0, 0), 2.0F);
  EXPECT_FLOAT_EQ(top.at(0, 1, 0, 0), 5.5F);
}

TEST(FullyConnected, MatrixVectorProduct) {
  FullyConnected fc("f", 3, 2);
  Tensor x({1, 3});
  x.span()[0] = 1;
  x.span()[1] = 2;
  x.span()[2] = 3;
  Tensor top;
  fc.setup({&x}, top);
  auto params = fc.params();
  // W = [[1,0,1],[0,1,0]], b = [0.5, -0.5]
  params[0]->value[0] = 1;
  params[0]->value[2] = 1;
  params[0]->value[4] = 1;
  params[1]->value[0] = 0.5F;
  params[1]->value[1] = -0.5F;
  fc.forward({&x}, top, true);
  EXPECT_FLOAT_EQ(top[0], 4.5F);   // 1+3+0.5
  EXPECT_FLOAT_EQ(top[1], 1.5F);   // 2-0.5
}

TEST(Dropout, EvalModeIsIdentity) {
  Dropout drop("d", 0.5);
  Tensor x({1, 100});
  x.fill(3.0F);
  Tensor top;
  drop.setup({&x}, top);
  drop.forward({&x}, top, /*train=*/false);
  for (std::size_t i = 0; i < 100; ++i) EXPECT_FLOAT_EQ(top[i], 3.0F);
}

TEST(Dropout, TrainModePreservesExpectation) {
  Dropout drop("d", 0.5);
  Tensor x({1, 20000});
  x.fill(1.0F);
  Tensor top;
  drop.setup({&x}, top);
  drop.forward({&x}, top, /*train=*/true);
  double sum = 0.0;
  int zeros = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sum += top[i];
    zeros += (top[i] == 0.0F);
  }
  EXPECT_NEAR(sum / static_cast<double>(x.size()), 1.0, 0.05);  // inverted scaling
  EXPECT_NEAR(static_cast<double>(zeros) / static_cast<double>(x.size()), 0.5, 0.05);
}

TEST(Concat, StacksChannels) {
  Concat concat("cat");
  Tensor a({1, 1, 2, 2});
  a.fill(1.0F);
  Tensor b({1, 2, 2, 2});
  b.fill(2.0F);
  Tensor top;
  concat.setup({&a, &b}, top);
  concat.forward({&a, &b}, top, true);
  EXPECT_EQ(top.shape(), (std::vector<int>{1, 3, 2, 2}));
  EXPECT_FLOAT_EQ(top.at(0, 0, 0, 0), 1.0F);
  EXPECT_FLOAT_EQ(top.at(0, 1, 0, 0), 2.0F);
  EXPECT_FLOAT_EQ(top.at(0, 2, 1, 1), 2.0F);
}

TEST(EltwiseAdd, SumsBottoms) {
  EltwiseAdd add("a");
  Tensor a({2, 3});
  a.fill(1.5F);
  Tensor b({2, 3});
  b.fill(-0.5F);
  Tensor top;
  add.setup({&a, &b}, top);
  add.forward({&a, &b}, top, true);
  for (std::size_t i = 0; i < top.size(); ++i) EXPECT_FLOAT_EQ(top[i], 1.0F);
}

TEST(SoftmaxCrossEntropy, UniformLogitsGiveLogK) {
  SoftmaxCrossEntropy loss("l");
  Tensor logits({2, 4});
  logits.zero();
  Tensor labels({2});
  labels[0] = 0;
  labels[1] = 3;
  Tensor top;
  loss.setup({&logits, &labels}, top);
  loss.forward({&logits, &labels}, top, true);
  EXPECT_NEAR(top[0], std::log(4.0), 1e-5);
  const Tensor& probs = loss.probabilities();
  EXPECT_NEAR(probs[0], 0.25F, 1e-6);
}

TEST(SoftmaxCrossEntropy, ConfidentCorrectPredictionHasLowLoss) {
  SoftmaxCrossEntropy loss("l");
  Tensor logits({1, 3});
  logits[0] = 10.0F;
  Tensor labels({1});
  labels[0] = 0;
  Tensor top;
  loss.setup({&logits, &labels}, top);
  loss.forward({&logits, &labels}, top, true);
  EXPECT_LT(top[0], 0.01F);
}

// --- gradient checks through every layer type ---

struct GradCheckCase {
  std::string name;
  std::function<Net()> build;
};

// Printed by name: gtest would otherwise dump the case's bytes (string and
// std::function pointers), and the discovered ctest names would change with
// every run of the discovery.
void PrintTo(const GradCheckCase& c, std::ostream* os) { *os << c.name; }

class NetGradCheck : public ::testing::TestWithParam<GradCheckCase> {};

TEST_P(NetGradCheck, AnalyticMatchesNumeric) {
  common::Rng rng(1234);
  Net net = GetParam().build();
  net.init_params(rng);
  // Small random batch.
  Tensor& data = net.input("data");
  const auto shape = GetParam().name == "mlp_flat" ? std::vector<int>{4, 6}
                                                   : std::vector<int>{2, 3, 8, 8};
  data.reshape(shape);
  for (float& v : data.span()) v = static_cast<float>(rng.uniform(-1, 1));
  Tensor& labels = net.input("label");
  labels.reshape({shape[0]});
  for (float& v : labels.span()) v = static_cast<float>(rng.uniform_int(0, 3));

  const GradCheckResult result = check_gradients(net, 1e-3, 120, rng);
  EXPECT_EQ(result.checked, 120u);
  EXPECT_LT(result.max_rel_error, 0.05) << GetParam().name;
}

Net build_conv_pool_fc() {
  Net net("conv_pool_fc");
  net.add_input("data");
  net.add_input("label");
  net.add(std::make_unique<Conv2d>("conv", 3, 4, 3, 1, 1), {"data"}, "conv");
  net.add(std::make_unique<Relu>("relu"), {"conv"}, "relu");
  net.add(std::make_unique<MaxPool2d>("pool", 2, 2), {"relu"}, "pool");
  net.add(std::make_unique<FullyConnected>("logits", 4 * 4 * 4, 4), {"pool"}, "logits");
  net.add(std::make_unique<SoftmaxCrossEntropy>("loss"), {"logits", "label"}, "loss");
  return net;
}

Net build_strided_conv_gap() {
  Net net("strided_conv_gap");
  net.add_input("data");
  net.add_input("label");
  net.add(std::make_unique<Conv2d>("conv", 3, 5, 3, 2, 1), {"data"}, "conv");
  net.add(std::make_unique<Relu>("relu"), {"conv"}, "relu");
  net.add(std::make_unique<GlobalAvgPool>("gap"), {"relu"}, "gap");
  net.add(std::make_unique<FullyConnected>("logits", 5, 4), {"gap"}, "logits");
  net.add(std::make_unique<SoftmaxCrossEntropy>("loss"), {"logits", "label"}, "loss");
  return net;
}

Net build_branchy_concat() {
  // "data" consumed by two branches: exercises gradient accumulation.
  Net net("branchy");
  net.add_input("data");
  net.add_input("label");
  net.add(std::make_unique<Conv2d>("b1", 3, 2, 1, 1, 0), {"data"}, "b1");
  net.add(std::make_unique<Conv2d>("b2", 3, 3, 3, 1, 1), {"data"}, "b2");
  net.add(std::make_unique<Concat>("cat"), {"b1", "b2"}, "cat");
  net.add(std::make_unique<Relu>("relu"), {"cat"}, "relu");
  net.add(std::make_unique<GlobalAvgPool>("gap"), {"relu"}, "gap");
  net.add(std::make_unique<FullyConnected>("logits", 5, 4), {"gap"}, "logits");
  net.add(std::make_unique<SoftmaxCrossEntropy>("loss"), {"logits", "label"}, "loss");
  return net;
}

Net build_residual() {
  Net net("residual");
  net.add_input("data");
  net.add_input("label");
  net.add(std::make_unique<Conv2d>("stem", 3, 4, 3, 1, 1), {"data"}, "stem");
  net.add(std::make_unique<Conv2d>("body", 4, 4, 3, 1, 1), {"stem"}, "body");
  net.add(std::make_unique<Relu>("body_relu"), {"body"}, "body_relu");
  net.add(std::make_unique<EltwiseAdd>("add"), {"stem", "body_relu"}, "add");
  net.add(std::make_unique<GlobalAvgPool>("gap"), {"add"}, "gap");
  net.add(std::make_unique<FullyConnected>("logits", 4, 4), {"gap"}, "logits");
  net.add(std::make_unique<SoftmaxCrossEntropy>("loss"), {"logits", "label"}, "loss");
  return net;
}

Net build_mlp_flat() {
  Net net("mlp_flat");
  net.add_input("data");
  net.add_input("label");
  net.add(std::make_unique<FullyConnected>("fc1", 6, 10), {"data"}, "fc1");
  net.add(std::make_unique<Relu>("relu"), {"fc1"}, "relu");
  net.add(std::make_unique<FullyConnected>("logits", 10, 4), {"relu"}, "logits");
  net.add(std::make_unique<SoftmaxCrossEntropy>("loss"), {"logits", "label"}, "loss");
  return net;
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, NetGradCheck,
    ::testing::Values(GradCheckCase{"conv_pool_fc", build_conv_pool_fc},
                      GradCheckCase{"strided_conv_gap", build_strided_conv_gap},
                      GradCheckCase{"branchy_concat", build_branchy_concat},
                      GradCheckCase{"residual", build_residual},
                      GradCheckCase{"mlp_flat", build_mlp_flat}),
    [](const ::testing::TestParamInfo<GradCheckCase>& info) { return info.param.name; });

// --- Net mechanics ---

TEST(Net, RejectsUnknownInputBlob) {
  Net net;
  net.add_input("data");
  EXPECT_THROW(net.add(std::make_unique<Relu>("r"), {"nope"}, "out"), std::invalid_argument);
}

TEST(Net, RejectsDuplicateOutputBlob) {
  Net net;
  net.add_input("data");
  net.add(std::make_unique<Relu>("r1"), {"data"}, "out");
  EXPECT_THROW(net.add(std::make_unique<Relu>("r2"), {"data"}, "out"), std::invalid_argument);
}

TEST(Net, ReshapesWhenBatchSizeChanges) {
  common::Rng rng(1);
  Net net = build_mlp_flat();
  net.init_params(rng);
  net.input("data").reshape({4, 6});
  net.input("label").reshape({4});
  (void)net.forward(true);
  EXPECT_EQ(net.blob("logits").dim(0), 4);
  net.input("data").reshape({9, 6});
  net.input("label").reshape({9});
  (void)net.forward(true);
  EXPECT_EQ(net.blob("logits").dim(0), 9);
}

TEST(Net, ParamCountMatchesArchitecture) {
  Net net = build_mlp_flat();
  // fc1: 6*10+10, logits: 10*4+4
  EXPECT_EQ(net.param_count(), 70u + 44u);
}

TEST(Net, ArgmaxRows) {
  Tensor logits({2, 3});
  logits[0] = 0.1F;
  logits[1] = 0.9F;
  logits[2] = 0.2F;
  logits[3] = 5.0F;
  logits[4] = -1.0F;
  logits[5] = 2.0F;
  EXPECT_EQ(argmax_rows(logits), (std::vector<int>{1, 0}));
}

// --- ParamVector ---

TEST(ParamVector, RoundTripPreservesValues) {
  common::Rng rng(3);
  Net net = build_conv_pool_fc();
  net.init_params(rng);
  std::vector<float> flat = params_snapshot(net);
  EXPECT_EQ(flat.size(), net.param_count());
  // Perturb and restore.
  std::vector<float> doubled(flat.size());
  for (std::size_t i = 0; i < flat.size(); ++i) doubled[i] = 2.0F * flat[i];
  copy_params_from(net, doubled);
  std::vector<float> readback(flat.size());
  copy_params_to(net, readback);
  EXPECT_EQ(readback, doubled);
}

TEST(ParamVector, SizeMismatchThrows) {
  Net net = build_mlp_flat();
  std::vector<float> wrong(net.param_count() + 1);
  EXPECT_THROW(copy_params_from(net, wrong), std::invalid_argument);
  EXPECT_THROW(copy_params_to(net, wrong), std::invalid_argument);
}

TEST(ParamVector, GradsRoundTrip) {
  common::Rng rng(5);
  Net net = build_mlp_flat();
  net.init_params(rng);
  net.input("data").reshape({2, 6});
  net.input("label").reshape({2});
  (void)net.forward(true);
  net.backward();
  std::vector<float> grads(net.param_count());
  copy_grads_to(net, grads);
  float norm = 0.0F;
  for (float g : grads) norm += g * g;
  EXPECT_GT(norm, 0.0F);
  std::vector<float> zeros(grads.size(), 0.0F);
  copy_grads_from(net, zeros);
  copy_grads_to(net, grads);
  for (float g : grads) EXPECT_EQ(g, 0.0F);
}

// --- Solver ---

TEST(Solver, FixedPolicyIsConstant) {
  Net net = build_mlp_flat();
  SolverOptions options;
  options.base_lr = 0.05;
  SgdSolver solver(net, options);
  EXPECT_DOUBLE_EQ(solver.learning_rate(0), 0.05);
  EXPECT_DOUBLE_EQ(solver.learning_rate(100000), 0.05);
}

TEST(Solver, StepPolicyDecaysByGammaEveryStepSize) {
  Net net = build_mlp_flat();
  SolverOptions options;
  options.base_lr = 0.1;
  options.lr_policy = LrPolicy::kStep;
  options.gamma = 0.1;
  options.step_size = 100;
  SgdSolver solver(net, options);
  EXPECT_DOUBLE_EQ(solver.learning_rate(0), 0.1);
  EXPECT_DOUBLE_EQ(solver.learning_rate(99), 0.1);
  EXPECT_NEAR(solver.learning_rate(100), 0.01, 1e-12);
  EXPECT_NEAR(solver.learning_rate(250), 0.001, 1e-12);
}

TEST(Solver, MultiStepPolicy) {
  Net net = build_mlp_flat();
  SolverOptions options;
  options.base_lr = 1.0;
  options.lr_policy = LrPolicy::kMultiStep;
  options.gamma = 0.5;
  options.step_values = {10, 30};
  SgdSolver solver(net, options);
  EXPECT_DOUBLE_EQ(solver.learning_rate(5), 1.0);
  EXPECT_DOUBLE_EQ(solver.learning_rate(15), 0.5);
  EXPECT_DOUBLE_EQ(solver.learning_rate(40), 0.25);
}

TEST(Solver, PolyPolicyReachesZeroAtHorizon) {
  Net net = build_mlp_flat();
  SolverOptions options;
  options.base_lr = 0.2;
  options.lr_policy = LrPolicy::kPoly;
  options.power = 2.0;
  options.max_iter = 100;
  SgdSolver solver(net, options);
  EXPECT_DOUBLE_EQ(solver.learning_rate(0), 0.2);
  EXPECT_NEAR(solver.learning_rate(50), 0.05, 1e-12);
  EXPECT_NEAR(solver.learning_rate(100), 0.0, 1e-12);
}

TEST(Solver, InvAndExpPoliciesDecayMonotonically) {
  Net net = build_mlp_flat();
  for (LrPolicy policy : {LrPolicy::kInv, LrPolicy::kExp}) {
    SolverOptions options;
    options.lr_policy = policy;
    options.gamma = policy == LrPolicy::kExp ? 0.99 : 0.001;
    options.power = 0.75;
    SgdSolver solver(net, options);
    double prev = solver.learning_rate(0);
    for (int it = 1; it <= 1000; it += 100) {
      const double lr = solver.learning_rate(it);
      EXPECT_LT(lr, prev);
      prev = lr;
    }
  }
}

TEST(Solver, StepAppliesMomentumUpdate) {
  // One parameter, known gradient, check two steps by hand.
  Net net("tiny");
  net.add_input("data");
  net.add_input("label");
  net.add(std::make_unique<FullyConnected>("logits", 1, 2), {"data"}, "logits");
  net.add(std::make_unique<SoftmaxCrossEntropy>("loss"), {"logits", "label"}, "loss");
  SolverOptions options;
  options.base_lr = 0.1;
  options.momentum = 0.9;
  SgdSolver solver(net, options);

  auto params = net.params();
  params[0]->value.zero();
  params[0]->grad.fill(1.0F);
  params[1]->grad.zero();
  solver.apply_update(0.1);
  EXPECT_NEAR(params[0]->value[0], -0.1, 1e-6);  // v=0.1, w=-0.1
  params[0]->grad.fill(1.0F);
  solver.apply_update(0.1);
  // v = 0.9*0.1 + 0.1 = 0.19; w = -0.29
  EXPECT_NEAR(params[0]->value[0], -0.29, 1e-6);
}

TEST(Solver, WeightDecayPullsTowardsZero) {
  Net net("tiny");
  net.add_input("data");
  net.add_input("label");
  net.add(std::make_unique<FullyConnected>("logits", 1, 2), {"data"}, "logits");
  net.add(std::make_unique<SoftmaxCrossEntropy>("loss"), {"logits", "label"}, "loss");
  SolverOptions options;
  options.base_lr = 0.1;
  options.momentum = 0.0;
  options.weight_decay = 0.5;
  SgdSolver solver(net, options);
  auto params = net.params();
  params[0]->value.fill(1.0F);
  params[0]->grad.zero();
  params[1]->grad.zero();
  solver.apply_update(0.1);
  // w -= lr * wd * w = 1 - 0.1*0.5 = 0.95
  EXPECT_NEAR(params[0]->value[0], 0.95, 1e-6);
}

// --- model zoo ---

class ModelZoo : public ::testing::TestWithParam<std::string> {};

TEST_P(ModelZoo, ForwardBackwardRunsAndLossIsFinite) {
  common::Rng rng(7);
  ModelInputSpec spec;
  Net net = make_model(GetParam(), spec);
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
  // Freshly initialised: loss should be in the vicinity of log(classes)
  // (the residual family starts higher — MSRA variance compounds through
  // identity shortcuts).
  EXPECT_NEAR(loss[0], std::log(static_cast<double>(spec.classes)), 2.5);
  net.backward();
  std::vector<float> grads(net.param_count());
  copy_grads_to(net, grads);
  double norm = 0.0;
  for (float g : grads) norm += static_cast<double>(g) * g;
  EXPECT_GT(norm, 0.0);
  EXPECT_TRUE(net.has_blob("logits"));
}

INSTANTIATE_TEST_SUITE_P(Families, ModelZoo,
                         ::testing::Values("mlp", "mini_vgg", "mini_inception",
                                           "mini_resnet"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

TEST(ModelZoo, UnknownFamilyThrows) {
  EXPECT_THROW((void)make_model("alexnet", {}), std::invalid_argument);
}

TEST(ModelZoo, RelativeParameterCountsMatchFamilies) {
  ModelInputSpec spec;
  Net vgg = make_mini_vgg(spec);
  Net inception = make_mini_inception(spec);
  // The VGG family is parameter-heavy relative to inception (the property
  // the paper's communication analysis leans on).
  EXPECT_GT(vgg.param_count(), 3 * inception.param_count());
}

TEST(Learning, SgdLearnsLinearlySeparableData) {
  // Two Gaussian blobs in 6-D; an MLP should reach high accuracy quickly.
  common::Rng rng(42);
  ModelInputSpec spec;
  spec.channels = 1;
  spec.height = 1;
  spec.width = 6;
  spec.classes = 2;
  Net net = make_mlp(spec, 16);
  net.init_params(rng);

  SolverOptions options;
  options.base_lr = 0.05;
  options.momentum = 0.9;
  SgdSolver solver(net, options);

  constexpr int kBatch = 32;
  auto fill_batch = [&rng](Tensor& data, Tensor& labels) {
    data.reshape({kBatch, 6});
    labels.reshape({kBatch});
    for (int n = 0; n < kBatch; ++n) {
      const int cls = static_cast<int>(rng.uniform_int(0, 1));
      labels[static_cast<std::size_t>(n)] = static_cast<float>(cls);
      for (int i = 0; i < 6; ++i) {
        const double centre = cls == 0 ? -1.0 : 1.0;
        data[static_cast<std::size_t>(n * 6 + i)] =
            static_cast<float>(rng.normal(centre, 0.8));
      }
    }
  };

  float first_loss = 0.0F;
  float last_loss = 0.0F;
  for (int iter = 0; iter < 80; ++iter) {
    fill_batch(net.input("data"), net.input("label"));
    const Tensor& loss = net.forward(true);
    if (iter == 0) first_loss = loss[0];
    last_loss = loss[0];
    net.backward();
    solver.step();
  }
  EXPECT_LT(last_loss, 0.2F);
  EXPECT_LT(last_loss, first_loss * 0.5F);

  // Held-out accuracy.
  fill_batch(net.input("data"), net.input("label"));
  (void)net.forward(false);
  const std::vector<int> predicted = argmax_rows(net.blob("logits"));
  int correct = 0;
  for (int n = 0; n < kBatch; ++n) {
    correct += predicted[static_cast<std::size_t>(n)] ==
               static_cast<int>(net.input("label")[static_cast<std::size_t>(n)]);
  }
  EXPECT_GE(correct, kBatch * 9 / 10);
}

}  // namespace
}  // namespace shmcaffe::dl
