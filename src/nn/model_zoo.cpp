#include "nn/model_zoo.hpp"

#include <stdexcept>

namespace cmdare::nn {
namespace {

constexpr int kImageSize = 32;
constexpr int kClasses = 10;

void add_conv_bn_relu(std::vector<Layer>& layers, int in_ch, int out_ch,
                      int kernel, int stride, int size) {
  layers.push_back(Conv2d{in_ch, out_ch, kernel, stride, size, size});
  const int out_size = (size + stride - 1) / stride;
  layers.push_back(BatchNorm{out_ch, out_size, out_size});
  layers.push_back(Elementwise{out_ch, out_size, out_size, 1});  // ReLU
}

void add_residual_block(std::vector<Layer>& layers, int in_ch, int out_ch,
                        int stride, int size) {
  const int out_size = (size + stride - 1) / stride;
  add_conv_bn_relu(layers, in_ch, out_ch, 3, stride, size);
  layers.push_back(Conv2d{out_ch, out_ch, 3, 1, out_size, out_size});
  layers.push_back(BatchNorm{out_ch, out_size, out_size});
  if (stride != 1 || in_ch != out_ch) {
    // Projection shortcut.
    layers.push_back(Conv2d{in_ch, out_ch, 1, stride, size, size});
  }
  layers.push_back(Elementwise{out_ch, out_size, out_size, 1});  // add
  layers.push_back(Elementwise{out_ch, out_size, out_size, 1});  // ReLU
}

void add_shake_branch(std::vector<Layer>& layers, int in_ch, int out_ch,
                      int stride, int size) {
  const int out_size = (size + stride - 1) / stride;
  layers.push_back(Elementwise{in_ch, size, size, 1});  // pre-activation ReLU
  layers.push_back(Conv2d{in_ch, out_ch, 3, stride, size, size});
  layers.push_back(BatchNorm{out_ch, out_size, out_size});
  layers.push_back(Elementwise{out_ch, out_size, out_size, 1});  // ReLU
  layers.push_back(Conv2d{out_ch, out_ch, 3, 1, out_size, out_size});
  layers.push_back(BatchNorm{out_ch, out_size, out_size});
}

void add_shake_block(std::vector<Layer>& layers, int in_ch, int out_ch,
                     int stride, int size) {
  const int out_size = (size + stride - 1) / stride;
  add_shake_branch(layers, in_ch, out_ch, stride, size);
  add_shake_branch(layers, in_ch, out_ch, stride, size);
  // alpha * b1 + (1 - alpha) * b2: ~3 FLOPs per element.
  layers.push_back(Elementwise{out_ch, out_size, out_size, 3});
  if (stride != 1 || in_ch != out_ch) {
    layers.push_back(Conv2d{in_ch, out_ch, 1, stride, size, size});
  }
  layers.push_back(Elementwise{out_ch, out_size, out_size, 1});  // add
}

void add_classifier(std::vector<Layer>& layers, int channels, int size) {
  layers.push_back(Pool{channels, size, size, size, size});  // global avg
  layers.push_back(Dense{channels, kClasses});
}

}  // namespace

CnnModel make_resnet(const std::string& name, int blocks_per_stage,
                     int base_width) {
  if (blocks_per_stage < 1 || base_width < 1) {
    throw std::invalid_argument("make_resnet: invalid configuration");
  }
  std::vector<Layer> layers;
  add_conv_bn_relu(layers, 3, base_width, 3, 1, kImageSize);
  int in_ch = base_width;
  int size = kImageSize;
  for (int stage = 0; stage < 3; ++stage) {
    const int out_ch = base_width << stage;
    const int stride = stage == 0 ? 1 : 2;
    add_residual_block(layers, in_ch, out_ch, stride, size);
    size = (size + stride - 1) / stride;
    for (int b = 1; b < blocks_per_stage; ++b) {
      add_residual_block(layers, out_ch, out_ch, 1, size);
    }
    in_ch = out_ch;
  }
  add_classifier(layers, in_ch, size);
  return CnnModel(name, Architecture::kResNet, std::move(layers));
}

CnnModel make_shake_shake(const std::string& name, int blocks_per_stage,
                          int base_width) {
  if (blocks_per_stage < 1 || base_width < 1) {
    throw std::invalid_argument("make_shake_shake: invalid configuration");
  }
  std::vector<Layer> layers;
  add_conv_bn_relu(layers, 3, 16, 3, 1, kImageSize);
  int in_ch = 16;
  int size = kImageSize;
  for (int stage = 0; stage < 3; ++stage) {
    const int out_ch = base_width << stage;
    const int stride = stage == 0 ? 1 : 2;
    add_shake_block(layers, in_ch, out_ch, stride, size);
    size = (size + stride - 1) / stride;
    for (int b = 1; b < blocks_per_stage; ++b) {
      add_shake_block(layers, out_ch, out_ch, 1, size);
    }
    in_ch = out_ch;
  }
  add_classifier(layers, in_ch, size);
  return CnnModel(name, Architecture::kShakeShake, std::move(layers));
}

// Base widths below are calibration constants: they are chosen so the
// analytically computed training GFLOPs match the complexities the paper
// reports in Table I (0.59 / 1.54 / 2.41 / 21.3 GFLOPs).
CnnModel resnet15() { return make_resnet("resnet-15", 2, 31); }
CnnModel resnet32() { return make_resnet("resnet-32", 5, 31); }
CnnModel shake_shake_small() {
  return make_shake_shake("shake-shake-small", 4, 31);
}
CnnModel shake_shake_big() { return make_shake_shake("shake-shake-big", 4, 93); }

std::vector<CnnModel> canonical_models() {
  std::vector<CnnModel> models;
  models.push_back(resnet15());
  models.push_back(resnet32());
  models.push_back(shake_shake_small());
  models.push_back(shake_shake_big());
  return models;
}

std::vector<CnnModel> custom_models() {
  // Sixteen depth/width variants spanning ~0.2 to ~27 GFLOPs, mirroring the
  // paper's "varying the number of hidden layers and the size of each
  // hidden layer".
  std::vector<CnnModel> models;
  const auto add_resnet = [&](int n, int w) {
    models.push_back(make_resnet(
        "resnet-d" + std::to_string(6 * n + 2) + "-w" + std::to_string(w), n,
        w));
  };
  const auto add_ss = [&](int n, int w) {
    models.push_back(make_shake_shake(
        "shake-d" + std::to_string(n) + "-w" + std::to_string(w), n, w));
  };
  // Complexities chosen to cover ~0.2 to ~27 GFLOPs without large gaps,
  // which is what lets the regression study interpolate (Section III-A:
  // the custom models exist "to better observe how model complexity
  // impacts training time").
  add_resnet(2, 16);
  add_resnet(3, 16);
  add_resnet(5, 20);
  add_resnet(5, 40);
  add_resnet(7, 24);
  add_resnet(7, 48);
  add_resnet(9, 32);
  add_resnet(9, 64);
  add_resnet(12, 48);
  add_resnet(12, 64);
  add_ss(2, 16);
  add_ss(3, 24);
  add_ss(4, 48);
  add_ss(5, 64);
  add_ss(6, 72);
  add_ss(6, 80);
  return models;
}

const std::vector<CnnModel>& all_models() {
  static const std::vector<CnnModel> models = [] {
    std::vector<CnnModel> list = canonical_models();
    std::vector<CnnModel> custom = custom_models();
    list.insert(list.end(), std::make_move_iterator(custom.begin()),
                std::make_move_iterator(custom.end()));
    return list;
  }();
  return models;
}

const CnnModel& model_by_name(const std::string& name) {
  for (const CnnModel& m : all_models()) {
    if (m.name() == name) return m;
  }
  throw std::invalid_argument("model_by_name: unknown model " + name);
}

}  // namespace cmdare::nn
