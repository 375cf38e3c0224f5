#include "layers.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <numeric>
#include <span>

#include "linalg/kernels.h"
#include "nn/optimizer.h"
#include "nn/tensor.h"
#include "util/logging.h"
#include "util/rng.h"

namespace e2ebench {
namespace {

namespace nn = cuisine::nn;
using cuisine::features::EncodedSequence;
using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Adds the time since `*mark` to `*acc` and moves the mark to now.
void Lap(Clock::time_point* mark, double* acc) {
  const Clock::time_point now = Clock::now();
  *acc += SecondsBetween(*mark, now);
  *mark = now;
}

std::vector<float> Row(const nn::Tensor& t) {
  return std::vector<float>(t.data(), t.data() + t.size());
}

bool SameBits(const nn::Tensor& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), b.size() * sizeof(float)) == 0;
}

std::span<const int32_t> RealIds(const EncodedSequence& seq) {
  return {seq.ids.data(), static_cast<size_t>(seq.length)};
}

}  // namespace

LstmReplay ReplayLstm(const nn::LstmClassifier& net,
                      const std::vector<EncodedSequence>& x) {
  const auto& cells = net.cells();
  CUISINE_CHECK(cells.size() == 2);
  const float p = net.config().dropout;
  const double classes = static_cast<double>(net.num_classes());
  LstmReplay r;
  r.logits.reserve(x.size());
  std::vector<nn::LstmCell::State> states;
  for (const EncodedSequence& seq : x) {
    const auto length = static_cast<size_t>(seq.length);
    Clock::time_point mark = Clock::now();
    const nn::Tensor embedded = net.embedding().Forward(RealIds(seq));
    Lap(&mark, &r.embedding_s);

    states.clear();
    for (const auto& cell : cells) states.push_back(cell->InitialState());
    nn::Tensor top;
    for (size_t t = 0; t < length; ++t) {
      mark = Clock::now();
      nn::Tensor input = nn::SliceRows(embedded, static_cast<int64_t>(t), 1);
      for (size_t l = 0; l < cells.size(); ++l) {
        if (l > 0) input = nn::DropoutOp(input, p, /*training=*/false, nullptr);
        states[l] = cells[l]->Step(input, states[l]);
        input = states[l].h;
        Lap(&mark, &r.layer_s[l]);
      }
      top = states.back().h;
    }
    mark = Clock::now();
    const nn::Tensor logits =
        net.head().Forward(nn::DropoutOp(top, p, /*training=*/false, nullptr));
    Lap(&mark, &r.head_s);
    states.clear();

    for (const auto& cell : cells) {
      const double in = static_cast<double>(cell->w_input().rows());
      const double gates = static_cast<double>(cell->w_input().cols());
      const double hidden = static_cast<double>(cell->hidden_size());
      r.matmul_flops +=
          static_cast<double>(length) * 2.0 * (in + hidden) * gates;
    }
    r.matmul_flops += 2.0 * static_cast<double>(top.cols()) * classes;

    r.logits.push_back(Row(logits));
    cuisine::util::Rng unused(0);
    r.bit_identical = r.bit_identical &&
                      SameBits(net.ForwardLogits(seq, false, &unused),
                               r.logits.back());
  }
  return r;
}

RobertaReplay ReplayRoberta(const nn::TransformerClassifier& net,
                            const std::vector<EncodedSequence>& x) {
  const nn::TransformerEncoder& encoder = net.encoder();
  const nn::TransformerConfig& config = encoder.config();
  const double d = static_cast<double>(config.d_model);
  const double d_ff = static_cast<double>(config.d_ff);
  RobertaReplay r;
  r.logits.reserve(x.size());
  std::vector<int32_t> positions;
  for (const EncodedSequence& seq : x) {
    const auto length = static_cast<size_t>(seq.length);
    positions.resize(length);
    std::iota(positions.begin(), positions.end(), 0);

    Clock::time_point mark = Clock::now();
    nn::Tensor h = nn::Add(encoder.token_embedding().Forward(RealIds(seq)),
                           encoder.position_embedding().Forward(positions));
    Lap(&mark, &r.embedding_s);
    h = nn::DropoutOp(encoder.embed_norm().Forward(h), config.dropout,
                      /*training=*/false, nullptr);
    Lap(&mark, &r.layernorm_s);
    const nn::Tensor mask_bias =
        nn::Tensor::Zeros(1, static_cast<int64_t>(length));
    for (const auto& layer : encoder.layers()) {
      mark = Clock::now();
      const nn::Tensor attn =
          layer->attention().Forward(h, mask_bias, /*training=*/false, nullptr);
      Lap(&mark, &r.attention_s);
      const nn::Tensor mid = layer->norm1().Forward(nn::Add(h, attn));
      Lap(&mark, &r.layernorm_s);
      const nn::Tensor ff = layer->feed_forward().Forward(mid);
      Lap(&mark, &r.ffn_s);
      h = layer->norm2().Forward(nn::Add(mid, ff));
      Lap(&mark, &r.layernorm_s);
    }
    mark = Clock::now();
    const nn::Tensor pooled = net.pooler().ForwardActivate(
        nn::SliceRows(h, 0, 1), cuisine::linalg::Activation::kTanh);
    const nn::Tensor logits = net.head().Forward(pooled);
    Lap(&mark, &r.pooler_head_s);

    const double s = static_cast<double>(length);
    const double layers = static_cast<double>(encoder.layers().size());
    r.attention_flops += layers * (8.0 * s * d * d + 4.0 * s * s * d);
    r.ffn_flops += layers * 4.0 * s * d * d_ff;

    r.logits.push_back(Row(logits));
    cuisine::util::Rng unused(0);
    r.bit_identical = r.bit_identical &&
                      SameBits(net.ForwardLogits(seq, false, &unused),
                               r.logits.back());
  }
  return r;
}

std::vector<float> EngineSoftmax(const std::vector<float>& logits) {
  std::vector<float> proba = logits;
  float mx = proba[0];
  for (float v : proba) mx = std::max(mx, v);
  float sum = 0.0f;
  for (float& v : proba) {
    v = std::exp(v - mx);
    sum += v;
  }
  for (float& v : proba) v /= sum;
  return proba;
}

double GemmPeakGflops() {
  constexpr size_t kDim = 256;
  constexpr int kCallsPerBlock = 12;
  constexpr int kBlocks = 5;
  std::vector<float> a(kDim * kDim), b(kDim * kDim), c(kDim * kDim);
  cuisine::util::Rng rng(7);
  for (float& v : a) v = rng.NextFloat() - 0.5f;
  for (float& v : b) v = rng.NextFloat() - 0.5f;
  cuisine::linalg::GemmKernel(kDim, kDim, kDim, a.data(), b.data(), c.data(),
                              false);
  std::vector<double> rates;
  for (int block = 0; block < kBlocks; ++block) {
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < kCallsPerBlock; ++i) {
      cuisine::linalg::GemmKernel(kDim, kDim, kDim, a.data(), b.data(),
                                  c.data(), false);
    }
    const double seconds = SecondsBetween(start, Clock::now());
    rates.push_back(2.0 * kDim * kDim * kDim * kCallsPerBlock / seconds / 1e9);
  }
  std::sort(rates.begin(), rates.end());
  return rates[rates.size() / 2];
}

namespace {

template <typename Net>
void ReplaySteps(const Net& net, const std::vector<EncodedSequence>& x,
                 const std::vector<int32_t>& labels, int32_t steps,
                 int32_t batch, TrainReplay* out) {
  nn::Adam optimizer(net.Parameters(), 1e-3, 0.9, 0.999, 1e-8, 0.01);
  cuisine::util::Rng rng(11);
  size_t next = 0;
  for (int32_t step = 0; step < steps; ++step) {
    for (int32_t b = 0; b < batch; ++b, next = (next + 1) % x.size()) {
      Clock::time_point mark = Clock::now();
      const nn::Tensor logits = net.ForwardLogits(x[next], true, &rng);
      nn::Tensor loss = nn::CrossEntropy(logits, {labels[next]});
      Lap(&mark, &out->forward_s);
      loss.Backward();
      Lap(&mark, &out->backward_s);
    }
    Clock::time_point mark = Clock::now();
    optimizer.ClipGradNorm(1.0);
    optimizer.Step();
    optimizer.ZeroGrad();
    Lap(&mark, &out->optimizer_s);
    ++out->steps;
  }
}

}  // namespace

void ReplayTraining(const nn::LstmConfig& lstm_config,
                    const nn::TransformerConfig& roberta_config,
                    int32_t num_classes,
                    const std::vector<EncodedSequence>& lstm_x,
                    const std::vector<EncodedSequence>& roberta_x,
                    const std::vector<int32_t>& labels, int32_t steps,
                    int32_t batch, TrainReplay* out) {
  const nn::LstmClassifier lstm(lstm_config, num_classes);
  ReplaySteps(lstm, lstm_x, labels, steps, batch, out);
  const nn::TransformerClassifier roberta(roberta_config, num_classes);
  ReplaySteps(roberta, roberta_x, labels, steps, batch, out);
}

}  // namespace e2ebench
