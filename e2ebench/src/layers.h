#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "features/sequence_encoder.h"
#include "nn/lstm.h"
#include "nn/transformer.h"
#include "util/rng.h"

/// \file layers.h
/// \brief Per-layer attribution probes of the e2e benchmark, timed from
/// outside the program through its public `nn` and `linalg` entry points.
///
/// Every probe runs on one thread. FLOPs are computed from tensor shapes
/// (2*m*k*n per matrix product), not counted by the program.

namespace e2ebench {

/// Seconds per LSTM layer over one replay of a sequence subset.
struct LstmReplay {
  double embedding_s = 0.0;
  double layer_s[2] = {0.0, 0.0};
  double head_s = 0.0;
  double matmul_flops = 0.0;  ///< from shapes: gate and head products
  bool bit_identical = true;  ///< replay logits == ForwardLogits, bitwise
  std::vector<std::vector<float>> logits;

  double total_s() const {
    return embedding_s + layer_s[0] + layer_s[1] + head_s;
  }
};

/// Seconds per transformer layer kind over one replay of a subset.
struct RobertaReplay {
  double embedding_s = 0.0;
  double attention_s = 0.0;
  double ffn_s = 0.0;
  double layernorm_s = 0.0;  ///< residual add + LayerNorm, incl. embed norm
  double pooler_head_s = 0.0;
  double attention_flops = 0.0;  ///< q/k/v/o projections + scores + mix
  double ffn_flops = 0.0;
  bool bit_identical = true;
  std::vector<std::vector<float>> logits;

  double total_s() const {
    return embedding_s + attention_s + ffn_s + layernorm_s + pooler_head_s;
  }
};

/// Replays `LstmClassifier::ForwardLogits` (eval mode) layer by layer
/// through `Embedding`, `LstmCell::Step` and `Linear`, and checks every
/// row's logits bitwise against `net.ForwardLogits`.
LstmReplay ReplayLstm(const cuisine::nn::LstmClassifier& net,
                      const std::vector<cuisine::features::EncodedSequence>& x);

/// Replays `TransformerClassifier::ForwardLogits` (eval mode) through
/// `Embedding`, `MultiHeadSelfAttention`, `FeedForward`, `LayerNorm` and
/// `Linear`, with the same bitwise check.
RobertaReplay ReplayRoberta(
    const cuisine::nn::TransformerClassifier& net,
    const std::vector<cuisine::features::EncodedSequence>& x);

/// Seconds spent in `net.ForwardLogits` (eval mode) over `x` on the
/// calling thread.
template <typename Net>
double TimeForward(const Net& net,
                   const std::vector<cuisine::features::EncodedSequence>& x) {
  cuisine::util::Rng unused(0);
  const auto start = std::chrono::steady_clock::now();
  for (const auto& seq : x) net.ForwardLogits(seq, false, &unused);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// Row softmax exactly as the engine's batched predict computes it, so a
/// replayed row can be compared bitwise with `PredictBatch` output.
std::vector<float> EngineSoftmax(const std::vector<float>& logits);

/// GFLOP/s of `linalg::GemmKernel` at a fixed 256^3 shape, one thread
/// (median of several timed blocks).
double GemmPeakGflops();

/// Seconds in each phase of a fixed number of training steps, replayed
/// through public calls: `ForwardLogits` + `CrossEntropy` (forward),
/// `Tensor::Backward` (backward), `ClipGradNorm` + `Adam::Step` +
/// `ZeroGrad` (optimizer).
struct TrainReplay {
  double forward_s = 0.0;
  double backward_s = 0.0;
  double optimizer_s = 0.0;
  int64_t steps = 0;
};

/// Replays `steps` optimizer steps of `batch` examples each on freshly
/// initialised LSTM and transformer classifiers, adding into `*out`.
void ReplayTraining(const cuisine::nn::LstmConfig& lstm_config,
                    const cuisine::nn::TransformerConfig& roberta_config,
                    int32_t num_classes,
                    const std::vector<cuisine::features::EncodedSequence>& lstm_x,
                    const std::vector<cuisine::features::EncodedSequence>& roberta_x,
                    const std::vector<int32_t>& labels, int32_t steps,
                    int32_t batch, TrainReplay* out);

}  // namespace e2ebench
