/// \file main.cc
/// \brief End-to-end benchmark: raw recipe events in, cuisine label out.
///
/// One process sets the system up (generate, preprocess, fit, attach int8)
/// three times and, after each set-up, measures a third of `--seconds`
/// across four phases, so every figure is sampled over the whole run:
///
///   bulk_neural   raw held-out recipes -> TokenizeCorpus -> EncodeAll ->
///                 PredictBatch for lstm fp32, roberta fp32, roberta int8
///   bulk_tfidf    a full Table II scale corpus -> TokenizeCorpus ->
///                 TF-IDF -> logreg PredictBatch
///   serve_ladder  an open loop of Poisson-timed requests of 1-16 raw
///                 recipes through an InferenceService ladder
///                 roberta fp32 -> roberta int8 -> naive_bayes
///   train_finetune  Fit of lstm and roberta (MLM pretrain + fine-tune),
///                 timed inside each set-up
///
/// `--trace 0` reports the end-to-end metrics with every layer timer off.
/// `--trace 1` is the separate attributed run: it times each public layer
/// call from outside, reads the program's counters around the calls,
/// replays the forward and a few training steps layer by layer, and
/// reports the per-layer metrics. Every run checks its outputs; a failed
/// check sets "correct": false and counts as a failed operation. The last
/// stdout line is the result JSON. See e2ebench/README.md.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/model.h"
#include "core/pipeline.h"
#include "core/service.h"
#include "data/generator.h"
#include "data/splitter.h"
#include "features/sequence_encoder.h"
#include "features/vectorizer.h"
#include "layers.h"
#include "nn/serialization.h"
#include "text/tokenizer.h"
#include "util/rng.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"

namespace {

namespace core = cuisine::core;
namespace data = cuisine::data;
namespace features = cuisine::features;
namespace nn = cuisine::nn;
namespace text = cuisine::text;
namespace util = cuisine::util;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Workload definition. Every value here is a constant of the benchmark:
// none is derived from a speed measured at run time, so a faster build is
// always measured on the same work.
// ---------------------------------------------------------------------------

/// Recipe shape of one workload (events per recipe drive every layer's
/// cost: tokens to clean, sequence length to encode and forward).
struct Workload {
  const char* name;
  int32_t min_ingredients, max_ingredients;
  int32_t min_processes, max_processes;
};

constexpr Workload kWorkloads[] = {
    // The generator's paper-shaped defaults: most sequences end before
    // the model windows, so lengths (and padding) vary per recipe.
    {"paper", 4, 12, 6, 18},
    // Long recipes: nearly every sequence fills the model windows and
    // each recipe carries about twice the text.
    {"long", 10, 18, 20, 36},
};

constexpr int32_t kNumClasses = data::kNumCuisines;
constexpr int kSetupRepeats = 3;  // also the number of measured segments
constexpr size_t kEngineWorkers = 2;

// The sequential models and the serving ladder are fitted on a fixed
// corpus, so their quality is a property of the program rather than of
// --seed; --seed draws the recipes they classify and the request stream.
// The TF-IDF path is fitted and measured on a full-scale corpus generated
// from --seed (its accuracy barely moves between corpora).
constexpr uint64_t kModelCorpusSeed = 2020;
constexpr uint64_t kModelSplitSeed = 7;
constexpr double kNeuralScale = 0.1;    // ~11.8k recipes, ~2.4k held out
constexpr size_t kHeldoutRecipes = 1800;  // drawn from the held-out split
// bulk_neural classifies the held-out sample in chunks, one chunk per
// round, so each run takes many short samples spread over its length.
constexpr size_t kChunks = 6;
constexpr size_t kWarmupRecipes = 128;
constexpr double kTfidfScale = 1.0;     // full Table II: ~118k recipes

// Sequential models: repository default architectures, capped training.
constexpr size_t kTrainCap = 600;
constexpr int32_t kLstmEpochs = 2;
constexpr int32_t kPretrainEpochs = 1;
constexpr int32_t kFinetuneEpochs = 2;
// LogReg is fitted on a fixed prefix of the (shuffled) training split.
constexpr size_t kLogregTrainRows = 8000;
constexpr int32_t kLogregEpochs = 10;

// Shares of each segment (--seconds / kSetupRepeats) given to the phases.
constexpr double kBulkNeuralShare = 0.30;
constexpr double kBulkTfidfShare = 0.25;
constexpr double kServeShare = 0.45;

// serve_ladder: open loop.
constexpr double kServeRatePerS = 150.0;
constexpr uint64_t kServeShapeSeed = 2021;
constexpr int kMaxRequestRecipes = 16;
constexpr double kDeadlineShare = 0.2;
constexpr double kLatencyLimitMs = 50.0;
constexpr double kDeadlineMs = kLatencyLimitMs;
// Two slots leave two cores to the client threads, so a burst queues in
// the service's admission queue instead of starving the load generator.
constexpr size_t kServeSlots = 2;
constexpr size_t kServeQueue = 8;
constexpr size_t kClientThreads = kServeSlots + kServeQueue + 2;
constexpr double kTransientFaultProbability = 0.0005;
constexpr std::chrono::microseconds kSpinBeforeDue{500};

// Output checks. Check passes run outside every timed window and may use
// every core.
constexpr size_t kCheckWorkers = 4;
constexpr double kInt8TolerancePts = 0.5;
constexpr double kMinReplayCoverage = 0.5;
constexpr double kMaxReplayCoverage = 2.0;

// Traced probes.
constexpr size_t kReplayRows = 256;
constexpr int kReplayRepeats = 3;
constexpr int32_t kTrainReplaySteps = 6;
constexpr int32_t kTrainReplayBatch = 16;

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (q in (0, 1]).
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double AccuracyPct(const std::vector<int32_t>& predicted,
                   const std::vector<int32_t>& truth) {
  size_t hits = 0;
  for (size_t i = 0; i < truth.size(); ++i) hits += predicted[i] == truth[i];
  return 100.0 * static_cast<double>(hits) / static_cast<double>(truth.size());
}

/// Accuracy of always answering the most frequent class.
double ChanceFloorPct(const std::vector<int32_t>& truth) {
  std::vector<size_t> counts(kNumClasses, 0);
  for (int32_t y : truth) ++counts[static_cast<size_t>(y)];
  return 100.0 * static_cast<double>(*std::max_element(counts.begin(), counts.end())) /
         static_cast<double>(truth.size());
}

/// An independent seed for one use (`stream`) of the run's --seed.
/// (util::Rng is SplitMix64: seeds that differ by its increment would
/// give shifted copies of one stream, so streams are mixed, not offset.)
uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  return util::Rng(seed ^ (0xd1342543de82ef95ULL * (stream + 1))).NextU64();
}

bool SamePredictions(const core::Predictions& a, const core::Predictions& b) {
  if (a.labels != b.labels || a.probas.size() != b.probas.size()) return false;
  for (size_t i = 0; i < a.probas.size(); ++i) {
    if (a.probas[i].size() != b.probas[i].size() ||
        std::memcmp(a.probas[i].data(), b.probas[i].data(),
                    a.probas[i].size() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

uint64_t CounterValue(const char* name) {
  return util::MetricsRegistry::Instance().GetCounter(name)->value();
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

/// Output checks and operation counts of one run.
struct Ledger {
  uint64_t attempted = 0;
  uint64_t failed_ops = 0;
  uint64_t failed_checks = 0;

  void Expect(const std::string& name, bool passed, const std::string& detail) {
    failed_checks += passed ? 0 : 1;
    std::printf("# check %-44s %s  %s\n", name.c_str(),
                passed ? "ok  " : "FAIL", detail.c_str());
  }
};

std::string Fmt(const char* format, double a, double b = 0.0) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), format, a, b);
  return buf;
}

// ---------------------------------------------------------------------------
// Set-up: everything a caller pays before the first label.
// ---------------------------------------------------------------------------

data::GeneratorOptions ShapeOptions(const Workload& w, uint64_t seed,
                                    double scale) {
  data::GeneratorOptions g;
  g.seed = seed;
  g.scale = scale;
  g.min_ingredients = w.min_ingredients;
  g.max_ingredients = w.max_ingredients;
  g.min_processes = w.min_processes;
  g.max_processes = w.max_processes;
  return g;
}

core::ModelContext MakeContext() {
  core::ModelContext ctx;
  ctx.num_classes = kNumClasses;
  ctx.sequential.lstm_train.epochs = kLstmEpochs;
  ctx.sequential.roberta_pretrain.epochs = kPretrainEpochs;
  ctx.sequential.roberta_finetune.epochs = kFinetuneEpochs;
  ctx.sequential.max_pretrain_sequences = kTrainCap;
  ctx.statistical.logistic_regression.epochs = kLogregEpochs;
  return ctx;
}

/// The fitted system plus the raw inputs the timed phases feed it.
/// Heap-only: encoders and datasets point into it.
struct System {
  core::ModelContext ctx = MakeContext();
  text::Tokenizer tokenizer;

  // Fixed corpus for the sequential models and serving.
  core::TokenizedCorpus corpus;
  std::vector<data::Recipe> pool;     // raw held-out split; requests draw here
  std::vector<data::Recipe> heldout;  // the bulk input, drawn by --seed
  std::vector<std::vector<data::Recipe>> chunks;  // heldout, in kChunks parts
  std::vector<data::Recipe> warmup;
  std::vector<int32_t> heldout_labels;
  std::optional<text::Vocabulary> vocab;
  std::optional<features::SequenceEncoder> lstm_encoder;
  std::optional<features::SequenceEncoder> roberta_encoder;
  std::vector<features::EncodedSequence> lstm_train, roberta_train;
  std::vector<int32_t> train_labels;
  std::unique_ptr<core::Model> lstm, roberta, naive_bayes;
  std::optional<core::QuantizedModel> roberta_int8;
  features::TfidfVectorizer small_tfidf;
  double lstm_fit_s = 0.0, roberta_fit_s = 0.0;

  // Full-scale corpus for the TF-IDF path.
  std::vector<data::Recipe> full;
  core::TokenizedCorpus full_corpus;
  std::vector<size_t> full_test_rows;
  std::vector<int32_t> full_test_labels;
  features::TfidfVectorizer full_tfidf;
  std::unique_ptr<core::Model> logreg;
};

std::unique_ptr<core::Model> Create(const std::string& key,
                                    const core::ModelContext& ctx) {
  auto model = core::ModelRegistry::Instance().Create(key, ctx);
  CUISINE_CHECK(model.ok());
  return std::move(model).ValueOrDie();
}

void CheckOk(const util::Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "e2ebench: %s failed: %s\n", what,
                 status.ToString().c_str());
    std::exit(3);
  }
}

std::unique_ptr<System> SetUp(const Workload& w, uint64_t seed) {
  auto s = std::make_unique<System>();
  const core::FitOptions fit{.num_classes = kNumClasses,
                             .num_workers = kEngineWorkers};

  // ---- sequential models + serving ladder ----
  const data::RecipeDbGenerator generator(
      ShapeOptions(w, kModelCorpusSeed, kNeuralScale));
  const std::vector<data::Recipe> recipes = generator.Generate();
  s->corpus = core::TokenizeCorpus(recipes, s->tokenizer);
  auto split = data::StratifiedSplit(recipes, {}, kModelSplitSeed);
  CheckOk(split.status(), "StratifiedSplit");
  s->pool = data::Gather(recipes, split->test);
  std::vector<size_t> picks(s->pool.size());
  std::iota(picks.begin(), picks.end(), 0);
  util::Rng rng(DeriveSeed(seed, 1));
  rng.Shuffle(&picks);
  picks.resize(std::min(kHeldoutRecipes, picks.size()));
  s->heldout = data::Gather(s->pool, picks);
  s->warmup.assign(s->heldout.begin(),
                   s->heldout.begin() + std::min(kWarmupRecipes, s->heldout.size()));
  for (const data::Recipe& r : s->heldout) s->heldout_labels.push_back(r.cuisine_id);
  for (size_t c = 0; c < kChunks; ++c) {
    s->chunks.emplace_back(s->heldout.begin() + c * s->heldout.size() / kChunks,
                           s->heldout.begin() + (c + 1) * s->heldout.size() / kChunks);
  }

  const core::CorpusSlice train_all = core::GatherCorpus(s->corpus, split->train);
  const core::SequentialModelOptions& seq = s->ctx.sequential;
  s->vocab = core::BuildSequenceVocabulary(train_all, seq.vocab_min_frequency,
                                           seq.vocab_max_size);
  s->lstm_encoder.emplace(&*s->vocab,
                          features::SequenceEncoderOptions{
                              .max_length = seq.lstm_sequence_length,
                              .add_cls_sep = false});
  s->roberta_encoder.emplace(&*s->vocab,
                             features::SequenceEncoderOptions{
                                 .max_length = seq.max_sequence_length + 2,
                                 .add_cls_sep = true});
  core::CorpusSlice train = train_all;
  train.Truncate(kTrainCap);
  s->lstm_train = s->lstm_encoder->EncodeAll(train);
  s->roberta_train = s->roberta_encoder->EncodeAll(train);
  s->train_labels = train.labels();

  s->lstm = Create("lstm", s->ctx);
  Clock::time_point t0 = Clock::now();
  CheckOk(s->lstm->Fit({.sequences = &s->lstm_train,
                        .labels = &s->train_labels,
                        .vocab = &*s->vocab},
                       fit),
          "lstm Fit");
  s->lstm_fit_s = Seconds(t0, Clock::now());

  s->roberta = Create("roberta", s->ctx);
  const core::ModelDataset roberta_train{.sequences = &s->roberta_train,
                                         .labels = &s->train_labels,
                                         .vocab = &*s->vocab};
  t0 = Clock::now();
  CheckOk(s->roberta->Fit(roberta_train, fit), "roberta Fit");
  s->roberta_fit_s = Seconds(t0, Clock::now());
  CheckOk(s->roberta->AttachQuantized(roberta_train), "AttachQuantized");
  s->roberta_int8.emplace(s->roberta.get());

  CheckOk(s->small_tfidf.Fit(train_all), "TfidfVectorizer::Fit");
  const features::CsrMatrix small_x = s->small_tfidf.TransformAll(train_all);
  s->naive_bayes = Create("naive_bayes", s->ctx);
  CheckOk(s->naive_bayes->Fit({.tfidf = &small_x, .labels = &train_all.labels()},
                              fit),
          "naive_bayes Fit");

  // ---- full-scale TF-IDF path ----
  const data::RecipeDbGenerator full_generator(ShapeOptions(w, seed, kTfidfScale));
  s->full = full_generator.Generate();
  s->full_corpus = core::TokenizeCorpus(s->full, s->tokenizer);
  auto full_split = data::StratifiedSplit(s->full, {}, seed);
  CheckOk(full_split.status(), "StratifiedSplit");
  s->full_test_rows = full_split->test;
  for (size_t row : s->full_test_rows) {
    s->full_test_labels.push_back(s->full[row].cuisine_id);
  }
  core::CorpusSlice full_train = core::GatherCorpus(s->full_corpus, full_split->train);
  CheckOk(s->full_tfidf.Fit(full_train), "TfidfVectorizer::Fit");
  full_train.Truncate(kLogregTrainRows);
  const features::CsrMatrix full_x = s->full_tfidf.TransformAll(full_train);
  s->logreg = Create("logreg", s->ctx);
  CheckOk(s->logreg->Fit({.tfidf = &full_x, .labels = &full_train.labels()}, fit),
          "logreg Fit");
  return s;
}

/// Saves both fitted sequential models under `dir`; returns a fingerprint
/// of their parameter bytes.
uint64_t SaveModels(const System& s, const std::filesystem::path& dir) {
  CheckOk(s.lstm->Save((dir / "lstm.ckpt").string()), "lstm Save");
  CheckOk(s.roberta->Save((dir / "roberta.ckpt").string()), "roberta Save");
  return Fnv1a(ReadFile(dir / "lstm.ckpt")) ^
         (Fnv1a(ReadFile(dir / "roberta.ckpt")) * 31);
}

// ---------------------------------------------------------------------------
// Layer timers for the traced run. Untraced runs never read the clock
// inside a pipeline: `Timed` reduces to the call itself.
// ---------------------------------------------------------------------------

bool g_traced = false;

template <typename F>
auto Timed(double* acc, F&& f) {
  if (!g_traced) return f();
  const Clock::time_point t0 = Clock::now();
  auto result = f();
  *acc += Seconds(t0, Clock::now());
  return result;
}

/// Per-layer figures gathered during one traced round.
struct LayerTimes {
  double text_s = 0.0, encode_s = 0.0, tfidf_s = 0.0, predict_s = 0.0;
};

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 16.0;
  bool trace = false;
  std::filesystem::path scratch = ".bench_build/run";
};

// ---------------------------------------------------------------------------
// bulk_neural
// ---------------------------------------------------------------------------

enum Path { kLstm = 0, kRoberta = 1, kRobertaInt8 = 2, kNumPaths = 3 };
constexpr const char* kPathNames[kNumPaths] = {"lstm", "roberta", "roberta_int8"};

/// Accumulated over every segment of a run. A round classifies one chunk
/// of the held-out sample through every path.
struct BulkNeuralResult {
  int rounds = 0;
  std::vector<double> round_s[kNumPaths];           // untraced rounds
  std::vector<double> traced_round_s[kNumPaths];    // traced rounds
  std::vector<double> predict_s[kNumPaths];         // traced: PredictBatch
  std::vector<double> text_s, encode_s;             // traced, all paths
  double one_worker_s = 0.0;  // the 1-worker check pass over chunk 0
  // Each chunk's first answers and encodings, per path.
  core::Predictions first[kNumPaths][kChunks];
  std::vector<features::EncodedSequence> encoded[kNumPaths][kChunks];
  uint64_t gemm_calls = 0, gemm_flops = 0, fp32_recipes = 0;
  uint64_t int8_ops = 0, int8_recipes = 0;
  uint64_t classified = 0;
  bool rounds_identical = true;
};

/// A path's first answers over the whole held-out sample, in its order.
core::Predictions AllAnswers(const BulkNeuralResult& r, int path) {
  core::Predictions all;
  for (const core::Predictions& p : r.first[path]) {
    all.labels.insert(all.labels.end(), p.labels.begin(), p.labels.end());
    all.probas.insert(all.probas.end(), p.probas.begin(), p.probas.end());
  }
  return all;
}

const features::SequenceEncoder& EncoderFor(const System& s, int path) {
  return path == kLstm ? *s.lstm_encoder : *s.roberta_encoder;
}

/// One path, raw recipes -> labels.
core::Predictions ClassifyNeural(const System& s, int path,
                                 const std::vector<data::Recipe>& recipes,
                                 size_t workers, LayerTimes* lt,
                                 std::vector<features::EncodedSequence>* keep) {
  const core::TokenizedCorpus corpus = Timed(&lt->text_s, [&] {
    return core::TokenizeCorpus(recipes, s.tokenizer);
  });
  std::vector<features::EncodedSequence> x = Timed(&lt->encode_s, [&] {
    return EncoderFor(s, path).EncodeAll(core::CorpusSlice::All(corpus));
  });
  const core::ModelDataset ds{.sequences = &x, .vocab = &*s.vocab};
  core::Predictions p = Timed(&lt->predict_s, [&] {
    switch (path) {
      case kLstm: return s.lstm->PredictBatch(ds, workers);
      case kRoberta: return s.roberta->PredictBatch(ds, workers);
      default: return s.roberta_int8->PredictBatch(ds, workers);
    }
  });
  if (keep != nullptr) *keep = std::move(x);
  return p;
}

/// Rounds over held-out chunks for `budget_s`, at least one; with
/// `cover_all`, until every chunk has been classified. The traced run
/// alternates untraced and traced rounds over the same chunk, so the
/// tracing overhead is measured on the same process and inputs.
void RunBulkNeural(const System& s, double budget_s, bool traced, bool cover_all,
                   BulkNeuralResult* r) {
  const int per_chunk = traced ? 2 : 1;
  const int cover = cover_all ? per_chunk * static_cast<int>(kChunks) : 0;
  const Clock::time_point start = Clock::now();
  for (int n = 0; n < per_chunk || r->rounds < cover ||
                  Seconds(start, Clock::now()) < budget_s;
       ++n) {
    const int round = r->rounds++;
    const size_t chunk = static_cast<size_t>(round / per_chunk) % kChunks;
    g_traced = traced && round % 2 == 1;
    util::SetTelemetryEnabled(g_traced);
    LayerTimes round_lt;
    for (int path = 0; path < kNumPaths; ++path) {
      LayerTimes lt;
      const uint64_t calls0 = CounterValue("gemm.calls");
      const uint64_t flops0 = CounterValue("gemm.flops");
      const uint64_t int8_0 = CounterValue("gemm.int8_ops");
      const Clock::time_point t0 = Clock::now();
      std::vector<features::EncodedSequence> x;
      core::Predictions p =
          ClassifyNeural(s, path, s.chunks[chunk], kEngineWorkers, &lt, &x);
      const double elapsed = Seconds(t0, Clock::now());
      r->classified += p.labels.size();
      if (r->first[path][chunk].labels.empty()) {
        r->first[path][chunk] = std::move(p);
        r->encoded[path][chunk] = std::move(x);
      } else if (!SamePredictions(p, r->first[path][chunk])) {
        r->rounds_identical = false;
      }
      if (!g_traced) {
        r->round_s[path].push_back(elapsed);
        continue;
      }
      r->traced_round_s[path].push_back(elapsed);
      r->predict_s[path].push_back(lt.predict_s);
      round_lt.text_s += lt.text_s;
      round_lt.encode_s += lt.encode_s;
      if (path == kRobertaInt8) {
        r->int8_ops += CounterValue("gemm.int8_ops") - int8_0;
        r->int8_recipes += s.chunks[chunk].size();
      } else {
        r->gemm_calls += CounterValue("gemm.calls") - calls0;
        r->gemm_flops += CounterValue("gemm.flops") - flops0;
        r->fp32_recipes += s.chunks[chunk].size();
      }
    }
    if (g_traced) {
      r->text_s.push_back(round_lt.text_s);
      r->encode_s.push_back(round_lt.encode_s);
    }
  }
  g_traced = false;
  util::SetTelemetryEnabled(traced);
}

// ---------------------------------------------------------------------------
// bulk_tfidf
// ---------------------------------------------------------------------------

struct BulkTfidfResult {
  int rounds = 0;
  std::vector<double> round_s, traced_round_s;
  std::vector<double> text_s, tfidf_s, predict_s;
  uint64_t tokens = 0, intern_hits = 0;  // of the last traced round
  core::Predictions first;
  uint64_t classified = 0;
  bool ids_match = true;
  bool rounds_identical = true;
};

void RunBulkTfidf(const System& s, double budget_s, bool traced,
                  BulkTfidfResult* r) {
  const Clock::time_point start = Clock::now();
  for (int n = 0; n < (traced ? 2 : 1) || Seconds(start, Clock::now()) < budget_s;
       ++n) {
    const int round = r->rounds++;
    g_traced = traced && round % 2 == 1;
    util::SetTelemetryEnabled(g_traced);
    LayerTimes lt;
    const uint64_t tokens0 = CounterValue("preprocess.tokens");
    const uint64_t hits0 = CounterValue("preprocess.intern_hits");
    const Clock::time_point t0 = Clock::now();
    // Re-tokenizing the same recipes reproduces the fit-time ids exactly
    // (first-appearance interning), so the fitted vectorizer applies.
    const core::TokenizedCorpus corpus = Timed(&lt.text_s, [&] {
      return core::TokenizeCorpus(s.full, s.tokenizer);
    });
    const features::CsrMatrix x = Timed(&lt.tfidf_s, [&] {
      return s.full_tfidf.TransformAll(core::CorpusSlice::All(corpus));
    });
    core::Predictions p = Timed(&lt.predict_s, [&] {
      return s.logreg->PredictBatch({.tfidf = &x}, kEngineWorkers);
    });
    const double elapsed = Seconds(t0, Clock::now());
    r->classified += p.labels.size();
    if (corpus.token_ids != s.full_corpus.token_ids ||
        corpus.table.size() != s.full_corpus.table.size()) {
      r->ids_match = false;
    }
    if (round == 0) {
      r->first = std::move(p);
    } else if (p.labels != r->first.labels) {
      r->rounds_identical = false;
    }
    if (!g_traced) {
      r->round_s.push_back(elapsed);
      continue;
    }
    r->traced_round_s.push_back(elapsed);
    r->text_s.push_back(lt.text_s);
    r->tfidf_s.push_back(lt.tfidf_s);
    r->predict_s.push_back(lt.predict_s);
    r->tokens = CounterValue("preprocess.tokens") - tokens0;
    r->intern_hits = CounterValue("preprocess.intern_hits") - hits0;
  }
  g_traced = false;
  util::SetTelemetryEnabled(traced);
}

// ---------------------------------------------------------------------------
// serve_ladder
// ---------------------------------------------------------------------------

struct ServeRequest {
  double due_s = 0.0;
  std::vector<size_t> picks;  // indices into System::pool
  bool has_deadline = false;
};

struct ServeRecord {
  util::StatusCode code = util::StatusCode::kInternal;
  size_t tier = 0;
  double latency_ms = 0.0;  // due -> answer
  double call_ms = 0.0;     // inside InferenceService::Predict
  double wait_ms = 0.0;     // due -> Predict called
  double lag_ms = 0.0;      // due -> picked up by a client thread
  double encode_s = 0.0;
  core::Predictions predictions;
  std::vector<features::EncodedSequence> sequences;
};

/// `count` requests with Poisson arrivals at kServeRatePerS; sizes 1..16
/// with P(k) ~ 1/k^2 (mean 2.1 recipes; about 3% carry 10 or more).
/// The traffic shape (arrival times, sizes, deadlines) comes from
/// `shape_seed`, a workload constant: with ~1,000 requests a run sees only
/// a few bursts, and a shape drawn per run would move p99 by more than any
/// change worth detecting. The recipes each request carries come from
/// `pick_seed`, which follows --seed.
std::vector<ServeRequest> MakeSchedule(uint64_t shape_seed, uint64_t pick_seed,
                                       size_t count, size_t pool) {
  util::Rng rng(shape_seed);
  util::Rng picker(pick_seed);
  std::vector<double> size_weights;
  for (int k = 1; k <= kMaxRequestRecipes; ++k) {
    size_weights.push_back(1.0 / (k * k));
  }
  std::vector<ServeRequest> schedule;
  double t = 0.0;
  while (schedule.size() < count) {
    t += -std::log(1.0 - rng.NextDouble()) / kServeRatePerS;
    ServeRequest req;
    req.due_s = t;
    const size_t k = rng.SampleDiscrete(size_weights) + 1;
    for (size_t i = 0; i < k; ++i) req.picks.push_back(picker.NextBelow(pool));
    req.has_deadline = rng.NextBool(kDeadlineShare);
    schedule.push_back(std::move(req));
  }
  return schedule;
}

struct ServeResult {
  std::vector<ServeRecord> records;
  uint64_t degraded = 0, shed = 0, deadline = 0, retries = 0, unavailable = 0;
  uint64_t tier0_rows = 0;
};

/// One open-loop window of about `window_s` against a ladder over `s`. The
/// request count is fixed (rate x window), so every run of the same
/// length sends the same number of requests.
void RunServe(const System& s, uint64_t seed, int segment, double window_s,
              ServeResult* r) {
  const auto stream = static_cast<uint64_t>(segment);
  const uint64_t schedule_seed = DeriveSeed(seed, 10 + stream);
  const std::vector<ServeRequest> schedule = MakeSchedule(
      DeriveSeed(kServeShapeSeed, stream), schedule_seed,
      static_cast<size_t>(std::lround(kServeRatePerS * window_s)), s.pool.size());
  core::ServiceOptions options;
  options.max_concurrent = kServeSlots;
  options.queue_capacity = kServeQueue;
  options.num_workers = 1;
  options.fault_injection.failure_probability = kTransientFaultProbability;
  options.fault_injection.seed = DeriveSeed(schedule_seed, 1);
  core::InferenceService service(
      {{"roberta", s.roberta.get()},
       {"roberta_int8", &*s.roberta_int8},
       {"naive_bayes", s.naive_bayes.get()}},
      options);

  const size_t base = r->records.size();
  r->records.resize(base + schedule.size());
  const uint64_t degraded0 = CounterValue("service.degraded");
  const uint64_t shed0 = CounterValue("service.shed");
  const uint64_t deadline0 = CounterValue("service.deadline_exceeded");
  const uint64_t retries0 = CounterValue("service.retries");
  const uint64_t unavailable0 = CounterValue("service.unavailable");

  std::atomic<size_t> next{0};
  const Clock::time_point t0 = Clock::now();
  auto client = [&] {
    for (size_t i = next.fetch_add(1); i < schedule.size(); i = next.fetch_add(1)) {
      const ServeRequest& req = schedule[i];
      ServeRecord& rec = r->records[base + i];
      const Clock::time_point due =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(req.due_s));
      // Sleep to just before the due time, then spin: waking a halted
      // vCPU costs a variable few hundred microseconds that would
      // otherwise land in every request's latency.
      std::this_thread::sleep_until(due - kSpinBeforeDue);
      while (Clock::now() < due) {
      }
      const Clock::time_point picked = Clock::now();
      std::vector<data::Recipe> recipes;
      for (size_t pick : req.picks) recipes.push_back(s.pool[pick]);
      const core::TokenizedCorpus corpus =
          core::TokenizeCorpus(recipes, s.tokenizer);
      const core::CorpusSlice slice = core::CorpusSlice::All(corpus);
      rec.sequences = Timed(&rec.encode_s, [&] {
        return s.roberta_encoder->EncodeAll(slice);
      });
      std::vector<std::vector<std::string>> docs;
      for (size_t d = 0; d < corpus.size(); ++d) docs.push_back(corpus.DecodeDoc(d));
      const features::CsrMatrix tfidf = s.small_tfidf.TransformAll(docs);
      const core::ModelDataset ds{.tfidf = &tfidf, .sequences = &rec.sequences,
                                  .vocab = &*s.vocab};
      const Clock::time_point called = Clock::now();
      core::InferenceResponse resp =
          service.Predict(ds, req.has_deadline ? kDeadlineMs : -1.0);
      const Clock::time_point done = Clock::now();
      rec.code = resp.status.code();
      rec.tier = resp.tier_index;
      rec.predictions = std::move(resp.predictions);
      rec.latency_ms = 1e3 * Seconds(due, done);
      rec.call_ms = 1e3 * Seconds(called, done);
      rec.wait_ms = 1e3 * Seconds(due, called);
      rec.lag_ms = 1e3 * Seconds(due, picked);
    }
  };
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClientThreads; ++c) clients.emplace_back(client);
  for (std::thread& t : clients) t.join();

  r->degraded += CounterValue("service.degraded") - degraded0;
  r->shed += CounterValue("service.shed") - shed0;
  r->deadline += CounterValue("service.deadline_exceeded") - deadline0;
  r->retries += CounterValue("service.retries") - retries0;
  r->unavailable += CounterValue("service.unavailable") - unavailable0;
}

/// Everything measured in a run, accumulated segment by segment.
struct Measurements {
  BulkNeuralResult bn;
  BulkTfidfResult bt;
  ServeResult sv;
};

/// One segment: an untimed warm-up pass per neural path, then a third of
/// --seconds split across bulk_neural, bulk_tfidf and serve_ladder.
void MeasureSegment(const System& s, const Args& a, int segment, bool traced,
                    Measurements* m) {
  for (int path = 0; path < kNumPaths; ++path) {
    LayerTimes unused;
    ClassifyNeural(s, path, s.warmup, kEngineWorkers, &unused, nullptr);
  }
  const double window_s = a.seconds / kSetupRepeats;
  RunBulkNeural(s, window_s * kBulkNeuralShare, traced,
                /*cover_all=*/segment + 1 == kSetupRepeats, &m->bn);
  RunBulkTfidf(s, window_s * kBulkTfidfShare, traced, &m->bt);
  g_traced = traced;
  RunServe(s, a.seed, segment, window_s * kServeShare, &m->sv);
  g_traced = false;
}

bool Tier0MatchesDirect(const System& s, ServeResult* r) {
  std::vector<features::EncodedSequence> batch;
  core::Predictions served;
  for (const ServeRecord& rec : r->records) {
    if (rec.code != util::StatusCode::kOk || rec.tier != 0) continue;
    batch.insert(batch.end(), rec.sequences.begin(), rec.sequences.end());
    served.labels.insert(served.labels.end(), rec.predictions.labels.begin(),
                         rec.predictions.labels.end());
    served.probas.insert(served.probas.end(), rec.predictions.probas.begin(),
                         rec.predictions.probas.end());
  }
  r->tier0_rows = batch.size();
  const core::Predictions direct =
      s.roberta->PredictBatch({.sequences = &batch}, kCheckWorkers);
  return SamePredictions(direct, served);
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(const Ledger& ledger, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("# metric %-36s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += ledger.failed_checks == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(ledger.attempted);
  json += ", \"failed\": " +
          std::to_string(ledger.failed_ops + ledger.failed_checks);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}


[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload paper|long --seed N "
               "--seconds S --trace 0|1 [--scratch DIR]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) a.workload = &w;
      }
      if (a.workload == nullptr) Usage(("unknown workload " + value).c_str());
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), nullptr);
      if (!(a.seconds > 0.0)) Usage("--seconds must be positive");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      a.trace = value == "1";
    } else if (flag == "--scratch") {
      a.scratch = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload == nullptr) Usage("--workload is required");
  return a;
}

// ---------------------------------------------------------------------------
// The two run modes
// ---------------------------------------------------------------------------

/// Checks shared by both modes on the bulk and serve phases.
void CheckPhases(const System& s, BulkNeuralResult* bn, const BulkTfidfResult& bt,
                 ServeResult* sv, Ledger* ledger, double* accuracy) {
  // bulk_neural: identical predictions at 1 and 2 engine workers.
  bn->one_worker_s = 0.0;
  for (int path = 0; path < kNumPaths; ++path) {
    LayerTimes unused;
    const Clock::time_point t0 = Clock::now();
    const core::Predictions one =
        ClassifyNeural(s, path, s.chunks[0], 1, &unused, nullptr);
    bn->one_worker_s += Seconds(t0, Clock::now());
    ledger->Expect(std::string("bulk_neural.") + kPathNames[path] +
                       ".workers_1_eq_2",
                   SamePredictions(one, bn->first[path][0]),
                   "first chunk: labels and probas bit-identical");
    accuracy[path] = AccuracyPct(AllAnswers(*bn, path).labels, s.heldout_labels);
  }
  ledger->Expect("bulk_neural.rounds_identical", bn->rounds_identical,
                 "every round repeats its chunk's first answers, bitwise");
  const double floor_neural = ChanceFloorPct(s.heldout_labels);
  for (int path = 0; path < kNumPaths; ++path) {
    ledger->Expect(std::string("bulk_neural.") + kPathNames[path] + ".above_chance",
                   accuracy[path] > floor_neural,
                   Fmt("%.2f%% > majority-class %.2f%%", accuracy[path], floor_neural));
  }
  ledger->Expect("bulk_neural.int8_within_0.5pt",
                 std::fabs(accuracy[kRobertaInt8] - accuracy[kRoberta]) <=
                     kInt8TolerancePts,
                 Fmt("int8 %.2f%% vs fp32 %.2f%%", accuracy[kRobertaInt8],
                     accuracy[kRoberta]));

  // bulk_tfidf
  std::vector<int32_t> test_pred;
  for (size_t row : s.full_test_rows) test_pred.push_back(bt.first.labels[row]);
  accuracy[kNumPaths] = AccuracyPct(test_pred, s.full_test_labels);
  const double floor_full = ChanceFloorPct(s.full_test_labels);
  ledger->Expect("bulk_tfidf.logreg.above_chance", accuracy[kNumPaths] > floor_full,
                 Fmt("%.2f%% > majority-class %.2f%%", accuracy[kNumPaths], floor_full));
  ledger->Expect("bulk_tfidf.ids_reproduced", bt.ids_match,
                 "re-tokenized corpus has the fit-time ids");
  ledger->Expect("bulk_tfidf.rounds_identical", bt.rounds_identical,
                 "every round returns the first round's labels");

  // serve_ladder
  const bool tier0_ok = Tier0MatchesDirect(s, sv);
  ledger->Expect("serve_ladder.tier0_eq_direct_predict", tier0_ok,
                 Fmt("%.0f tier-0 rows vs roberta PredictBatch",
                     static_cast<double>(sv->tier0_rows)));
}

void ReportOps(const BulkNeuralResult& bn, const BulkTfidfResult& bt,
               const ServeResult& sv, uint64_t fits, Ledger* ledger) {
  uint64_t ok = 0, shed = 0, deadline = 0, unavailable = 0, other = 0;
  for (const ServeRecord& rec : sv.records) {
    switch (rec.code) {
      case util::StatusCode::kOk: ++ok; break;
      case util::StatusCode::kResourceExhausted: ++shed; break;
      case util::StatusCode::kDeadlineExceeded: ++deadline; break;
      case util::StatusCode::kUnavailable: ++unavailable; break;
      default: ++other; break;
    }
  }
  const uint64_t sent = sv.records.size();
  std::printf("# ops train_finetune attempted=%llu ok=%llu failed=0 (Fit calls)\n",
              static_cast<unsigned long long>(fits),
              static_cast<unsigned long long>(fits));
  std::printf("# ops bulk_neural attempted=%llu ok=%llu failed=0 (recipes classified)\n",
              static_cast<unsigned long long>(bn.classified),
              static_cast<unsigned long long>(bn.classified));
  std::printf("# ops bulk_tfidf attempted=%llu ok=%llu failed=0 (recipes classified)\n",
              static_cast<unsigned long long>(bt.classified),
              static_cast<unsigned long long>(bt.classified));
  std::printf("# ops serve_ladder sent=%llu ok=%llu shed=%llu deadline_exceeded=%llu "
              "unavailable=%llu other=%llu\n",
              static_cast<unsigned long long>(sent), static_cast<unsigned long long>(ok),
              static_cast<unsigned long long>(shed),
              static_cast<unsigned long long>(deadline),
              static_cast<unsigned long long>(unavailable),
              static_cast<unsigned long long>(other));
  ledger->attempted += fits + bn.classified + bt.classified + sent;
  ledger->failed_ops += sent - ok;
}

struct ServeSummary {
  double p50 = 0.0, p99 = 0.0, goodput = 0.0;
};

ServeSummary SummarizeServe(const ServeResult& sv) {
  std::vector<double> latencies;
  size_t good = 0;
  for (const ServeRecord& rec : sv.records) {
    if (rec.code != util::StatusCode::kOk) continue;
    latencies.push_back(rec.latency_ms);
    good += rec.latency_ms <= kLatencyLimitMs;
  }
  ServeSummary out;
  out.p50 = Percentile(latencies, 0.50);
  out.p99 = Percentile(latencies, 0.99);
  out.goodput = sv.records.empty()
                    ? 0.0
                    : static_cast<double>(good) / static_cast<double>(sv.records.size());
  std::printf("# serve_ladder %zu requests sent, %zu answered OK (latency sample), "
              "limit %.0f ms\n",
              sv.records.size(), latencies.size(), kLatencyLimitMs);
  return out;
}

/// Items per second over the median round; prints the rounds' rates so
/// the sample count and spread behind every median are on record.
double Rate(const char* name, size_t items, const std::vector<double>& round_s) {
  std::printf("# samples %s n=%zu:", name, round_s.size());
  for (double t : round_s) std::printf(" %.6g", static_cast<double>(items) / t);
  std::printf("\n");
  return static_cast<double>(items) / Median(round_s);
}

std::vector<Metric> RunUntraced(const Args& a, Ledger* ledger) {
  std::vector<double> setup_s, lstm_train_rate, roberta_train_rate;
  std::unique_ptr<System> s;
  uint64_t fingerprint = 0;
  bool refits_identical = true;
  Measurements m;
  // Set-up and measurement alternate, so both are sampled over the whole
  // run rather than in one stretch of it.
  for (int i = 0; i < kSetupRepeats; ++i) {
    s.reset();
    const Clock::time_point t0 = Clock::now();
    s = SetUp(*a.workload, a.seed);
    setup_s.push_back(Seconds(t0, Clock::now()));
    lstm_train_rate.push_back(static_cast<double>(s->lstm_train.size() * kLstmEpochs) /
                              s->lstm_fit_s);
    const size_t pretrain = std::min(kTrainCap, s->roberta_train.size());
    roberta_train_rate.push_back(
        static_cast<double>(pretrain * kPretrainEpochs +
                            s->roberta_train.size() * kFinetuneEpochs) /
        s->roberta_fit_s);
    const uint64_t fp = SaveModels(*s, a.scratch);
    if (i > 0 && fp != fingerprint) refits_identical = false;
    fingerprint = fp;
    MeasureSegment(*s, a, i, /*traced=*/false, &m);
  }
  ledger->Expect("train_finetune.refits_identical", refits_identical,
                 "every set-up fits bit-identical lstm and roberta parameters");
  BulkNeuralResult& bn = m.bn;
  const BulkTfidfResult& bt = m.bt;
  ServeResult& sv = m.sv;
  double accuracy[kNumPaths + 1];
  CheckPhases(*s, &bn, bt, &sv, ledger, accuracy);
  ReportOps(bn, bt, sv, 2 * kSetupRepeats, ledger);
  const ServeSummary serve = SummarizeServe(sv);
  const size_t n = s->chunks[0].size();
  return {
      {"setup_s", Median(setup_s), "s"},
      {"lstm_recipes_per_s", Rate("lstm_recipes_per_s", n, bn.round_s[kLstm]), "1/s"},
      {"roberta_recipes_per_s", Rate("roberta_recipes_per_s", n, bn.round_s[kRoberta]), "1/s"},
      {"roberta_int8_recipes_per_s", Rate("roberta_int8_recipes_per_s", n, bn.round_s[kRobertaInt8]), "1/s"},
      {"logreg_recipes_per_s", Rate("logreg_recipes_per_s", s->full.size(), bt.round_s), "1/s"},
      {"goodput_ratio", serve.goodput, "ratio"},
      {"lstm_train_recipes_per_s", Median(lstm_train_rate), "1/s"},
      {"roberta_train_recipes_per_s", Median(roberta_train_rate), "1/s"},
      {"lstm_accuracy_pct", accuracy[kLstm], "%"},
      {"roberta_accuracy_pct", accuracy[kRoberta], "%"},
      {"roberta_int8_accuracy_pct", accuracy[kRobertaInt8], "%"},
      {"logreg_accuracy_pct", accuracy[kNumPaths], "%"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

/// Rebuilds a fitted sequential model's network from its checkpoint so
/// its public submodules can be replayed.
template <typename Net, typename Config>
std::unique_ptr<Net> Reload(const Config& config, const std::filesystem::path& file) {
  auto net = std::make_unique<Net>(config, kNumClasses);
  std::vector<nn::Tensor> params = net->Parameters();
  CheckOk(nn::LoadCheckpoint(file.string(), &params), "LoadCheckpoint");
  return net;
}

std::vector<Metric> RunTraced(const Args& a, Ledger* ledger) {
  util::SetTelemetryEnabled(true);
  util::MetricsRegistry::Instance().ResetAllValues();
  const std::unique_ptr<System> s = SetUp(*a.workload, a.seed);
  SaveModels(*s, a.scratch);

  Measurements m;
  for (int i = 0; i < kSetupRepeats; ++i) MeasureSegment(*s, a, i, true, &m);
  BulkNeuralResult& bn = m.bn;
  const BulkTfidfResult& bt = m.bt;
  ServeResult& sv = m.sv;
  const double task_wait_p99 = util::MetricsRegistry::Instance()
                                   .GetHistogram("threadpool.task_wait_ms")
                                   ->Percentile(0.99);
  double accuracy[kNumPaths + 1];
  CheckPhases(*s, &bn, bt, &sv, ledger, accuracy);
  ReportOps(bn, bt, sv, 2, ledger);
  const ServeSummary serve = SummarizeServe(sv);

  // Worker scaling: the 1-worker check pass over the first chunk against
  // the median untraced 2-worker round (same chunk size).
  double two_worker_s = 0.0;
  for (int path = 0; path < kNumPaths; ++path) two_worker_s += Median(bn.round_s[path]);

  // Padding and the bucket plans of the batches the engine was given.
  double real = 0.0, positions = 0.0, rows = 0.0, buckets = 0.0;
  for (int path = 0; path < kNumPaths; ++path) {
    if (path == kRobertaInt8) continue;  // same encoding as roberta
    for (const auto& chunk : bn.encoded[path]) {
      for (const features::EncodedSequence& seq : chunk) {
        real += seq.length;
        positions += static_cast<double>(seq.ids.size());
      }
      const core::BucketPlan plan = core::BuildLengthBuckets(
          chunk, core::PredictScheduleOptions{}.max_bucket_size);
      rows += static_cast<double>(plan.order.size());
      buckets += static_cast<double>(plan.num_buckets());
    }
  }

  // nn replay on a fixed prefix of the first chunk, one thread.
  const std::vector<features::EncodedSequence>& lstm_chunk = bn.encoded[kLstm][0];
  const std::vector<features::EncodedSequence>& roberta_chunk = bn.encoded[kRoberta][0];
  const size_t replay_rows = std::min(kReplayRows, lstm_chunk.size());
  const std::vector<features::EncodedSequence> lstm_x(
      lstm_chunk.begin(), lstm_chunk.begin() + replay_rows);
  const std::vector<features::EncodedSequence> roberta_x(
      roberta_chunk.begin(), roberta_chunk.begin() + replay_rows);
  nn::LstmConfig lstm_config = s->ctx.sequential.lstm;
  lstm_config.vocab_size = static_cast<int64_t>(s->vocab->size());
  nn::TransformerConfig roberta_config = s->ctx.sequential.transformer;
  roberta_config.vocab_size = static_cast<int64_t>(s->vocab->size());
  roberta_config.max_length = s->ctx.sequential.max_sequence_length + 2;
  const auto lstm_net =
      Reload<nn::LstmClassifier>(lstm_config, a.scratch / "lstm.ckpt");
  const auto roberta_net = Reload<nn::TransformerClassifier>(
      roberta_config, a.scratch / "roberta.ckpt");
  util::SetTelemetryEnabled(false);
  std::vector<e2ebench::LstmReplay> lstm_runs;
  std::vector<e2ebench::RobertaReplay> roberta_runs;
  std::vector<double> lstm_forward_s, roberta_forward_s;
  for (int i = 0; i < kReplayRepeats; ++i) {
    lstm_forward_s.push_back(e2ebench::TimeForward(*lstm_net, lstm_x));
    lstm_runs.push_back(e2ebench::ReplayLstm(*lstm_net, lstm_x));
    roberta_forward_s.push_back(e2ebench::TimeForward(*roberta_net, roberta_x));
    roberta_runs.push_back(e2ebench::ReplayRoberta(*roberta_net, roberta_x));
  }
  auto med = [](const auto& runs, auto field) {
    std::vector<double> v;
    for (const auto& r : runs) v.push_back(field(r));
    return Median(v);
  };
  const e2ebench::LstmReplay& lr = lstm_runs.front();
  const e2ebench::RobertaReplay& rr = roberta_runs.front();
  const auto same_bits = [](const std::vector<float>& a, const std::vector<float>& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
  };
  bool replay_eq_engine = true;
  for (size_t i = 0; i < replay_rows; ++i) {
    replay_eq_engine =
        replay_eq_engine &&
        same_bits(e2ebench::EngineSoftmax(lr.logits[i]), bn.first[kLstm][0].probas[i]) &&
        same_bits(e2ebench::EngineSoftmax(rr.logits[i]), bn.first[kRoberta][0].probas[i]);
  }
  ledger->Expect("nn.lstm.replay_bit_identical", lr.bit_identical,
                 "layer-by-layer logits == ForwardLogits, bitwise");
  ledger->Expect("nn.roberta.replay_bit_identical", rr.bit_identical,
                 "layer-by-layer logits == ForwardLogits, bitwise");
  ledger->Expect("nn.replay_eq_predict_batch", replay_eq_engine,
                 "softmax(replay logits) == PredictBatch probas");
  const double lstm_total = med(lstm_runs, [](const auto& r) { return r.total_s(); });
  const double roberta_total = med(roberta_runs, [](const auto& r) { return r.total_s(); });
  const double coverage =
      (lstm_total + roberta_total) / (Median(lstm_forward_s) + Median(roberta_forward_s));
  ledger->Expect("nn.replay_coverage_in_range",
                 coverage >= kMinReplayCoverage && coverage <= kMaxReplayCoverage,
                 Fmt("%.3f in [0.5, 2]", coverage));
  ledger->attempted += 2 * replay_rows * kReplayRepeats;

  const double gemm_peak = e2ebench::GemmPeakGflops();
  e2ebench::TrainReplay train;
  e2ebench::ReplayTraining(lstm_config, roberta_config, kNumClasses, s->lstm_train,
                           s->roberta_train, s->train_labels, kTrainReplaySteps,
                           kTrainReplayBatch, &train);
  std::printf("# nn FLOPs are computed from tensor shapes (2*m*k*n per matrix "
              "product), not counted by the program\n");

  // The traced run's own end-to-end figures, for comparison with an
  // untraced run of the same seed.
  const size_t n = s->chunks[0].size();
  std::printf("# traced e2e lstm_recipes_per_s=%.6g roberta_recipes_per_s=%.6g "
              "roberta_int8_recipes_per_s=%.6g logreg_recipes_per_s=%.6g "
              "latency_p50_ms=%.6g latency_p99_ms=%.6g goodput_ratio=%.6g\n",
              Rate("traced.lstm_recipes_per_s", n, bn.traced_round_s[kLstm]), Rate("traced.roberta_recipes_per_s", n, bn.traced_round_s[kRoberta]),
              Rate("traced.roberta_int8_recipes_per_s", n, bn.traced_round_s[kRobertaInt8]),
              Rate("traced.logreg_recipes_per_s", s->full.size(), bt.traced_round_s), serve.p50, serve.p99,
              serve.goodput);

  double neural_untraced = 0.0, neural_traced = 0.0;
  for (int path = 0; path < kNumPaths; ++path) {
    neural_untraced += Median(bn.round_s[path]);
    neural_traced += Median(bn.traced_round_s[path]);
  }
  std::vector<double> call_ms, wait_ms, lag_ms;
  double encode_s = 0.0;
  for (const ServeRecord& rec : sv.records) {
    call_ms.push_back(rec.call_ms);
    wait_ms.push_back(rec.wait_ms);
    lag_ms.push_back(rec.lag_ms);
    encode_s += rec.encode_s;
  }
  const double sent = std::max<double>(1.0, static_cast<double>(sv.records.size()));
  const double lstm_layers_s = med(lstm_runs, [](const auto& r) {
    return r.layer_s[0] + r.layer_s[1] + r.head_s;
  });
  return {
      // Serving latency percentiles are reported here, unbounded: on a
      // shared 4-vCPU host their run-to-run spread (0.2-1.3 of the median
      // over ten seeds) exceeds any usable bound; goodput_ratio carries
      // the bounded serving figure.
      {"latency_p50_ms", serve.p50, "ms"},
      {"latency_p99_ms", serve.p99, "ms"},
      {"text.busy_s", Median(bt.text_s), "s"},
      {"text.tokens_per_s", static_cast<double>(bt.tokens) / Median(bt.text_s), "1/s"},
      {"text.intern_hit_ratio",
       static_cast<double>(bt.intern_hits) / static_cast<double>(std::max<uint64_t>(1, bt.tokens)),
       "ratio"},
      {"features.tfidf_busy_s", Median(bt.tfidf_s), "s"},
      {"features.encode_busy_s", encode_s, "s"},
      {"features.pad_ratio", 1.0 - real / positions, "ratio"},
      {"ml.predict_busy_s", Median(bt.predict_s), "s"},
      {"core.predict_busy_s.lstm", Median(bn.predict_s[kLstm]), "s"},
      {"core.predict_busy_s.roberta", Median(bn.predict_s[kRoberta]), "s"},
      {"core.predict_busy_s.roberta_int8", Median(bn.predict_s[kRobertaInt8]), "s"},
      {"core.bucket_rows_mean", rows / std::max(1.0, buckets), "rows"},
      {"core.worker_scaling", bn.one_worker_s / two_worker_s, "x"},
      {"nn.lstm.embedding_s", med(lstm_runs, [](const auto& r) { return r.embedding_s; }), "s"},
      {"nn.lstm.layer0_s", med(lstm_runs, [](const auto& r) { return r.layer_s[0]; }), "s"},
      {"nn.lstm.layer1_s", med(lstm_runs, [](const auto& r) { return r.layer_s[1]; }), "s"},
      {"nn.lstm.head_s", med(lstm_runs, [](const auto& r) { return r.head_s; }), "s"},
      {"nn.roberta.embedding_s", med(roberta_runs, [](const auto& r) { return r.embedding_s; }), "s"},
      {"nn.roberta.attention_s", med(roberta_runs, [](const auto& r) { return r.attention_s; }), "s"},
      {"nn.roberta.ffn_s", med(roberta_runs, [](const auto& r) { return r.ffn_s; }), "s"},
      {"nn.roberta.layernorm_s", med(roberta_runs, [](const auto& r) { return r.layernorm_s; }), "s"},
      {"nn.roberta.pooler_head_s", med(roberta_runs, [](const auto& r) { return r.pooler_head_s; }), "s"},
      {"nn.lstm.gflops", lr.matmul_flops / lstm_layers_s / 1e9, "GFLOP/s"},
      {"nn.roberta.attention_gflops",
       rr.attention_flops / med(roberta_runs, [](const auto& r) { return r.attention_s; }) / 1e9,
       "GFLOP/s"},
      {"nn.roberta.ffn_gflops",
       rr.ffn_flops / med(roberta_runs, [](const auto& r) { return r.ffn_s; }) / 1e9, "GFLOP/s"},
      {"nn.replay_coverage", coverage, "ratio"},
      {"linalg.gemm_peak_gflops", gemm_peak, "GFLOP/s"},
      {"linalg.gemm_calls_per_recipe",
       static_cast<double>(bn.gemm_calls) / static_cast<double>(bn.fp32_recipes), "count"},
      {"linalg.gemm_flops_per_recipe",
       static_cast<double>(bn.gemm_flops) / static_cast<double>(bn.fp32_recipes), "FLOP"},
      {"linalg.int8_ops_per_recipe",
       static_cast<double>(bn.int8_ops) / static_cast<double>(bn.int8_recipes), "count"},
      {"service.call_ms_p50", Percentile(call_ms, 0.50), "ms"},
      {"service.call_ms_p99", Percentile(call_ms, 0.99), "ms"},
      {"service.client_wait_ms_p99", Percentile(wait_ms, 0.99), "ms"},
      {"service.degraded_ratio", static_cast<double>(sv.degraded) / sent, "ratio"},
      {"service.shed_ratio", static_cast<double>(sv.shed) / sent, "ratio"},
      {"service.deadline_ratio", static_cast<double>(sv.deadline) / sent, "ratio"},
      {"service.retries_per_request", static_cast<double>(sv.retries) / sent, "count"},
      {"loadgen.lag_ms_p99", Percentile(lag_ms, 0.99), "ms"},
      {"train.forward_s", train.forward_s, "s"},
      {"train.backward_s", train.backward_s, "s"},
      {"train.optimizer_s", train.optimizer_s, "s"},
      {"train.steps", static_cast<double>(train.steps), "count"},
      {"util.threadpool_task_wait_ms_p99", task_wait_p99, "ms"},
      {"trace.bulk_neural_overhead_ratio", neural_traced / neural_untraced, "x"},
      {"trace.bulk_tfidf_overhead_ratio",
       Median(bt.traced_round_s) / Median(bt.round_s), "x"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  std::filesystem::create_directories(args.scratch);
  std::printf("# stamp {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
              "\"trace\": %d, \"build_type\": \"%s\", \"cxx_flags\": \"%s\", "
              "\"march_native\": false, \"compiler\": \"%s\", \"nproc\": %zu}\n",
              args.workload->name, static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, E2EBENCH_BUILD_TYPE,
              E2EBENCH_CXX_FLAGS, E2EBENCH_COMPILER, util::HardwareThreads());
  Ledger ledger;
  const std::vector<Metric> metrics =
      args.trace ? RunTraced(args, &ledger) : RunUntraced(args, &ledger);
  std::filesystem::remove_all(args.scratch);
  PrintResult(ledger, metrics);
  return 0;
}
