#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <stdexcept>

#include "core/config.h"
#include "core/dataset.h"
#include "core/trainer.h"
#include "corpus/generator.h"
#include "features/config.h"
#include "nn/gemm.h"

namespace sato::perfbench {

uint64_t SubSeed(uint64_t seed, uint64_t tag) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (tag + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

std::vector<Table> Generate(uint64_t seed, size_t n, size_t min_rows,
                            size_t max_rows) {
  corpus::CorpusOptions options;
  options.num_tables = n;
  options.min_rows = min_rows;
  options.max_rows = max_rows;
  options.seed = seed;
  return corpus::CorpusGenerator(options).Generate();
}

}  // namespace

std::vector<Table> MakeLakeCatalog(uint64_t seed, size_t n) {
  return Generate(seed, n, 64, 256);
}

std::vector<Table> MakeWebCatalog(uint64_t seed, size_t n) {
  const corpus::CorpusOptions defaults;
  return Generate(seed, n, defaults.min_rows, defaults.max_rows);
}

ZipfSampler::ZipfSampler(size_t n, double s, uint64_t seed) {
  cdf_.resize(n);
  double acc = 0.0;
  for (size_t r = 0; r < n; ++r) {
    acc += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = acc;
  }
  for (double& c : cdf_) c /= acc;
  item_of_rank_.resize(n);
  std::iota(item_of_rank_.begin(), item_of_rank_.end(), size_t{0});
  util::Rng rng(seed);
  rng.Shuffle(&item_of_rank_);
}

size_t ZipfSampler::Next(util::Rng* rng) const {
  const double u = rng->Uniform();
  size_t rank = static_cast<size_t>(
      std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  if (rank >= cdf_.size()) rank = cdf_.size() - 1;
  return item_of_rank_[rank];
}

void PrepareBundle(uint64_t seed, const std::string& path) {
  const std::vector<Table> corpus = MakeWebCatalog(SubSeed(seed, 101), 600);
  const std::vector<Table> reference =
      MakeWebCatalog(SubSeed(seed, 102), 400);

  SatoConfig config;
  config.num_topics = 32;  // sato_cli train's default
  config.epochs = 2;       // weights change, shapes and FLOPs do not
  config.crf_epochs = 2;
  config.seed = SubSeed(seed, 103);
  util::Rng rng(config.seed);
  FeatureContext context = FeatureContext::Build(reference, config, &rng);
  DatasetBuilder builder(&context);
  Dataset train = builder.Build(corpus, &rng);
  features::FeatureScaler scaler = StandardizeSplits(&train, nullptr);

  ColumnwiseModel::Dims dims;
  dims.char_dim = context.pipeline().char_dim();
  dims.word_dim = context.pipeline().word_dim();
  dims.para_dim = context.pipeline().para_dim();
  dims.stat_dim = context.pipeline().stat_dim();
  SatoModel model(SatoVariant::kFull, dims, context.topic_dim(), config,
                  &rng);
  Trainer(config).Train(&model, train, &rng);

  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot write bundle " + path);
  SaveSatoBundle(model, context, scaler, &out,
                 "perfbench-seed" + std::to_string(seed));
  out.close();
  if (!out) throw std::runtime_error("failed writing bundle " + path);
}

LoadedSato LoadBundle(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open bundle " + path);
  return LoadSatoBundle(&in);
}

BundleParts ToParts(LoadedSato loaded) {
  BundleParts parts;
  parts.model = std::move(loaded.model);
  parts.context = std::move(loaded.context);
  parts.scaler = std::move(loaded.scaler);
  parts.tag = loaded.manifest.tag;
  return parts;
}

double ForwardFlopsPerColumn(SatoModel* model) {
  double flops = 0.0;
  for (nn::Parameter* p : model->columnwise().Parameters()) {
    if (p->name == "weight" && p->value.rows() > 1) {
      flops += 2.0 * static_cast<double>(p->value.rows()) *
               static_cast<double>(p->value.cols());
    }
  }
  return flops;
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(v.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(index, v.size() - 1)];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50.0); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double BestQuartile(const std::vector<double>& values, bool higher_is_better) {
  return Percentile(values, higher_is_better ? 75.0 : 25.0);
}

std::vector<double> WindowValues(
    uint64_t from_ns, uint64_t to_ns, uint64_t window_ns,
    const std::function<double(uint64_t, uint64_t)>& stat) {
  const uint64_t span = to_ns > from_ns ? to_ns - from_ns : 0;
  const uint64_t windows = std::max<uint64_t>(1, span / window_ns);
  const uint64_t width = span / windows;
  std::vector<double> values;
  for (uint64_t w = 0; w < windows; ++w) {
    const double v = stat(from_ns + w * width, from_ns + (w + 1) * width);
    if (v >= 0.0) values.push_back(v);
  }
  return values;
}

bool SteadyGate::Add(double value) {
  values_.push_back(value);
  if (values_.size() < windows_) return false;
  std::vector<double> last(values_.end() - static_cast<long>(windows_),
                           values_.end());
  const double median = Median(last);
  if (median <= 0.0) return false;
  for (double v : last) {
    if (std::fabs(v - median) > tolerance_ * median) return false;
  }
  return true;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

Json& Json::Num(const std::string& key, double value) {
  char buf[64];
  if (!std::isfinite(value)) value = 0.0;
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  fields_.emplace_back(key, buf);
  return *this;
}

Json& Json::Int(const std::string& key, uint64_t value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

Json& Json::Str(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, Quote(value));
  return *this;
}

Json& Json::Bool(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
  return *this;
}

Json& Json::Raw(const std::string& key, const std::string& json) {
  fields_.emplace_back(key, json);
  return *this;
}

std::string Json::Dump() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += Quote(fields_[i].first) + ": " + fields_[i].second;
  }
  return out + "}";
}

Json Stamp(uint64_t seed) {
  Json stamp;
  stamp.Int("nproc", static_cast<uint64_t>(sysconf(_SC_NPROCESSORS_ONLN)))
      .Str("featurize_kernel", features::KernelName())
      .Str("gemm_kernel", nn::gemm::KernelName())
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Int("seed", seed);
  return stamp;
}

}  // namespace sato::perfbench
