#ifndef SATO_PERFBENCH_HARNESS_H_
#define SATO_PERFBENCH_HARNESS_H_

// Shared pieces of the serving benchmark: seeded input generation, the
// bundle the runs load, summary statistics, the warm-up steadiness gate,
// the run stamp and the JSON result line.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/feature_context.h"
#include "core/model_io.h"
#include "core/sato_model.h"
#include "features/pipeline.h"
#include "table/table.h"
#include "util/rng.h"

namespace sato::perfbench {

// ---- seeds and inputs --------------------------------------------------

/// Independent stream `tag` of the run seed (splitmix64), so each input
/// (catalog, trace, schedule, corrections) has its own stream.
uint64_t SubSeed(uint64_t seed, uint64_t tag);

/// Tall lake tables: the generator's shapes with 64..256 rows per table.
std::vector<Table> MakeLakeCatalog(uint64_t seed, size_t n);

/// Small web-shaped tables with the generator's default 4..24 rows.
std::vector<Table> MakeWebCatalog(uint64_t seed, size_t n);

/// Zipf(s) over n items by inverse-CDF lookup; rank r maps to a seeded
/// permutation of the item ids so popularity is not tied to generation
/// order.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s, uint64_t seed);
  size_t Next(util::Rng* rng) const;

 private:
  std::vector<double> cdf_;
  std::vector<size_t> item_of_rank_;
};

/// Trains the bundle every run loads (input preparation, not set-up):
/// the repo's default architecture with 32 topics, as `sato_cli train`
/// produces, trained briefly on a seeded corpus. Writes it to `path`.
void PrepareBundle(uint64_t seed, const std::string& path);

/// LoadSatoBundle from `path`; throws std::runtime_error on failure.
LoadedSato LoadBundle(const std::string& path);

/// Components of a loaded bundle in the shared form the registry takes.
struct BundleParts {
  std::shared_ptr<const SatoModel> model;
  std::shared_ptr<const FeatureContext> context;
  features::FeatureScaler scaler;
  std::string tag;
};
BundleParts ToParts(LoadedSato loaded);

/// Multiply-adds of one column's forward pass counted from the weight
/// shapes of the column-wise network (2 flops per multiply-add; biases,
/// activations and BatchNorm are not counted).
double ForwardFlopsPerColumn(SatoModel* model);

// ---- statistics ---------------------------------------------------------

/// Nearest-rank percentile (q in [0, 100]) of `v`; 0 for an empty vector.
double Percentile(std::vector<double> v, double q);
double Median(std::vector<double> v);
double Mean(const std::vector<double>& v);

/// Best-quartile summary of per-window values: the 75th percentile when
/// higher is better, the 25th when lower is better. Interference from
/// other tenants of a shared host only slows a window down, so the best
/// quartile tracks the program's own speed while still needing a quarter
/// of the windows to reach it.
double BestQuartile(const std::vector<double>& values, bool higher_is_better);

/// `stat(lo, hi)` for consecutive windows of `window_ns` tiling [from, to)
/// (one window when the range is shorter); windows for which stat returns a
/// negative value (no samples) are skipped.
std::vector<double> WindowValues(
    uint64_t from_ns, uint64_t to_ns, uint64_t window_ns,
    const std::function<double(uint64_t, uint64_t)>& stat);

/// Warm-up gate: fed one throughput (or latency) value per window, it is
/// steady once the last `windows` values all lie within +-`tolerance`
/// (a fraction) of their median.
class SteadyGate {
 public:
  SteadyGate(size_t windows, double tolerance)
      : windows_(windows), tolerance_(tolerance) {}
  bool Add(double value);
  const std::vector<double>& values() const { return values_; }

 private:
  size_t windows_;
  double tolerance_;
  std::vector<double> values_;
};

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

// ---- results ------------------------------------------------------------

/// Insertion-ordered JSON object writer for the result and detail lines.
class Json {
 public:
  Json& Num(const std::string& key, double value);
  Json& Int(const std::string& key, uint64_t value);
  Json& Str(const std::string& key, const std::string& value);
  Json& Bool(const std::string& key, bool value);
  Json& Raw(const std::string& key, const std::string& json);
  std::string Dump() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// One reported metric value.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using MetricMap = std::vector<std::pair<std::string, Metric>>;

/// Facts the numbers depend on: nproc, kernel names, build type, seed.
Json Stamp(uint64_t seed);

}  // namespace sato::perfbench

#endif  // SATO_PERFBENCH_HARNESS_H_
