// Regenerates Table 1: macro-average and support-weighted F1 of Base,
// Sato, Sato_noStruct and Sato_noTopic on D_mult (multi-column tables) and
// D (all tables), under k-fold cross-validation with 95% CIs and relative
// improvements over Base.
//
// Expected shape (paper): Sato > Sato_noStruct, Sato_noTopic > Base on both
// metrics; macro-F1 gains exceed weighted-F1 gains; gains on D_mult exceed
// gains on D (singleton tables carry no context and dilute the effect).
//
// Writes BENCH_quality.json (scale, folds, per-variant macro and weighted F1
// mean and 95% CI on both datasets, and the two shape checks) and exits 1
// when Sato does not beat Base on D_mult, so an approximation that loses the
// paper's headline result fails the run. Use SATO_BENCH_SCALE=small or
// larger for a meaningful gate: at tiny scale no variant learns the labels.

#include <cstdio>
#include <iterator>
#include <map>

#include "bench/bench_common.h"
#include "eval/model_eval.h"
#include "util/math_util.h"

namespace sato::bench {
namespace {

constexpr SatoVariant kVariants[] = {SatoVariant::kBase, SatoVariant::kFull,
                                     SatoVariant::kNoStruct,
                                     SatoVariant::kNoTopic};

struct VariantScores {
  std::vector<double> macro;
  std::vector<double> weighted;
};

std::map<SatoVariant, VariantScores> RunCv(const BenchEnv& env,
                                           const Dataset& dataset,
                                           const char* label) {
  util::Rng fold_rng(191);
  auto folds = eval::KFold(dataset.tables.size(), env.scale.folds, &fold_rng);
  std::map<SatoVariant, VariantScores> scores;
  for (size_t f = 0; f < folds.size(); ++f) {
    Split split = MakeSplit(dataset, folds[f]);
    for (SatoVariant variant : kVariants) {
      SatoModel model =
          TrainVariant(variant, env, split.train, 1000 + 31 * f);
      eval::EvaluationResult r = eval::EvaluateModel(&model, split.test);
      scores[variant].macro.push_back(r.macro_f1);
      scores[variant].weighted.push_back(r.weighted_f1);
      std::fprintf(stderr, "[table1:%s] fold %zu/%zu %-14s macro=%.3f weighted=%.3f\n",
                   label, f + 1, folds.size(), VariantName(variant).c_str(),
                   r.macro_f1, r.weighted_f1);
    }
  }
  return scores;
}

void PrintBlock(const char* title,
                const std::map<SatoVariant, VariantScores>& scores) {
  const auto& base = scores.at(SatoVariant::kBase);
  double base_macro = util::Mean(base.macro);
  double base_weighted = util::Mean(base.weighted);
  std::printf("%s\n", title);
  std::printf("  %-14s %-24s %-24s\n", "Model", "Macro average F1",
              "Support-weighted F1");
  PrintRule(66);
  for (SatoVariant v : kVariants) {
    const auto& s = scores.at(v);
    std::printf("  %-14s %-14s %-9s %-14s %-9s\n", VariantName(v).c_str(),
                FormatWithCi(s.macro).c_str(),
                v == SatoVariant::kBase
                    ? ""
                    : FormatImprovement(util::Mean(s.macro), base_macro).c_str(),
                FormatWithCi(s.weighted).c_str(),
                v == SatoVariant::kBase
                    ? ""
                    : FormatImprovement(util::Mean(s.weighted), base_weighted)
                          .c_str());
  }
  PrintRule(66);
}

struct ShapeChecks {
  double gain_dmult;  ///< relative Sato-over-Base macro-F1 gain on D_mult
  double gain_d;      ///< the same on D
  bool sato_beats_base_dmult;
  bool gain_dmult_exceeds_d;
};

ShapeChecks CheckShape(const std::map<SatoVariant, VariantScores>& dmult,
                       const std::map<SatoVariant, VariantScores>& d) {
  auto gain = [](const std::map<SatoVariant, VariantScores>& scores) {
    double sato = util::Mean(scores.at(SatoVariant::kFull).macro);
    double base = util::Mean(scores.at(SatoVariant::kBase).macro);
    return (sato - base) / base;
  };
  ShapeChecks c;
  c.gain_dmult = gain(dmult);
  c.gain_d = gain(d);
  c.sato_beats_base_dmult = c.gain_dmult > 0.0;
  c.gain_dmult_exceeds_d = c.gain_dmult > c.gain_d;
  return c;
}

void WriteScores(std::FILE* f, const char* name,
                 const std::map<SatoVariant, VariantScores>& scores,
                 bool last) {
  std::fprintf(f, "  \"%s\": {\n", name);
  for (size_t i = 0; i < std::size(kVariants); ++i) {
    const VariantScores& s = scores.at(kVariants[i]);
    std::fprintf(f,
                 "    \"%s\": {\"macro_f1\": %.4f, \"macro_f1_ci95\": %.4f, "
                 "\"weighted_f1\": %.4f, \"weighted_f1_ci95\": %.4f}%s\n",
                 VariantName(kVariants[i]).c_str(), util::Mean(s.macro),
                 util::ConfidenceInterval95(s.macro), util::Mean(s.weighted),
                 util::ConfidenceInterval95(s.weighted),
                 i + 1 < std::size(kVariants) ? "," : "");
  }
  std::fprintf(f, "  }%s\n", last ? "" : ",");
}

void WriteJson(const char* path, const BenchEnv& env,
               const std::map<SatoVariant, VariantScores>& dmult,
               const std::map<SatoVariant, VariantScores>& d,
               const ShapeChecks& checks) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_table1: cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"table1\",\n");
  std::fprintf(f, "  \"scale\": \"%s\",\n", env.scale.name.c_str());
  std::fprintf(f, "  \"folds\": %zu,\n", env.scale.folds);
  std::fprintf(f, "  \"topics\": %zu,\n", env.context.topic_dim());
  WriteScores(f, "d_mult", dmult, /*last=*/false);
  WriteScores(f, "d", d, /*last=*/false);
  std::fprintf(f, "  \"shape_checks\": {\n");
  std::fprintf(f, "    \"relative_macro_gain_d_mult\": %.4f,\n",
               checks.gain_dmult);
  std::fprintf(f, "    \"relative_macro_gain_d\": %.4f,\n", checks.gain_d);
  std::fprintf(f, "    \"sato_beats_base_on_d_mult\": %s,\n",
               checks.sato_beats_base_dmult ? "true" : "false");
  std::fprintf(f, "    \"gain_d_mult_exceeds_gain_d\": %s\n",
               checks.gain_dmult_exceeds_d ? "true" : "false");
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "bench_table1: wrote %s\n", path);
}

}  // namespace
}  // namespace sato::bench

int main() {
  using namespace sato::bench;
  BenchEnv env = BuildEnv();

  std::printf("=== Table 1: performance comparison across datasets ===\n");
  std::printf("(%zu-fold cross-validation, +- denotes 95%% CI, (%%) relative "
              "improvement over Base)\n\n",
              env.scale.folds);

  auto dmult_scores = RunCv(env, env.dataset_dmult, "Dmult");
  PrintBlock("Multi-column tables D_mult", dmult_scores);
  std::printf("\n");
  auto d_scores = RunCv(env, env.dataset_d, "D");
  PrintBlock("All tables D", d_scores);

  ShapeChecks checks = CheckShape(dmult_scores, d_scores);
  std::printf("\nShape check: Sato beats Base on D_mult: %s; "
              "relative macro gain D_mult (%.1f%%) > D (%.1f%%): %s\n",
              checks.sato_beats_base_dmult ? "yes" : "NO",
              100.0 * checks.gain_dmult, 100.0 * checks.gain_d,
              checks.gain_dmult_exceeds_d ? "yes" : "NO");
  WriteJson("BENCH_quality.json", env, dmult_scores, d_scores, checks);
  // The headline result gates the run; the D_mult-vs-D ordering is
  // recorded but only reported.
  return checks.sato_beats_base_dmult ? 0 : 1;
}
