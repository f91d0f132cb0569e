#include "core/feature_context.h"

#include "topic/table_document.h"

namespace sato {

FeatureContext FeatureContext::Build(
    const std::vector<Table>& reference_tables, const SatoConfig& config,
    util::Rng* rng) {
  FeatureContext ctx;

  // Sentences for embedding training: one per column (column values are the
  // natural context window for cell tokens) plus one per table row band via
  // the table document.
  std::vector<std::vector<std::string>> sentences;
  for (const Table& table : reference_tables) {
    for (const Column& column : table.columns()) {
      std::vector<std::string> sentence;
      for (const std::string& value : column.values) {
        auto tokens = embedding::TokenizeCell(value);
        sentence.insert(sentence.end(), tokens.begin(), tokens.end());
      }
      if (!sentence.empty()) sentences.push_back(std::move(sentence));
    }
  }

  embedding::SgnsTrainer::Options sgns;
  embedding::SgnsTrainer trainer(sgns);
  ctx.embeddings_ = std::make_unique<embedding::WordEmbeddings>(
      trainer.Train(sentences, rng));

  auto docs = topic::TablesToDocuments(reference_tables);
  ctx.tfidf_ = std::make_unique<embedding::TfIdf>();
  ctx.tfidf_->Fit(docs);

  topic::LdaOptions lda_options;
  lda_options.num_topics = config.num_topics;
  ctx.lda_ = std::make_unique<topic::LdaModel>(
      topic::LdaModel::Train(docs, lda_options, rng));

  ctx.pipeline_ = std::make_unique<features::FeaturePipeline>(
      ctx.embeddings_.get(), ctx.tfidf_.get());
  return ctx;
}

std::vector<double> FeatureContext::TopicVector(const Table& table,
                                                util::Rng* /*rng*/) const {
  return lda_->InferTopics(topic::TableToDocument(table));
}

void FeatureContext::FeaturizeTable(
    const Table& table, util::Rng* /*rng*/, features::FeatureScratch* scratch,
    std::vector<features::ColumnFeatures>* features,
    std::vector<double>* topic) const {
  // Growth accounting is layered, not repeated: the cache's own counter
  // covers Build, ExtractCached covers the kernel buffers, and the check
  // below covers only the fold-in scratch.
  scratch->cache.Build(table, embeddings_.get(), tfidf_.get(),
                       &lda_->vocab());
  pipeline_->ExtractCached(scratch, features);
  size_t lda_capacity_before = scratch->lda.CapacityBytes();
  scratch->lda.ids.clear();
  scratch->cache.CollectLdaIds(lda_->options().max_doc_tokens,
                               &scratch->lda.ids);
  lda_->InferTopicsInto(&scratch->lda, topic);
  if (scratch->lda.CapacityBytes() > lda_capacity_before) {
    ++scratch->growth_events;
  }
}

void FeatureContext::Save(std::ostream* out) const {
  embeddings_->Save(out);
  tfidf_->Save(out);
  lda_->Save(out);
}

FeatureContext FeatureContext::Load(std::istream* in) {
  FeatureContext ctx;
  ctx.embeddings_ = std::make_unique<embedding::WordEmbeddings>(
      embedding::WordEmbeddings::Load(in));
  ctx.tfidf_ =
      std::make_unique<embedding::TfIdf>(embedding::TfIdf::Load(in));
  ctx.lda_ = std::make_unique<topic::LdaModel>(topic::LdaModel::Load(in));
  ctx.pipeline_ = std::make_unique<features::FeaturePipeline>(
      ctx.embeddings_.get(), ctx.tfidf_.get());
  return ctx;
}

}  // namespace sato
