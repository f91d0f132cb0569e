// Per-layer replays and the metric/coverage helpers of traced runs.

#include <cstdio>
#include <stdexcept>

#include "serve/wire.h"
#include "trace.h"
#include "util/rng.h"
#include "workload.h"

namespace sato::perfbench {

namespace {

double Us(uint64_t from_ns, uint64_t to_ns) { return (to_ns - from_ns) / 1e3; }

size_t Cells(const Table& table) {
  size_t cells = 0;
  for (const Column& c : table.columns()) cells += c.values.size();
  return cells;
}

}  // namespace

LayerReplay ReplayLayers(const serve::ModelBundle& bundle,
                         const std::vector<const Table*>& tables,
                         const std::vector<uint64_t>& seeds,
                         double flops_per_column) {
  LayerReplay r;
  const SatoPredictor& predictor = bundle.predictor();
  const FeatureContext& context = *bundle.context();
  const SatoModel& model = bundle.model();
  Tracer& tracer = GlobalTracer();
  nn::Workspace ws;
  SatoPredictor::Scratch scratch;
  std::vector<features::ColumnFeatures> features;
  std::vector<double> topic;
  std::string request_payload, response_payload;
  double featurize_ns = 0.0, cells = 0.0, nn_ns = 0.0, flops = 0.0;
  std::vector<serve::CacheKey> keys;

  for (size_t i = 0; i < tables.size(); ++i) {
    const Table& table = *tables[i];
    if (table.num_columns() == 0) continue;
    const uint64_t root = tracer.NewId();
    const uint64_t root_start = NowNs();
    auto timed = [&](const char* name, auto&& call) {
      const uint64_t t0 = NowNs();
      call();
      const uint64_t t1 = NowNs();
      tracer.Record(name, t0, t1, root, i);
      return Us(t0, t1);
    };
    std::vector<TypeId> ids;
    r.core_us.push_back(timed("core.PredictTable", [&] {
      util::Rng rng(seeds[i]);
      ids = predictor.PredictTable(table, &rng, &ws, &scratch);
    }));
    const double feat = timed("features.FeaturizeTable", [&] {
      util::Rng rng(seeds[i]);
      context.FeaturizeTable(table, &rng, &scratch.features, &features,
                             &topic);
    });
    r.featurize_us.push_back(feat);
    featurize_ns += feat * 1e3;
    cells += static_cast<double>(Cells(table));
    r.topic_us.push_back(timed("topic.TopicVector", [&] {
      util::Rng rng(seeds[i]);
      std::vector<double> v = context.TopicVector(table, &rng);
      (void)v;
    }));
    util::Rng rng(seeds[i]);
    const TableExample& example =
        predictor.FeaturizeInto(table, &rng, &scratch);
    const double probs = timed("nn.PredictProbs", [&] {
      nn::Matrix m = model.PredictProbs(example, &ws);
      (void)m;
    });
    r.nn_us.push_back(probs);
    nn_ns += probs * 1e3;
    flops += flops_per_column * static_cast<double>(table.num_columns());
    const double predict = timed("crf.Predict", [&] {
      std::vector<int> decoded = model.Predict(example, &ws);
      (void)decoded;
    });
    r.crf_us.push_back(std::max(0.0, predict - probs));

    // Wire: request encode/decode (client -> server) and response
    // encode/decode (server -> client).
    request_payload.clear();
    response_payload.clear();
    double encode = timed("wire.EncodePredictPayload", [&] {
      serve::wire::EncodePredictPayload(table, seeds[i], &request_payload);
    });
    Table decoded_table;
    uint64_t decoded_seed = 0;
    std::string error;
    double decode = timed("wire.DecodePredictPayload", [&] {
      serve::wire::DecodePredictPayload(request_payload, &decoded_table,
                                        &decoded_seed, &error);
    });
    serve::wire::ResponseBody body;
    body.status = serve::wire::WireStatus::kOk;
    body.model_version = bundle.version();
    body.type_ids = ids;
    encode += timed("wire.EncodeResponsePayload", [&] {
      serve::wire::EncodeResponsePayload(body, &response_payload);
    });
    serve::wire::ResponseBody decoded_body;
    decode += timed("wire.DecodeResponsePayload", [&] {
      serve::wire::DecodeResponsePayload(response_payload, &decoded_body,
                                         &error);
    });
    r.encode_us.push_back(encode);
    r.decode_us.push_back(decode);
    r.bytes.push_back(static_cast<double>(
        serve::wire::EncodeFrame(serve::wire::Opcode::kPredict, i, 0,
                                 request_payload)
            .size() +
        serve::wire::EncodeFrame(serve::wire::Opcode::kPredict, i, 0,
                                 response_payload)
            .size()));
    keys.push_back(serve::ComputeCacheKey(table, seeds[i], bundle.version()));
    tracer.RecordWithId(root, "replay.table", root_start, NowNs(), 0, i);
  }

  // Result cache at the daemon's settings: insert every key (evicting
  // past capacity), then look each up; a lookup includes the key hash the
  // service computes per Submit.
  serve::ResultCacheOptions cache_options;
  cache_options.capacity_entries = kCacheEntries;
  cache_options.num_shards = kCacheShards;
  serve::ResultCache cache(cache_options);
  const std::vector<TypeId> value(4, 1);
  for (const serve::CacheKey& key : keys) {
    const uint64_t t0 = NowNs();
    cache.Insert(key, bundle.version(), value);
    const uint64_t t1 = NowNs();
    tracer.Record("result_cache.Insert", t0, t1, 0, 0);
    r.insert_us.push_back(Us(t0, t1));
  }
  std::vector<TypeId> out;
  size_t k = 0;
  for (size_t i = 0; i < tables.size(); ++i) {
    if (tables[i]->num_columns() == 0) continue;
    const uint64_t t0 = NowNs();
    const serve::CacheKey key =
        serve::ComputeCacheKey(*tables[i], seeds[i], bundle.version());
    cache.Lookup(key, &out);
    const uint64_t t1 = NowNs();
    tracer.Record("result_cache.Lookup", t0, t1, 0, k++);
    r.lookup_us.push_back(Us(t0, t1));
  }
  r.featurize_ns_per_cell = cells > 0 ? featurize_ns / cells : 0.0;
  r.nn_gflop_per_s = nn_ns > 0 ? flops / nn_ns : 0.0;  // flop/ns == GFLOP/s
  return r;
}

// ---- metric plumbing -----------------------------------------------------

MetricMap ZeroLayerMetrics() {
  const std::pair<const char*, const char*> names[] = {
      {"features.featurize_us", "us"},
      {"features.ns_per_cell", "ns"},
      {"topic.topic_vector_us", "us"},
      {"nn.forward_us", "us"},
      {"nn.gflop_per_s", "GFLOP/s"},
      {"crf.decode_us", "us"},
      {"core.predict_us", "us"},
      {"batch_predictor.parallel_efficiency", "frac"},
      {"prediction_service.queue_wait_us_p50", "us"},
      {"prediction_service.queue_wait_us_p99", "us"},
      {"prediction_service.batch_size_mean", "count"},
      {"prediction_service.rejected", "count"},
      {"prediction_service.deadline_shed", "count"},
      {"prediction_service.model_swaps", "count"},
      {"result_cache.hit_rate", "frac"},
      {"result_cache.hits", "count"},
      {"result_cache.misses", "count"},
      {"result_cache.evictions", "count"},
      {"result_cache.replay_hit_rate", "frac"},
      {"result_cache.replay_evictions", "count"},
      {"result_cache.lookup_us", "us"},
      {"result_cache.insert_us", "us"},
      {"wire.encode_us", "us"},
      {"wire.decode_us", "us"},
      {"wire.bytes_per_request", "B"},
      {"server.request_us", "us"},
      {"server.transport_us", "us"},
      {"model_registry.publish_us", "us"},
      {"correction_wal.append_us_p50", "us"},
      {"correction_wal.append_us_p99", "us"},
      {"trace.coverage_frac", "frac"},
      {"trace.unattributed_frac", "frac"},
  };
  MetricMap metrics;
  for (const auto& [name, unit] : names) {
    metrics.emplace_back(name, Metric{0.0, unit});
  }
  return metrics;
}

void SetMetric(MetricMap* metrics, const std::string& name, double value) {
  for (auto& [key, metric] : *metrics) {
    if (key == name) {
      metric.value = value;
      return;
    }
  }
  throw std::logic_error("unknown metric " + name);
}

void AddTraceOverhead(const MetricMap& untraced, const MetricMap& traced,
                      MetricMap* layer) {
  auto find = [](const MetricMap& m, const std::string& name) {
    for (const auto& [key, metric] : m) {
      if (key == name) return metric;
    }
    throw std::logic_error("missing metric " + name);
  };
  for (const char* name : kEndToEnd) {
    const Metric before = find(untraced, name);
    layer->emplace_back(std::string("trace_overhead.") + name,
                        Metric{find(traced, name).value - before.value,
                               before.unit});
  }
}

void FillReplayMetrics(const LayerReplay& r, MetricMap* m) {
  SetMetric(m, "features.featurize_us", Median(r.featurize_us));
  SetMetric(m, "features.ns_per_cell", r.featurize_ns_per_cell);
  SetMetric(m, "topic.topic_vector_us", Median(r.topic_us));
  SetMetric(m, "nn.forward_us", Median(r.nn_us));
  SetMetric(m, "nn.gflop_per_s", r.nn_gflop_per_s);
  SetMetric(m, "crf.decode_us", Median(r.crf_us));
  SetMetric(m, "core.predict_us", Median(r.core_us));
  SetMetric(m, "result_cache.lookup_us", Median(r.lookup_us));
  SetMetric(m, "result_cache.insert_us", Median(r.insert_us));
  SetMetric(m, "wire.encode_us", Median(r.encode_us));
  SetMetric(m, "wire.decode_us", Median(r.decode_us));
  SetMetric(m, "wire.bytes_per_request", Median(r.bytes));
}

std::string MetricsJson(const MetricMap& metrics) {
  Json json;
  for (const auto& [name, metric] : metrics) json.Num(name, metric.value);
  return json.Dump();
}

std::string NumberList(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.6g", i ? ", " : "", values[i]);
    out += buf;
  }
  return out + "]";
}

std::string SpanTotalsJson(uint64_t from_ns, uint64_t to_ns,
                           const std::string& trace_out) {
  const std::vector<Span> spans = GlobalTracer().Collect();
  if (!trace_out.empty() && !Tracer::Write(spans, trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
  }
  Json totals;
  for (const auto& [name, t] : Tracer::Totals(spans, from_ns, to_ns)) {
    Json one;
    one.Int("count", t.count).Num("total_ms", t.total_ms).Num("self_ms",
                                                              t.self_ms);
    totals.Raw(name, one.Dump());
  }
  return totals.Dump();
}

std::string CoverageJson(
    double load_ms,
    const std::vector<std::pair<std::string, double>>& attributed_ms,
    double* coverage_frac) {
  Json shares;
  double attributed = 0.0;
  for (const auto& [layer, ms] : attributed_ms) {
    attributed += ms;
    shares.Num(layer, load_ms > 0 ? ms / load_ms : 0.0);
  }
  *coverage_frac = load_ms > 0 ? attributed / load_ms : 0.0;
  shares.Num("unattributed", 1.0 - *coverage_frac);
  Json out;
  out.Num("load_ms", load_ms).Raw("shares", shares.Dump());
  return out.Dump();
}

}  // namespace sato::perfbench
