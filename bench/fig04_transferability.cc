// Fig. 4 + Fig. 5: transferability of performance-influence models
// (stepwise polynomial regression over options) vs causal performance models
// (structure-constrained polynomial functional nodes), Xavier -> TX2.
//
// Reports, per model class: total terms in source/target, common terms,
// Spearman rank correlation of the common-term coefficients, and MAPE of the
// source-learned model on source and target data; plus the per-term
// coefficient drift of Fig. 5.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <map>

#include "eval/harness.h"
#include "stats/correlation.h"
#include "stats/regression.h"
#include "sysmodel/systems.h"
#include "unicorn/measurement_broker.h"
#include "unicorn/model_learner.h"
#include "util/text_table.h"

namespace unicorn {
namespace {

// Samples `n` configurations in `env` through the measurement plane (the
// seed bench called SystemModel::MeasureMany directly, so its sample counts
// were invisible to BrokerStats). The broker measures one environment and
// persists nothing, so its requests go untagged: a task-only broker serves
// only untagged requests.
DataTable SampleEnv(const std::shared_ptr<SystemModel>& model, const Environment& env,
                    size_t n, uint64_t seed) {
  const PerformanceTask task = MakeSimulatedTask(model, env, DefaultWorkload(), seed);
  BrokerOptions broker_options;
  broker_options.num_threads = 4;  // rows are bit-identical to serial
  MeasurementBroker broker(task, broker_options);
  Rng rng(seed);
  std::vector<std::vector<double>> configs;
  for (size_t i = 0; i < n; ++i) {
    configs.push_back(model->SampleConfig(&rng));
  }
  const auto rows = broker.MeasureBatch(configs);
  DataTable data(model->variables());
  data.Reserve(rows.size());
  for (const auto& row : rows) {
    data.AddRow(row);
  }
  std::printf("[measurement plane] %-6s: %zu requests, %zu measured, %.0f%% cache hits\n",
              env.name.c_str(), broker.stats().requests, broker.stats().measured,
              100 * broker.stats().CacheHitRate());
  return data;
}

// MAPE on the non-faulty bulk of the distribution (below the 95th
// percentile): the fault tail is 5-8x multiplicative outliers that drown the
// prediction comparison for every model class.
double BulkMape(const DataTable& data, size_t objective, const InfluenceModel& model) {
  std::vector<double> values = data.Col(objective);
  std::sort(values.begin(), values.end());
  const double cap = values[static_cast<size_t>(0.95 * (values.size() - 1))];
  std::vector<double> truth;
  std::vector<double> pred;
  for (size_t r = 0; r < data.NumRows(); ++r) {
    if (data.At(r, objective) <= cap) {
      truth.push_back(data.At(r, objective));
      pred.push_back(model.Predict(data.Row(r)));
    }
  }
  return Mape(truth, pred);
}

struct ModelReport {
  size_t total_terms_source = 0;
  size_t total_terms_target = 0;
  size_t common_terms = 0;
  double coeff_rank_corr = 0.0;
  double mape_source = 0.0;
  double mape_target = 0.0;  // source model evaluated on target data
};

std::string TermKey(const RegressionTerm& term) {
  std::string key;
  for (size_t v : term.vars) {
    key += std::to_string(v) + ",";
  }
  return key;
}

ModelReport RegressionReport(const SystemModel& model, const DataTable& source,
                             const DataTable& target, size_t objective,
                             std::vector<std::pair<std::string, double>>* drift) {
  const auto features = model.OptionIndices();
  StepwiseOptions options;
  options.max_terms = 20;
  const InfluenceModel src = FitStepwiseRegression(source, features, objective, options);
  const InfluenceModel tgt = FitStepwiseRegression(target, features, objective, options);

  ModelReport report;
  report.total_terms_source = src.terms.size();
  report.total_terms_target = tgt.terms.size();

  std::map<std::string, std::pair<double, double>> common;  // key -> (src, tgt coeff)
  std::map<std::string, size_t> tgt_index;
  for (size_t t = 0; t < tgt.terms.size(); ++t) {
    tgt_index[TermKey(tgt.terms[t])] = t;
  }
  std::vector<double> src_coeffs;
  std::vector<double> tgt_coeffs;
  for (size_t t = 0; t < src.terms.size(); ++t) {
    const auto it = tgt_index.find(TermKey(src.terms[t]));
    if (it == tgt_index.end()) {
      continue;
    }
    ++report.common_terms;
    src_coeffs.push_back(src.coefficients[t + 1]);
    tgt_coeffs.push_back(tgt.coefficients[it->second + 1]);
    if (drift != nullptr) {
      drift->push_back({src.terms[t].Name(source),
                        tgt.coefficients[it->second + 1] - src.coefficients[t + 1]});
    }
  }
  report.coeff_rank_corr = SpearmanCorrelation(src_coeffs, tgt_coeffs);
  report.mape_source = BulkMape(source, objective, src);
  report.mape_target = BulkMape(target, objective, src);
  return report;
}

// Causal performance model: ADMG structure + polynomial functional node for
// the objective (linear in its learned parents — exactly the paper's
// "functional nodes are polynomials" characterization).
ModelReport CausalReport(const DataTable& source, const DataTable& target, size_t objective) {
  CausalModelOptions options;
  options.fci.skeleton.alpha = 0.1;
  options.fci.skeleton.max_cond_size = 2;
  options.fci.skeleton.max_subsets = 24;
  options.fci.max_pds_cond_size = 1;
  options.entropic.latent.restarts = 1;
  const LearnedModel src_model = LearnCausalPerformanceModel(source, options);
  const LearnedModel tgt_model = LearnCausalPerformanceModel(target, options);

  auto parent_terms = [&](const MixedGraph& g) {
    std::vector<RegressionTerm> terms;
    for (size_t p : g.Parents(objective)) {
      terms.push_back({{p}});
    }
    return terms;
  };
  const auto src_terms = parent_terms(src_model.admg);
  const auto tgt_terms = parent_terms(tgt_model.admg);

  ModelReport report;
  report.total_terms_source = src_terms.size();
  report.total_terms_target = tgt_terms.size();

  const InfluenceModel src_fn = FitOls(source, src_terms, objective);
  const InfluenceModel tgt_fn = FitOls(target, tgt_terms, objective);

  std::vector<double> src_coeffs;
  std::vector<double> tgt_coeffs;
  for (size_t a = 0; a < src_terms.size(); ++a) {
    for (size_t b = 0; b < tgt_terms.size(); ++b) {
      if (src_terms[a] == tgt_terms[b]) {
        ++report.common_terms;
        src_coeffs.push_back(src_fn.coefficients[a + 1]);
        tgt_coeffs.push_back(tgt_fn.coefficients[b + 1]);
      }
    }
  }
  report.coeff_rank_corr = SpearmanCorrelation(src_coeffs, tgt_coeffs);
  report.mape_source = BulkMape(source, objective, src_fn);
  report.mape_target = BulkMape(target, objective, src_fn);
  return report;
}

void BM_StepwiseRegression(benchmark::State& state) {
  auto model = std::make_shared<SystemModel>(BuildSystem(SystemId::kDeepstream));
  const DataTable data = SampleEnv(model, Xavier(), 200, 4);
  DataTable meta(model->variables());
  const size_t latency = *meta.IndexOf(kLatencyName);
  StepwiseOptions options;
  options.max_terms = 10;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        FitStepwiseRegression(data, model->OptionIndices(), latency, options));
  }
}
BENCHMARK(BM_StepwiseRegression)->Iterations(2);

void RunFigure() {
  auto model = std::make_shared<SystemModel>(BuildSystem(SystemId::kDeepstream));
  DataTable meta(model->variables());
  const size_t latency = *meta.IndexOf(kLatencyName);
  const DataTable source = SampleEnv(model, Xavier(), 1000, 41);
  const DataTable target = SampleEnv(model, Tx2(), 1000, 42);

  std::vector<std::pair<std::string, double>> drift;
  const ModelReport reg = RegressionReport(*model, source, target, latency, &drift);
  const ModelReport causal = CausalReport(source, target, latency);

  std::printf("\n=== Fig. 4: transferability, Xavier (source) -> TX2 (target) ===\n");
  TextTable table({"model class", "terms(src)", "terms(tgt)", "common", "coeff rank-corr",
                   "MAPE src", "MAPE src->tgt"});
  auto add = [&](const char* name, const ModelReport& r) {
    table.AddRow({name, std::to_string(r.total_terms_source),
                  std::to_string(r.total_terms_target), std::to_string(r.common_terms),
                  FormatDouble(r.coeff_rank_corr), FormatDouble(r.mape_source, 1),
                  FormatDouble(r.mape_target, 1)});
  };
  add("perf-influence (regression)", reg);
  add("causal performance model", causal);
  std::printf("%s", table.Render().c_str());
  std::printf("(expected shape: causal model keeps more common terms, higher rank\n"
              " correlation, and a smaller source->target MAPE blow-up)\n");

  std::printf("\n=== Fig. 5: coefficient drift of common regression terms ===\n");
  std::sort(drift.begin(), drift.end(), [](const auto& a, const auto& b) {
    return std::abs(a.second) > std::abs(b.second);
  });
  if (drift.empty()) {
    std::printf("no common terms survived the environment change — the strongest\n"
                "possible form of the paper's instability finding.\n");
  } else {
    TextTable drift_table({"term", "coeff difference (src -> tgt)"});
    for (size_t i = 0; i < drift.size() && i < 15; ++i) {
      drift_table.AddRow({drift[i].first, FormatDouble(drift[i].second, 3)});
    }
    std::printf("%s", drift_table.Render().c_str());
  }
}

}  // namespace
}  // namespace unicorn

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  unicorn::RunFigure();
  return 0;
}
