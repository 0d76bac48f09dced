// Tests of the benchmark itself, at tiny input sizes: every workload
// reports every metric BENCHMARK.json names, the replay reproduces the
// penalty hook bitwise, and a perturbed output fails the checks.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "obs/json.hpp"
#include "record.hpp"

namespace lacobench {
namespace {

Options tiny(const std::string& workload, bool trace) {
  Options o;
  o.workload = workload;
  o.seed = 3;
  o.seconds = 0.0;
  o.trace = trace;
  o.tiny = true;
  o.models_dir = std::string(LACOBENCH_DIR) + "/modelset";
  return o;
}

laco::obs::Json benchmark_json() {
  std::ifstream in(std::string(LACOBENCH_DIR) + "/../BENCHMARK.json");
  std::stringstream text;
  text << in.rdbuf();
  return laco::obs::Json::parse(text.str());
}

TEST(Lacobench, MetricTablesMatchBenchmarkJson) {
  const laco::obs::Json doc = benchmark_json();
  for (const auto& [key, table] : {std::pair{"end_to_end", &end_to_end_metrics()},
                                   std::pair{"per_layer", &per_layer_metrics()}}) {
    const auto& listed = doc.at(key).as_array();
    ASSERT_EQ(listed.size(), table->size()) << key;
    for (std::size_t i = 0; i < listed.size(); ++i) {
      EXPECT_EQ(listed[i].at("name").as_string(), (*table)[i].name) << key;
      EXPECT_EQ(listed[i].at("unit").as_string(), (*table)[i].unit) << key;
    }
  }
}

class EveryWorkload : public ::testing::TestWithParam<std::string> {};

TEST_P(EveryWorkload, UntracedRunSetsEveryEndToEndMetric) {
  const Result r = run_workload(tiny(GetParam(), false));
  EXPECT_TRUE(r.correct()) << (r.failures().empty() ? "" : r.failures().front());
  EXPECT_GT(r.attempted, 0u);
  EXPECT_EQ(r.failed, 0u);
  for (const MetricDef& def : end_to_end_metrics()) {
    ASSERT_TRUE(r.has(def.name)) << def.name;
    EXPECT_GT(r.get(def.name), 0.0) << def.name;
  }
}

TEST_P(EveryWorkload, TracedRunSetsPerLayerMetrics) {
  Result r = run_workload(tiny(GetParam(), true));
  EXPECT_TRUE(r.correct()) << (r.failures().empty() ? "" : r.failures().front());
  EXPECT_GT(r.get("pass_s"), 0.0);
  EXPECT_GT(r.get("netlist.generate_s"), 0.0);
  fill_missing(r, per_layer_metrics());
  for (const MetricDef& def : per_layer_metrics()) EXPECT_TRUE(r.has(def.name)) << def.name;
  EXPECT_FALSE(r.spans.spans().empty());
}

INSTANTIATE_TEST_SUITE_P(Lacobench, EveryWorkload,
                         ::testing::Values("laco_small", "laco_large", "train", "serve"));

TEST(Lacobench, ReplayMatchesHookOnSmallDesign) {
  const Result r = run_workload(tiny("laco_large", true));
  ASSERT_TRUE(r.correct()) << (r.failures().empty() ? "" : r.failures().front());
  EXPECT_GT(r.get("laco.applications"), 0.0);
  EXPECT_EQ(r.get("laco.replay_mismatches"), 0.0);
  EXPECT_EQ(r.get("laco.learned_frac"), 1.0);
}

TEST(Lacobench, PerturbedReplayLossFailsTheCheck) {
  Options o = tiny("laco_large", true);
  o.perturb = true;
  const Result r = run_workload(o);
  EXPECT_FALSE(r.correct());
  EXPECT_EQ(r.get("laco.replay_mismatches"), 1.0);
}

TEST(Lacobench, PerturbedServeResultFailsTheCheck) {
  Options o = tiny("serve", false);
  o.perturb = true;
  const Result r = run_workload(o);
  ASSERT_FALSE(r.correct());
  EXPECT_NE(r.failures().front().find("differ from a direct forward"), std::string::npos);
}

TEST(Lacobench, UnknownWorkloadThrows) {
  EXPECT_THROW(run_workload(tiny("bogus", false)), std::invalid_argument);
}

TEST(Lacobench, SpanLogAttributesNestedSpans) {
  SpanLog log;
  {
    ScopedSpan outer(&log, "outer");
    ScopedSpan inner(&log, "inner");
  }
  ASSERT_EQ(log.spans().size(), 2u);
  EXPECT_EQ(log.spans()[1].parent, 0);
  EXPECT_LE(log.total("inner"), log.total("outer"));
  EXPECT_EQ(log.count("outer"), 1u);
}

}  // namespace
}  // namespace lacobench
