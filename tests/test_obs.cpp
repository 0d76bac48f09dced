// src/obs under contention and at its export boundaries: exact counter
// totals across a ThreadPool, flat phase records of real placement runs,
// structurally valid Chrome trace JSON, and the laco-bench schema
// validator. The same binary runs under the TSan CI job, so the
// hammer tests double as data-race probes (docs/OBSERVABILITY.md).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "laco/laco_placer.hpp"
#include "netlist/generator.hpp"
#include "obs/bench_report.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace laco::obs {
namespace {

// --- registry under contention ------------------------------------------

TEST(MetricRegistry, CounterTotalsAreExactAcrossThreadPool) {
  MetricRegistry reg;
  constexpr int kTasks = 64;
  constexpr int kAddsPerTask = 1000;
  {
    ThreadPool pool(4);
    for (int t = 0; t < kTasks; ++t) {
      ASSERT_TRUE(pool.submit([&reg] {
        // Re-resolve by name every time: the get-or-create path itself
        // is part of what must be thread-safe.
        Counter& c = reg.counter("hammer.count");
        Gauge& g = reg.gauge("hammer.gauge");
        for (int i = 0; i < kAddsPerTask; ++i) {
          c.add(1);
          g.record_max(static_cast<double>(i));
        }
      }));
    }
  }  // pool dtor drains + joins — totals below are quiescent reads
  EXPECT_EQ(reg.counter("hammer.count").value(),
            static_cast<std::uint64_t>(kTasks) * kAddsPerTask);
  EXPECT_EQ(reg.gauge("hammer.gauge").value(), static_cast<double>(kAddsPerTask - 1));
}

TEST(MetricRegistry, ReferencesSurviveResetAndStayRegistered) {
  MetricRegistry reg;
  Counter& c = reg.counter("keep.me");
  c.add(5);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);   // zeroed in place, not destroyed
  c.add(2);
  EXPECT_EQ(reg.counter("keep.me").value(), 2u);  // same instrument
  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_TRUE(snap.counters.count("keep.me"));
  EXPECT_EQ(snap.counters.at("keep.me"), 2u);
}

TEST(MetricRegistry, SnapshotJsonAndStringCarryAllInstruments) {
  MetricRegistry reg;
  reg.counter("a.count").add(3);
  reg.gauge("a.gauge").set(2.5);
  const MetricsSnapshot snap = reg.snapshot();
  const Json j = snap.to_json();
  EXPECT_EQ(j.at("counters").at("a.count").as_int(), 3);
  EXPECT_EQ(j.at("gauges").at("a.gauge").as_double(), 2.5);
  const std::string text = snap.to_string();
  EXPECT_NE(text.find("a.count"), std::string::npos);
  EXPECT_NE(text.find("a.gauge"), std::string::npos);
  // Prefix filter drops non-matching names.
  const std::string filtered = snap.to_string("a.g");
  EXPECT_NE(filtered.find("a.gauge"), std::string::npos);
  EXPECT_EQ(filtered.find("a.count"), std::string::npos);
}

// --- phase spans and the run record --------------------------------------

TEST(Trace, NullRecordDropsSpans) {
  RuntimeBreakdown record;
  {
    Span dropped(nullptr, "dropped");
    Span kept(&record, "kept");
  }
  ASSERT_EQ(record.entries().size(), 1u);
  EXPECT_STREQ(record.entries()[0].name, "kept");
  EXPECT_GE(record.seconds("kept"), 0.0);
}

/// The exact Chrome trace_event shape chrome://tracing and Perfetto
/// accept, one complete event per span of `record`, in record order.
void expect_chrome_trace_of(const Json& doc, const RuntimeBreakdown& record) {
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  ASSERT_TRUE(doc.at("traceEvents").is_array());
  const JsonArray& evs = doc.at("traceEvents").as_array();
  ASSERT_EQ(evs.size(), record.entries().size());
  for (std::size_t i = 0; i < evs.size(); ++i) {
    const Json& e = evs[i];
    EXPECT_EQ(e.at("ph").as_string(), "X");
    EXPECT_EQ(e.at("cat").as_string(), "phase");
    EXPECT_EQ(e.at("name").as_string(), record.entries()[i].name);
    EXPECT_GE(e.at("ts").as_double(), 0.0);
    EXPECT_GE(e.at("dur").as_double(), 0.0);
    EXPECT_TRUE(e.at("pid").is_number());
    EXPECT_TRUE(e.at("tid").is_number());
  }
}

TEST(Trace, ChromeTraceJsonIsStructurallyValid) {
  RuntimeBreakdown record;
  for (const char* name : {"first", "second"}) {
    Span span(&record, name);
  }

  const std::string path = ::testing::TempDir() + "/obs_chrome.trace.json";
  ASSERT_TRUE(write_chrome_trace(record, path));
  std::ifstream in(path);
  ASSERT_TRUE(in);
  std::ostringstream buf;
  buf << in.rdbuf();
  const Json doc = Json::parse(buf.str());  // throws on malformed JSON
  expect_chrome_trace_of(doc, record);
  std::remove(path.c_str());
}

/// A run's phases are flat: in closing order each span starts after the
/// previous one ended. So the table sums to the total, and the total
/// fits in the extent.
void expect_flat_record(const RuntimeBreakdown& record) {
  const auto& entries = record.entries();
  ASSERT_FALSE(entries.empty());
  for (std::size_t i = 0; i + 1 < entries.size(); ++i) {
    EXPECT_GE(entries[i + 1].start, entries[i].start + entries[i].duration)
        << "'" << entries[i + 1].name << "' overlaps '" << entries[i].name << "'";
  }
  double table_s = 0.0;
  for (const auto& [phase, seconds, frac] : record.table()) table_s += seconds;
  EXPECT_NEAR(table_s, record.total(), 1e-12 * record.total());
  EXPECT_LE(record.total(), record.extent());
}

TEST(Trace, PlacementRecordIsFlatAndExportsChromeTrace) {
  GeneratorConfig gcfg;
  gcfg.num_cells = 120;
  gcfg.seed = 5;
  const std::string snap_dir = ::testing::TempDir() + "/obs_record_snapshots";

  // GlobalPlacer alone, with durable snapshots so every placer phase
  // runs, and one NaN gradient so a rollback runs inside a phase.
  {
    Design design = generate_design(gcfg);
    GlobalPlacerOptions opts;
    opts.bin_nx = opts.bin_ny = 8;
    opts.max_iterations = opts.min_iterations = 40;
    opts.target_overflow = 0.0;
    opts.recovery.snapshot_dir = snap_dir;
    opts.recovery.snapshot_every = 10;
    GlobalPlacer placer(design, opts);
    RuntimeBreakdown record;
    placer.set_runtime_breakdown(&record);
    bool injected = false;
    placer.set_penalty_hook(
        [&injected](const Design& d, int iter, std::vector<double>& gx, std::vector<double>&) {
          if (iter == 25 && !injected) {
            injected = true;
            gx[static_cast<std::size_t>(d.movable_cells()[0])] =
                std::numeric_limits<double>::quiet_NaN();
          }
          return 0.0;
        });
    EXPECT_EQ(placer.run().recovery.rollbacks, 1u);
    expect_flat_record(record);
    for (const char* phase :
         {"placement: capture", "placement: snapshot save", "placement: density",
          "placement: wirelength", "placement: density gradient", "placement: optimizer"}) {
      EXPECT_GT(record.seconds(phase), 0.0) << phase;
    }
    expect_chrome_trace_of(Json::parse(chrome_trace(record).dump()), record);
  }
  std::filesystem::remove_all(snap_dir);

  // run_laco_placement with a learned penalty: the penalty's phases sit
  // between the placer's, and the evaluation closes the record.
  Design design = generate_design(gcfg);
  LacoModels models;
  models.scheme = LacoScheme::kDreamCong;
  CongestionFcnConfig fc;
  fc.in_channels = f_in_channels(models.scheme);
  fc.base_width = 4;
  nn::reset_init_seed(17);
  models.congestion = std::make_shared<CongestionFcn>(fc);
  LacoPlacerConfig cfg;
  cfg.scheme = LacoScheme::kDreamCong;
  cfg.placer.bin_nx = cfg.placer.bin_ny = 8;
  cfg.placer.max_iterations = cfg.placer.min_iterations = 40;
  cfg.placer.target_overflow = 0.0;
  cfg.penalty.features_hi = FeatureConfig{16, 16, QuasiVoxScheme::kWeightedSum, true};
  cfg.penalty.start_iteration = 20;
  cfg.router.grid.nx = cfg.router.grid.ny = 16;
  const LacoRunResult result = run_laco_placement(design, cfg, &models);
  expect_flat_record(result.breakdown);
  for (const char* phase : {"feature gathering", "congestion model", "nn backward",
                            "feature backward", "evaluation"}) {
    EXPECT_GT(result.breakdown.seconds(phase), 0.0) << phase;
  }
  EXPECT_STREQ(result.breakdown.entries().back().name, "evaluation");
  expect_chrome_trace_of(Json::parse(chrome_trace(result.breakdown).dump()), result.breakdown);
}

// --- bench reports -------------------------------------------------------

Json minimal_valid_report() {
  BenchReporter report("unit");
  report.set_setting("grid", Json(16));
  report.set_metric("speedup", 2.0);
  report.add_row("sweep", [] {
    Json row = Json::object();
    row["threads"] = 2;
    row["rps"] = 123.5;
    return row;
  }());
  return report.to_json();
}

TEST(BenchReporter, RoundTripsThroughFileAndValidates) {
  const std::string path = ::testing::TempDir() + "/BENCH_unit.json";
  {
    BenchReporter report("unit");
    report.set_setting("grid", Json(16));
    report.set_metric("speedup", 2.0);
    ASSERT_TRUE(report.write(path));
  }
  std::ifstream in(path);
  ASSERT_TRUE(in);
  std::ostringstream buf;
  buf << in.rdbuf();
  const Json doc = Json::parse(buf.str());
  EXPECT_EQ(BenchReporter::validate(doc), "");
  EXPECT_EQ(doc.at("schema").as_string(), "laco-bench");
  EXPECT_EQ(doc.at("schema_version").as_int(), BenchReporter::kSchemaVersion);
  EXPECT_EQ(doc.at("name").as_string(), "unit");
  EXPECT_EQ(doc.at("metrics").at("speedup").as_double(), 2.0);
  std::remove(path.c_str());
}

TEST(BenchReporter, ValidateRejectsMalformedReports) {
  EXPECT_EQ(BenchReporter::validate(minimal_valid_report()), "");

  Json wrong_schema = minimal_valid_report();
  wrong_schema["schema"] = "not-laco-bench";
  EXPECT_NE(BenchReporter::validate(wrong_schema), "");

  Json wrong_version = minimal_valid_report();
  wrong_version["schema_version"] = 999;
  EXPECT_NE(BenchReporter::validate(wrong_version), "");

  Json missing_metrics = minimal_valid_report();
  JsonObject& obj = missing_metrics.as_object();
  obj.erase(std::remove_if(obj.begin(), obj.end(),
                           [](const auto& kv) { return kv.first == "metrics"; }),
            obj.end());
  EXPECT_NE(BenchReporter::validate(missing_metrics), "");

  Json string_metric = minimal_valid_report();
  string_metric["metrics"]["speedup"] = "fast";
  EXPECT_NE(BenchReporter::validate(string_metric), "");

  Json series_not_array = minimal_valid_report();
  series_not_array["series"]["sweep"] = 7;
  EXPECT_NE(BenchReporter::validate(series_not_array), "");

  EXPECT_NE(BenchReporter::validate(Json(3.0)), "");  // not even an object
}

// --- json ----------------------------------------------------------------

TEST(Json, ParseDumpRoundTripPreservesStructure) {
  const std::string text =
      R"({"a": 1, "b": [true, null, "x\n\"y\""], "c": {"d": -2.5e3}, "e": ""})";
  const Json doc = Json::parse(text);
  const Json again = Json::parse(doc.dump());
  EXPECT_EQ(again.at("a").as_int(), 1);
  ASSERT_TRUE(again.at("b").is_array());
  EXPECT_EQ(again.at("b").as_array().size(), 3u);
  EXPECT_TRUE(again.at("b").as_array()[0].as_bool());
  EXPECT_TRUE(again.at("b").as_array()[1].is_null());
  EXPECT_EQ(again.at("b").as_array()[2].as_string(), "x\n\"y\"");
  EXPECT_EQ(again.at("c").at("d").as_double(), -2500.0);
  EXPECT_EQ(again.at("e").as_string(), "");
  // Indented and compact dumps parse to the same document.
  EXPECT_EQ(Json::parse(doc.dump(2)).dump(), doc.dump());
}

TEST(Json, ParseRejectsMalformedInput) {
  EXPECT_THROW(Json::parse("{"), std::runtime_error);
  EXPECT_THROW(Json::parse("[1,]"), std::runtime_error);
  EXPECT_THROW(Json::parse("{\"a\" 1}"), std::runtime_error);
  EXPECT_THROW(Json::parse("tru"), std::runtime_error);
  EXPECT_THROW(Json::parse("\"unterminated"), std::runtime_error);
  EXPECT_THROW(Json::parse("1 2"), std::runtime_error);
}

}  // namespace
}  // namespace laco::obs
