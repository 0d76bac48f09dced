// src/obs under contention and at its export boundaries: exact counter
// totals across a ThreadPool, well-nested trace spans per thread,
// structurally valid Chrome trace JSON, and the laco-bench schema
// validator. The same binary runs under the TSan CI job, so the
// hammer tests double as data-race probes (docs/OBSERVABILITY.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

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

// --- tracing -------------------------------------------------------------

/// Per-tid well-nestedness: RAII spans on one thread must form a proper
/// bracket structure — any two spans are disjoint or one contains the
/// other. Partial overlap means begin/end got attributed to the wrong
/// thread or the recorder scrambled timestamps.
void expect_well_nested(const std::vector<TraceEvent>& events) {
  std::map<int, std::vector<TraceEvent>> by_tid;
  for (const TraceEvent& e : events) by_tid[e.tid].push_back(e);
  for (auto& [tid, track] : by_tid) {
    std::sort(track.begin(), track.end(), [](const TraceEvent& a, const TraceEvent& b) {
      return a.ts_us < b.ts_us;
    });
    for (std::size_t i = 0; i < track.size(); ++i) {
      for (std::size_t j = i + 1; j < track.size(); ++j) {
        const double a0 = track[i].ts_us, a1 = a0 + track[i].dur_us;
        const double b0 = track[j].ts_us, b1 = b0 + track[j].dur_us;
        const bool disjoint = b0 >= a1 - 1e-9;
        const bool contained = b1 <= a1 + 1e-9;
        EXPECT_TRUE(disjoint || contained)
            << "tid " << tid << ": spans [" << a0 << "," << a1 << ") '" << track[i].name
            << "' and [" << b0 << "," << b1 << ") '" << track[j].name << "' partially overlap";
      }
    }
  }
}

TEST(Trace, ConcurrentSpansAreWellNestedPerThread) {
  TraceRecorder& rec = TraceRecorder::global();
  rec.start();
  constexpr int kTasks = 16;
  {
    ThreadPool pool(3);
    for (int t = 0; t < kTasks; ++t) {
      ASSERT_TRUE(pool.submit([t] {
        TraceSpan outer("task " + std::to_string(t), "test");
        for (int i = 0; i < 3; ++i) {
          TraceSpan inner("step", "test");
        }
      }));
    }
  }
  rec.stop();
  const std::vector<TraceEvent> events = rec.events();
  EXPECT_EQ(events.size(), static_cast<std::size_t>(kTasks) * 4);  // 1 outer + 3 inner
  expect_well_nested(events);
  std::set<int> tids;
  for (const TraceEvent& e : events) tids.insert(e.tid);
  EXPECT_GE(tids.size(), 1u);
  EXPECT_LE(tids.size(), 3u);  // at most one track per pool worker
  for (const TraceEvent& e : events) {
    EXPECT_GE(e.ts_us, 0.0);
    EXPECT_GE(e.dur_us, 0.0);
    EXPECT_EQ(e.category, "test");
  }
  rec.clear();
}

TEST(Trace, DisabledRecorderDropsSpans) {
  TraceRecorder& rec = TraceRecorder::global();
  rec.stop();
  rec.clear();
  {
    TraceSpan span("invisible", "test");
  }
  EXPECT_EQ(rec.event_count(), 0u);
}

TEST(Trace, ChromeTraceJsonIsStructurallyValid) {
  TraceRecorder& rec = TraceRecorder::global();
  rec.start();
  {
    TraceSpan outer("outer", "test");
    TraceSpan inner("inner", "test");
  }
  rec.stop();

  const std::string path = ::testing::TempDir() + "/obs_chrome.trace.json";
  ASSERT_TRUE(rec.write_chrome_trace(path));
  std::ifstream in(path);
  ASSERT_TRUE(in);
  std::ostringstream buf;
  buf << in.rdbuf();
  const Json doc = Json::parse(buf.str());  // throws on malformed JSON

  // The exact shape chrome://tracing / Perfetto accept.
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  ASSERT_TRUE(doc.at("traceEvents").is_array());
  const JsonArray& evs = doc.at("traceEvents").as_array();
  ASSERT_EQ(evs.size(), 2u);
  std::set<std::string> names;
  for (const Json& e : evs) {
    EXPECT_EQ(e.at("ph").as_string(), "X");
    EXPECT_EQ(e.at("cat").as_string(), "test");
    EXPECT_TRUE(e.at("name").is_string());
    EXPECT_TRUE(e.at("ts").is_number());
    EXPECT_TRUE(e.at("dur").is_number());
    EXPECT_TRUE(e.at("pid").is_number());
    EXPECT_TRUE(e.at("tid").is_number());
    names.insert(e.at("name").as_string());
  }
  EXPECT_EQ(names, (std::set<std::string>{"outer", "inner"}));
  rec.clear();
  std::remove(path.c_str());
}

TEST(Trace, PhaseSpanFeedsBreakdownAndRecorder) {
  TraceRecorder& rec = TraceRecorder::global();
  rec.start();
  RuntimeBreakdown breakdown;
  {
    PhaseSpan span(&breakdown, "unit phase");
  }
  {
    PhaseSpan null_target(nullptr, "no breakdown");  // must be safe
  }
  rec.stop();
  EXPECT_GE(breakdown.seconds("unit phase"), 0.0);
  EXPECT_EQ(breakdown.table().size(), 1u);  // null-target span adds nothing
  const std::vector<TraceEvent> events = rec.events();
  ASSERT_EQ(events.size(), 2u);
  for (const TraceEvent& e : events) EXPECT_EQ(e.category, "phase");
  rec.clear();
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
