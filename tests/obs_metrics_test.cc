// Tests for the obs metrics layer: counter/gauge/histogram semantics,
// the 5 s bucket edge the paper's timeout argument hinges on, merge
// associativity (the property that makes shard-order merges --jobs
// independent), JSON/Prometheus output, the json_fixed byte table, and
// the wall.* exclusion rule.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>

#include "obs/exemplar.h"
#include "obs/flight.h"
#include "obs/json.h"

namespace turtle::obs {
namespace {

TEST(Counter, IncAndMergeSum) {
  Counter a;
  Counter b;
  a.inc();
  a.inc(41);
  b.inc(100);
  EXPECT_EQ(a.value(), 42u);
  a.merge_from(b);
  EXPECT_EQ(a.value(), 142u);
}

TEST(Gauge, MergeTakesMax) {
  Gauge a;
  Gauge b;
  a.set(10);
  a.set_max(7);  // lower: ignored
  EXPECT_EQ(a.value(), 10);
  b.set(25);
  a.merge_from(b);
  EXPECT_EQ(a.value(), 25);
  b.merge_from(a);  // commutative endpoint
  EXPECT_EQ(b.value(), 25);
}

// Index of the bucket whose bound is `bound_us` in kBucketBoundsUs.
std::size_t bucket_index(std::int64_t bound_us) {
  for (std::size_t i = 0; i < Histogram::kBucketBoundsUs.size(); ++i) {
    if (Histogram::kBucketBoundsUs[i] == bound_us) return i;
  }
  ADD_FAILURE() << bound_us << " is not a bucket bound";
  return 0;
}

TEST(Histogram, LeSemanticsAtBucketEdges) {
  Histogram h;
  h.observe_us(0);  // below the first bound
  h.observe_us(1);  // exactly the first bound: le => bucket 0
  EXPECT_EQ(h.bucket_count(0), 2u);
  h.observe_us(2);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum_us(), 3);
}

TEST(Histogram, FiveSecondEdgeIsFirstClass) {
  // The paper's central number: a 5 s timeout captures ~95% of pings from
  // ~95% of addresses. 5 s must be an exact bucket boundary so "within
  // the timeout" vs "would have been discarded" is a clean split.
  const std::size_t five_s = bucket_index(5'000'000);
  Histogram h;
  h.observe(SimTime::seconds(5));  // exactly 5 s: le => the 5 s bucket
  EXPECT_EQ(h.bucket_count(five_s), 1u);
  h.observe_us(5'000'001);  // one microsecond later: next bucket
  EXPECT_EQ(h.bucket_count(five_s), 1u);
  EXPECT_EQ(h.bucket_count(five_s + 1), 1u);
}

TEST(Histogram, OverflowBucketBeyond120s) {
  Histogram h;
  h.observe(SimTime::seconds(120));  // exactly the last bound
  EXPECT_EQ(h.bucket_count(Histogram::kNumBuckets - 2), 1u);
  h.observe(SimTime::seconds(121));
  h.observe(SimTime::hours(2));
  EXPECT_EQ(h.bucket_count(Histogram::kNumBuckets - 1), 2u);
  EXPECT_EQ(h.count(), 3u);
}

TEST(Histogram, BucketForUsAgreesWithObserveAtEveryEdge) {
  // bucket_for_us is the public exemplar-pinning path; it must agree with
  // observe_us at every bound, one below, and one above — le semantics.
  for (std::size_t i = 0; i < Histogram::kBucketBoundsUs.size(); ++i) {
    const std::int64_t bound = Histogram::kBucketBoundsUs[i];
    EXPECT_EQ(Histogram::bucket_for_us(bound), i) << bound;
    EXPECT_EQ(Histogram::bucket_for_us(bound + 1), i + 1) << bound;
    if (i > 0) {
      EXPECT_EQ(Histogram::bucket_for_us(Histogram::kBucketBoundsUs[i - 1] + 1), i);
    }
  }
  EXPECT_EQ(Histogram::bucket_for_us(0), 0u);
  EXPECT_EQ(Histogram::bucket_for_us(5'000'000), bucket_index(5'000'000));
  // Past the last bound: the overflow bucket.
  EXPECT_EQ(Histogram::bucket_for_us(120'000'001), Histogram::kNumBuckets - 1);
}

TEST(Histogram, MergeIsElementwiseSum) {
  Histogram a;
  Histogram b;
  a.observe_us(3);
  b.observe_us(3);
  b.observe_us(7'000'000);
  a.merge_from(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.sum_us(), 3 + 3 + 7'000'000);
  EXPECT_EQ(a.bucket_count(bucket_index(5)), 2u);
  EXPECT_EQ(a.bucket_count(bucket_index(10'000'000)), 1u);
}

void fill(Registry& r, std::uint64_t c, std::int64_t g, std::int64_t us) {
  r.counter("c").inc(c);
  r.gauge("g").set_max(g);
  r.histogram("h").observe_us(us);
}

TEST(Registry, MergeIsAssociativeAndCommutative) {
  // (a + b) + c == a + (b + c) and a + b == b + a, compared via the
  // canonical JSON dump. This is the exact property the ShardRunner's
  // shard-ordered merge relies on for --jobs independence.
  Registry a1, b1, c1;
  fill(a1, 1, 10, 5'000'000);
  fill(b1, 2, 30, 17);
  fill(c1, 4, 20, 9'999'999);
  Registry a2, b2, c2;
  fill(a2, 1, 10, 5'000'000);
  fill(b2, 2, 30, 17);
  fill(c2, 4, 20, 9'999'999);

  // left fold: ((a + b) + c)
  a1.merge_from(b1);
  a1.merge_from(c1);
  // right fold: a + (b + c)
  b2.merge_from(c2);
  a2.merge_from(b2);
  EXPECT_EQ(a1.to_json(), a2.to_json());

  Registry x, y;
  fill(x, 1, 10, 5'000'000);
  fill(y, 2, 30, 17);
  Registry x2, y2;
  fill(x2, 1, 10, 5'000'000);
  fill(y2, 2, 30, 17);
  x.merge_from(y);
  y2.merge_from(x2);
  EXPECT_EQ(x.to_json(), y2.to_json());
}

TEST(Registry, SameNameReturnsSameMetric) {
  Registry r;
  Counter& a = r.counter("net.packets");
  r.counter("other");
  Counter& b = r.counter("net.packets");
  EXPECT_EQ(&a, &b);
  a.inc();
  EXPECT_EQ(b.value(), 1u);
}

TEST(Registry, CrossKindNameCollisionDies) {
  Registry r;
  r.counter("x");
  EXPECT_DEATH(r.histogram("x"), "metric name");
}

TEST(Registry, WallClockExcludedFromDeterministicDump) {
  Registry r;
  r.counter("survey.probes_sent").inc(7);
  r.counter("wall.pool.tasks_run").inc(3);
  r.gauge("wall.pool.threads").set(8);
  EXPECT_TRUE(Registry::is_wall_clock("wall.pool.threads"));
  EXPECT_FALSE(Registry::is_wall_clock("survey.rtt"));

  const std::string deterministic = r.to_json(/*include_wall_clock=*/false);
  EXPECT_NE(deterministic.find("survey.probes_sent"), std::string::npos);
  EXPECT_EQ(deterministic.find("wall.pool"), std::string::npos);

  const std::string full = r.to_json(/*include_wall_clock=*/true);
  EXPECT_NE(full.find("wall.pool.tasks_run"), std::string::npos);
  EXPECT_NE(full.find("wall.pool.threads"), std::string::npos);
}

TEST(Registry, JsonShapeIsStable) {
  Registry r;
  r.counter("b.count").inc(2);
  r.counter("a.count").inc(1);
  r.gauge("depth").set(5);
  r.histogram("rtt").observe_us(5'000'000);
  std::ostringstream os;
  r.write_json(os);
  const std::string json = os.str();
  // Keys sorted within each section; histogram carries count/sum/buckets.
  EXPECT_LT(json.find("\"a.count\""), json.find("\"b.count\""));
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"sum_us\": 5000000"), std::string::npos);
  EXPECT_EQ(os.str(), r.to_json());
}

TEST(Json, FixedNotationTable) {
  // Every dump, exposition and reply line renders doubles through
  // json_fixed; these are its exact bytes. Non-finite values render as 0,
  // negative zero keeps its sign, and ties round half to even.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::string e300 =
      "1000000000000000052504760255204420248704468581108159154915854115511802457988908195786371"
      "3750804478640437044438328838781769425232353604305756447921847867069828483872009265758037"
      "3783023379478809005936895323497079994508111903896764088007465274278014249457925878882005"
      "6842838115669472196386865459400540160";
  const struct {
    double value;
    int precision;
    std::string want;
  } cases[] = {
      {0.0, 0, "0"},
      {0.0, 3, "0.000"},
      {0.0, 9, "0.000000000"},
      {-0.0, 0, "-0"},
      {-0.0, 6, "-0.000000"},
      {nan, 0, "0"},
      {nan, 6, "0.000000"},
      {inf, 3, "0.000"},
      {-inf, 9, "0.000000000"},
      {5e-7, 3, "0.000"},
      {5e-7, 6, "0.000000"},  // 5e-7 is stored just below the tie
      {5e-7, 9, "0.000000500"},
      {0.9999995, 0, "1"},
      {0.9999995, 6, "1.000000"},  // stored just above the tie
      {0.9999995, 9, "0.999999500"},
      {0.0078125, 3, "0.008"},
      {0.0078125, 6, "0.007812"},
      {0.0234375, 6, "0.023438"},
      {-2.5, 0, "-2"},
      {1.0 / 3.0, 9, "0.333333333"},
      {1e300, 0, e300},
      {1e300, 3, e300 + ".000"},
      {1e300, 9, e300 + ".000000000"},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(json_fixed(c.value, c.precision), c.want) << c.value << " @" << c.precision;
  }
  EXPECT_EQ(json_fixed(0.5), "0.500000");  // default precision 6
}

TEST(Prometheus, ExpositionFormat) {
  Registry r;
  r.counter("survey.probes_sent").inc(12);
  r.gauge("queue.high_water").set(9);
  r.histogram("survey.rtt").observe(SimTime::seconds(5));
  std::ostringstream os;
  write_prometheus(os, r);
  const std::string text = os.str();
  // Names sanitized to underscores under a turtle_ prefix, TYPE lines
  // present, le buckets cumulative and in seconds, +Inf terminal bucket.
  EXPECT_NE(text.find("# TYPE turtle_survey_probes_sent counter"), std::string::npos);
  EXPECT_NE(text.find("turtle_survey_probes_sent 12"), std::string::npos);
  EXPECT_NE(text.find("turtle_queue_high_water 9"), std::string::npos);
  EXPECT_NE(text.find("turtle_survey_rtt_bucket{le=\"5.000000\"} 1"), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(text.find("turtle_survey_rtt_count 1"), std::string::npos);
}

TEST(Prometheus, ExemplarSuffixAndWindowedSection) {
  Registry r;
  r.counter("serve.offered").inc(100);
  Histogram& latency = r.histogram("serve.latency");
  latency.observe_us(5'000'000);
  latency.observe(SimTime::hours(1));  // overflow bucket

  ExemplarStore exemplars;
  exemplars.record("serve.latency", Histogram::bucket_for_us(5'000'000),
                   {.trace_id = 4'294'967'299, .value_us = 5'000'000, .ts_us = 12'500'000});
  exemplars.record("serve.latency", Histogram::kNumBuckets - 1,
                   {.trace_id = 4'294'967'301, .value_us = 3'600'000'000, .ts_us = 1});

  FlightData flight;
  flight.window_us = 5'000'000;
  FlightFrame frame;
  frame.index = 2;
  frame.start_us = 10'000'000;
  frame.end_us = 15'000'000;
  frame.counters["serve.offered"] = 40;
  frame.histograms["serve.latency"] = [] {
    HistogramSlice slice;
    slice.count = 1;
    slice.sum_us = 5'000'000;
    slice.bucket_counts[Histogram::bucket_for_us(5'000'000)] = 1;
    return slice;
  }();
  flight.frames.push_back(frame);

  std::ostringstream os;
  write_prometheus(os, r, &exemplars, &flight);
  const std::string text = os.str();
  // OpenMetrics exemplar suffix on the exact bucket line (and on +Inf for
  // the overflow bucket), linking the bucket to a traced request.
  EXPECT_NE(text.find("turtle_serve_latency_bucket{le=\"5.000000\"} 1 "
                      "# {trace_id=\"4294967299\"} 5.000000 12.500000"),
            std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\"} 2 # {trace_id=\"4294967301\"}"), std::string::npos);
  // Windowed section: the last closed window's deltas as gauges.
  EXPECT_NE(text.find("turtle_window_start_seconds 10.000000"), std::string::npos);
  EXPECT_NE(text.find("turtle_window_end_seconds 15.000000"), std::string::npos);
  EXPECT_NE(text.find("turtle_serve_offered_window 40"), std::string::npos);
  EXPECT_NE(text.find("turtle_serve_latency_window_count 1"), std::string::npos);
  EXPECT_NE(text.find("turtle_serve_latency_window_sum 5.000000"), std::string::npos);
}

}  // namespace
}  // namespace turtle::obs
