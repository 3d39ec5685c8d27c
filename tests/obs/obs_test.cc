// Unit tests for the observability layer: metrics registry semantics, the
// tracer's clock-partition contract, and journal serialization (byte-stable
// write -> parse -> write, hostile-locale independence).

#include <cmath>
#include <locale>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/sim_clock.h"
#include "common/text.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hunter::obs {
namespace {

// --------------------------------------------------------------------------
// MetricsRegistry

TEST(MetricsRegistryTest, NamesFollowRegistrationOrder) {
  MetricsRegistry registry;
  registry.RegisterCounter("b.count");
  registry.RegisterGauge("a.gauge");
  registry.RegisterHistogram("c.hist");
  EXPECT_EQ(registry.Names(),
            (std::vector<std::string>{"b.count", "a.gauge", "c.hist"}));
  EXPECT_EQ(registry.size(), 3u);
}

TEST(MetricsRegistryTest, ReRegisteringSameKindReturnsSameInstrument) {
  MetricsRegistry registry;
  Counter* first = registry.RegisterCounter("retries");
  first->Increment(2.0);
  Counter* second = registry.RegisterCounter("retries");
  ASSERT_EQ(first, second);
  EXPECT_DOUBLE_EQ(second->value(), 2.0);
  EXPECT_EQ(registry.size(), 1u);  // no duplicate schema entry
}

TEST(MetricsRegistryTest, KindMismatchReturnsNull) {
  MetricsRegistry registry;
  ASSERT_NE(registry.RegisterCounter("x"), nullptr);
  EXPECT_EQ(registry.RegisterGauge("x"), nullptr);
  EXPECT_EQ(registry.RegisterHistogram("x"), nullptr);
}

TEST(MetricsRegistryTest, SnapshotReportsEmptyAsNaN) {
  MetricsRegistry registry;
  registry.RegisterGauge("unset");
  registry.RegisterHistogram("empty");
  const std::vector<MetricSnapshot> snap = registry.Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_TRUE(std::isnan(snap[0].value));  // unset gauge
  EXPECT_EQ(snap[1].count, 0u);
  EXPECT_TRUE(std::isnan(snap[1].min));
  EXPECT_TRUE(std::isnan(snap[1].max));
  EXPECT_TRUE(std::isnan(snap[1].p95));
}

TEST(MetricsRegistryTest, HistogramSnapshotSummarizesDistribution) {
  MetricsRegistry registry;
  Histogram* hist = registry.RegisterHistogram("latency");
  for (double v : {10.0, 20.0, 30.0, 40.0}) hist->Observe(v);
  const std::vector<MetricSnapshot> snap = registry.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].count, 4u);
  EXPECT_DOUBLE_EQ(snap[0].mean, 25.0);
  EXPECT_DOUBLE_EQ(snap[0].min, 10.0);
  EXPECT_DOUBLE_EQ(snap[0].max, 40.0);
  EXPECT_DOUBLE_EQ(snap[0].p50, 25.0);
}

// --------------------------------------------------------------------------
// Tracer

TEST(TracerTest, ChargedSpansPartitionTheClock) {
  common::SimClock clock;
  MetricsRegistry registry;
  Journal journal(&clock, &registry);
  Tracer& tracer = journal.tracer();

  tracer.Charge("deploy", "d", 3.0);
  tracer.Charge("execution", "e", 142.5, {{"attempt", "1"}});
  tracer.Span("execution", "detail", 3.0, 100.0);  // must not touch the clock
  tracer.Charge("collection", "c", 0.25);
  tracer.Event("done");

  EXPECT_DOUBLE_EQ(clock.seconds(), 3.0 + 142.5 + 0.25);
  EXPECT_DOUBLE_EQ(tracer.charged_seconds(), clock.seconds());

  double folded = 0.0;
  for (const Record& r : journal.records()) {
    if (r.type == Record::Type::kSpan && r.span.charged) {
      folded += r.span.duration_seconds;
    }
  }
  EXPECT_DOUBLE_EQ(folded, clock.seconds());
}

TEST(TracerTest, ChargeRecordsStartBeforeAdvancing) {
  common::SimClock clock;
  Journal journal(&clock, nullptr);
  journal.tracer().Charge("deploy", "a", 2.0);
  journal.tracer().Charge("deploy", "b", 5.0);
  ASSERT_EQ(journal.records().size(), 2u);
  EXPECT_DOUBLE_EQ(journal.records()[0].span.start_seconds, 0.0);
  EXPECT_DOUBLE_EQ(journal.records()[1].span.start_seconds, 2.0);
}

TEST(TracerTest, NegativeChargeClampsToZeroLikeSimClock) {
  common::SimClock clock;
  Journal journal(&clock, nullptr);
  journal.tracer().Charge("deploy", "bogus", -4.0);
  EXPECT_DOUBLE_EQ(clock.seconds(), 0.0);
  ASSERT_EQ(journal.records().size(), 1u);
  EXPECT_DOUBLE_EQ(journal.records()[0].span.duration_seconds, 0.0);
}

// --------------------------------------------------------------------------
// Journal serialization

std::string WriteToString(const Journal& journal) {
  std::ostringstream os;
  journal.Write(os);
  return os.str();
}

// Fills a journal with one record of every flavour. The journal owns a
// tracer pointing back at itself, so it is populated in place rather than
// returned by value.
void PopulateSmallJournal(Journal* journal, MetricsRegistry* registry) {
  registry->RegisterCounter("rounds")->Increment();
  registry->RegisterGauge("unset_gauge");
  registry->RegisterHistogram("empty_hist");
  journal->tracer().Charge("deploy", "clone0_deploy", 3.0,
                           {{"config", "0"}, {"attempt", "1"}});
  journal->tracer().Span("execution", "clone1_stress", 0.5, 1.25);
  journal->tracer().Event("crash", {{"clone", "1"}});
  journal->SnapshotMetrics("batch0");
}

TEST(JournalTest, WriteParseWriteIsByteIdentical) {
  common::SimClock clock;
  MetricsRegistry registry;
  Journal journal(&clock, &registry, {{"seed", "7"}});
  PopulateSmallJournal(&journal, &registry);
  const std::string first = WriteToString(journal);
  ASSERT_FALSE(first.empty());
  EXPECT_NE(first.find(kJournalSchema), std::string::npos);

  std::istringstream in(first);
  ParsedJournal parsed;
  std::string error;
  ASSERT_TRUE(ParseJournal(in, &parsed, &error)) << error;
  EXPECT_EQ(parsed.schema, kJournalSchema);
  EXPECT_EQ(parsed.records.size(), journal.records().size());

  std::ostringstream out;
  WriteParsed(parsed, out);
  EXPECT_EQ(out.str(), first);
}

TEST(JournalTest, NonFiniteMetricsSurviveRoundTrip) {
  common::SimClock clock;
  MetricsRegistry registry;
  registry.RegisterGauge("never_set");  // snapshots as NaN
  Journal journal(&clock, &registry);
  journal.SnapshotMetrics("s");
  const std::string text = WriteToString(journal);
  EXPECT_NE(text.find("\"NaN\""), std::string::npos);

  std::istringstream in(text);
  ParsedJournal parsed;
  std::string error;
  ASSERT_TRUE(ParseJournal(in, &parsed, &error)) << error;
  ASSERT_EQ(parsed.records.size(), 1u);
  ASSERT_EQ(parsed.records[0].metrics.size(), 1u);
  EXPECT_TRUE(std::isnan(parsed.records[0].metrics[0].value));
}

TEST(JournalTest, BytesIgnoreHostileGlobalLocale) {
  class CommaNumpunct : public std::numpunct<char> {
   protected:
    char do_decimal_point() const override { return ','; }
    std::string do_grouping() const override { return "\3"; }
  };

  common::SimClock clock_a;
  MetricsRegistry registry_a;
  Journal classic(&clock_a, &registry_a, {{"seed", "7"}});
  PopulateSmallJournal(&classic, &registry_a);
  const std::string classic_bytes = WriteToString(classic);

  const std::locale saved = std::locale::global(
      std::locale(std::locale::classic(), new CommaNumpunct));
  common::SimClock clock_b;
  MetricsRegistry registry_b;
  Journal comma(&clock_b, &registry_b, {{"seed", "7"}});
  PopulateSmallJournal(&comma, &registry_b);
  const std::string comma_bytes = WriteToString(comma);

  std::istringstream in(classic_bytes);
  ParsedJournal parsed;
  std::string error;
  const bool parse_ok = ParseJournal(in, &parsed, &error);
  std::locale::global(saved);

  EXPECT_EQ(comma_bytes, classic_bytes);
  ASSERT_TRUE(parse_ok) << error;
}

TEST(JournalTest, EscapesStringsInAttrs) {
  common::SimClock clock;
  Journal journal(&clock, nullptr,
                  {{"note", "quote \" backslash \\ newline \n tab \t"}});
  const std::string text = WriteToString(journal);
  EXPECT_NE(text.find("quote \\\" backslash \\\\ newline \\n tab \\t"),
            std::string::npos);

  std::istringstream in(text);
  ParsedJournal parsed;
  std::string error;
  ASSERT_TRUE(ParseJournal(in, &parsed, &error)) << error;
  ASSERT_EQ(parsed.meta.size(), 1u);
  EXPECT_EQ(parsed.meta[0].value, "quote \" backslash \\ newline \n tab \t");
}

TEST(JournalTest, RejectsHistogramCountsThatAreNotWholeNumbers) {
  common::SimClock clock;
  MetricsRegistry registry;
  Histogram* hist = registry.RegisterHistogram("latency");
  for (double v : {10.0, 20.0, 30.0}) hist->Observe(v);
  Journal journal(&clock, &registry);
  journal.SnapshotMetrics("s");
  const std::string text = WriteToString(journal);
  const std::string whole = "\"count\":3,";
  const size_t at = text.find(whole);
  ASSERT_NE(at, std::string::npos) << text;

  // Each of these would cast to a different count (or undefined
  // behaviour) and come back out as different bytes. The metrics record
  // is line 2.
  for (const char* bad :
       {"-1", "\"NaN\"", "1e300", "\"Infinity\"", "1.5"}) {
    std::string edited = text;
    edited.replace(at, whole.size(), std::string("\"count\":") + bad + ",");
    std::istringstream in(edited);
    ParsedJournal parsed;
    std::string error;
    EXPECT_FALSE(ParseJournal(in, &parsed, &error)) << bad;
    EXPECT_EQ(error.rfind("line 2: ", 0), 0u) << bad << ": " << error;
  }

  // A whole count still round-trips byte for byte.
  std::istringstream in(text);
  ParsedJournal parsed;
  std::string error;
  ASSERT_TRUE(ParseJournal(in, &parsed, &error)) << error;
  ASSERT_EQ(parsed.records.size(), 1u);
  ASSERT_EQ(parsed.records[0].metrics.size(), 1u);
  EXPECT_EQ(parsed.records[0].metrics[0].count, 3u);
  std::ostringstream out;
  WriteParsed(parsed, out);
  EXPECT_EQ(out.str(), text);
}

TEST(JournalTest, FormatDouble17RoundTripsAwkwardValues) {
  // The journal renders every double with FormatDouble17; shortest-17
  // round-trip means parse(format(x)) == x for any finite x, which is what
  // keeps Write -> Parse -> Write byte-stable on real (non-curated) data.
  for (double v : {142.7, 0.1 + 0.2, 1e-300, -3.0e21, 5908.0977}) {
    const std::string s = common::FormatDouble17(v);
    double back = 0.0;
    std::istringstream is(s);
    is >> back;
    EXPECT_EQ(back, v) << s;
  }
}

}  // namespace
}  // namespace hunter::obs
