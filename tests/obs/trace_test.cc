#include "obs/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/thread_pool.h"

namespace vadasa::obs {
namespace {

/// Restores the previous global pool size on scope exit.
struct ScopedThreads {
  explicit ScopedThreads(size_t n) : previous(ThreadPool::SetGlobalThreads(n)) {}
  ~ScopedThreads() { ThreadPool::SetGlobalThreads(previous); }
  size_t previous;
};

std::vector<SpanEvent> SpansNamed(const std::vector<SpanEvent>& spans,
                                  const std::string& name) {
  std::vector<SpanEvent> out;
  for (const SpanEvent& s : spans) {
    if (name == s.name) out.push_back(s);
  }
  return out;
}

/// Per-thread well-formedness: any two spans recorded on the same thread are
/// either disjoint or fully nested — a partial overlap means the stack
/// discipline broke.
void ExpectWellFormedPerThread(const std::vector<SpanEvent>& spans) {
  std::map<uint32_t, std::vector<SpanEvent>> by_tid;
  for (const SpanEvent& s : spans) {
    EXPECT_LE(s.start_ns, s.end_ns);
    by_tid[s.tid].push_back(s);
  }
  for (const auto& [tid, list] : by_tid) {
    (void)tid;
    for (size_t i = 0; i < list.size(); ++i) {
      for (size_t j = i + 1; j < list.size(); ++j) {
        const SpanEvent& a = list[i];
        const SpanEvent& b = list[j];
        const bool disjoint = a.end_ns <= b.start_ns || b.end_ns <= a.start_ns;
        const bool a_in_b = b.start_ns <= a.start_ns && a.end_ns <= b.end_ns;
        const bool b_in_a = a.start_ns <= b.start_ns && b.end_ns <= a.end_ns;
        EXPECT_TRUE(disjoint || a_in_b || b_in_a)
            << "partial overlap between '" << a.name << "' [" << a.start_ns << ", "
            << a.end_ns << "] and '" << b.name << "' [" << b.start_ns << ", "
            << b.end_ns << "] on tid " << a.tid;
      }
    }
  }
}

TEST(TraceTest, DisabledTracerRecordsNothing) {
  StartTracing();
  StopTracing();
  { Span span("ignored"); }
  EXPECT_TRUE(CollectSpans().empty());
  EXPECT_FALSE(TracingEnabled());
}

TEST(TraceTest, NestedSpansRecordParentChain) {
  StartTracing();
  {
    Span outer("outer");
    { Span inner("inner"); }
  }
  StopTracing();
  const auto spans = CollectSpans();
  const auto outer = SpansNamed(spans, "outer");
  const auto inner = SpansNamed(spans, "inner");
  ASSERT_EQ(outer.size(), 1u);
  ASSERT_EQ(inner.size(), 1u);
  EXPECT_EQ(outer[0].parent, 0u);
  EXPECT_EQ(inner[0].parent, outer[0].id);
  EXPECT_NE(inner[0].id, outer[0].id);
  ExpectWellFormedPerThread(spans);
}

TEST(TraceTest, ParallelForShardSpansParentToSubmitterSpan) {
  ScopedThreads threads(4);
  constexpr size_t kShards = 32;
  StartTracing();
  {
    Span outer("submit");
    ThreadPool::Global().ParallelFor(0, kShards, 1,
                                     [](size_t lo, size_t hi, size_t) {
                                       for (size_t i = lo; i < hi; ++i) {
                                         Span shard("shard");
                                       }
                                     });
  }
  StopTracing();
  const auto spans = CollectSpans();
  const auto submit = SpansNamed(spans, "submit");
  const auto shards = SpansNamed(spans, "shard");
  ASSERT_EQ(submit.size(), 1u);
  ASSERT_EQ(shards.size(), kShards);

  // Every shard span — whether it ran on the submitting thread or on a pool
  // worker — is parented to the span that was open at the ParallelFor call.
  std::set<uint32_t> tids;
  for (const SpanEvent& s : shards) {
    EXPECT_EQ(s.parent, submit[0].id);
    tids.insert(s.tid);
  }
  // No orphans beyond the expected names, no overlapping spans per thread.
  ExpectWellFormedPerThread(spans);

  // Span ids are unique across threads.
  std::set<uint64_t> ids;
  for (const SpanEvent& s : spans) {
    EXPECT_TRUE(ids.insert(s.id).second) << "duplicate span id " << s.id;
  }
}

TEST(TraceTest, WorkerContextIsRestoredBetweenJobs) {
  ScopedThreads threads(4);
  StartTracing();
  {
    Span first("first");
    ThreadPool::Global().ParallelFor(0, 16, 1, [](size_t, size_t, size_t) {
      Span shard("shard_a");
    });
  }
  {
    Span second("second");
    ThreadPool::Global().ParallelFor(0, 16, 1, [](size_t, size_t, size_t) {
      Span shard("shard_b");
    });
  }
  StopTracing();
  const auto spans = CollectSpans();
  const auto first = SpansNamed(spans, "first");
  const auto second = SpansNamed(spans, "second");
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(second.size(), 1u);
  for (const SpanEvent& s : SpansNamed(spans, "shard_a")) {
    EXPECT_EQ(s.parent, first[0].id);
  }
  for (const SpanEvent& s : SpansNamed(spans, "shard_b")) {
    EXPECT_EQ(s.parent, second[0].id);
  }
  ExpectWellFormedPerThread(spans);
}

TEST(TraceTest, StartTracingClearsPreviousSpans) {
  StartTracing();
  { Span span("old"); }
  StartTracing();
  { Span span("new"); }
  StopTracing();
  const auto spans = CollectSpans();
  EXPECT_TRUE(SpansNamed(spans, "old").empty());
  EXPECT_EQ(SpansNamed(spans, "new").size(), 1u);
}

TEST(TraceIdTest, HexRoundTripAndMalformedInput) {
  EXPECT_EQ(TraceIdToHex(0), "0000000000000000");
  EXPECT_EQ(TraceIdToHex(0xdeadbeef12345678ULL), "deadbeef12345678");
  EXPECT_EQ(TraceIdFromHex("deadbeef12345678"), 0xdeadbeef12345678ULL);
  EXPECT_EQ(TraceIdFromHex(TraceIdToHex(42)), 42u);
  EXPECT_EQ(TraceIdFromHex(""), 0u);
  EXPECT_EQ(TraceIdFromHex("deadbeef"), 0u);           // Too short.
  EXPECT_EQ(TraceIdFromHex("DEADBEEF12345678"), 0u);   // Uppercase rejected.
  EXPECT_EQ(TraceIdFromHex("xeadbeef12345678"), 0u);   // Bad digit.
}

TEST(TraceIdTest, SeededMintingIsDeterministicAndNonzero) {
  SeedTraceIds(1234);
  const uint64_t a = MintTraceId();
  const uint64_t b = MintTraceId();
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
  SeedTraceIds(1234);
  EXPECT_EQ(MintTraceId(), a);
  EXPECT_EQ(MintTraceId(), b);
}

TEST(TraceIdTest, ScopedTraceIdInstallsAndRestores) {
  EXPECT_EQ(CurrentTraceId(), 0u);
  {
    ScopedTraceId outer(7);
    EXPECT_EQ(CurrentTraceId(), 7u);
    {
      ScopedTraceId inner(9);
      EXPECT_EQ(CurrentTraceId(), 9u);
    }
    EXPECT_EQ(CurrentTraceId(), 7u);
  }
  EXPECT_EQ(CurrentTraceId(), 0u);
}

TEST(TraceIdTest, SpansRecordTheInstalledTraceId) {
  StartTracing();
  {
    ScopedTraceId trace(11);
    Span traced("traced");
  }
  { Span untraced("untraced"); }
  StopTracing();
  const auto spans = CollectSpans();
  ASSERT_EQ(SpansNamed(spans, "traced").size(), 1u);
  ASSERT_EQ(SpansNamed(spans, "untraced").size(), 1u);
  EXPECT_EQ(SpansNamed(spans, "traced")[0].trace, 11u);
  EXPECT_EQ(SpansNamed(spans, "untraced")[0].trace, 0u);
}

TEST(TraceIdTest, ParallelForCarriesTraceIdToShards) {
  ScopedThreads threads(4);
  constexpr size_t kShards = 32;
  StartTracing();
  {
    ScopedTraceId trace(21);
    Span outer("submit");
    ThreadPool::Global().ParallelFor(0, kShards, 1,
                                     [](size_t, size_t, size_t) {
                                       Span shard("shard");
                                     });
  }
  StopTracing();
  const auto shards = SpansNamed(CollectSpans(), "shard");
  ASSERT_EQ(shards.size(), kShards);
  for (const SpanEvent& s : shards) EXPECT_EQ(s.trace, 21u);
}

TEST(TraceIdTest, EmitSpanRecordsCompletedSpanWithContext) {
  StartTracing();
  {
    ScopedTraceId trace(33);
    Span open("open");
    EmitSpan("manual", 100, 250);
  }
  StopTracing();
  const auto spans = CollectSpans();
  const auto manual = SpansNamed(spans, "manual");
  const auto open = SpansNamed(spans, "open");
  ASSERT_EQ(manual.size(), 1u);
  ASSERT_EQ(open.size(), 1u);
  EXPECT_EQ(manual[0].start_ns, 100);
  EXPECT_EQ(manual[0].end_ns, 250);
  EXPECT_EQ(manual[0].trace, 33u);
  EXPECT_EQ(manual[0].parent, open[0].id);
  EXPECT_NE(manual[0].id, open[0].id);
}

TEST(TraceIdTest, ChromeExportCarriesTraceHex) {
  StartTracing();
  {
    ScopedTraceId trace(TraceIdFromHex("00000000000000ff"));
    Span span("traced.phase");
  }
  StopTracing();
  const std::string json = ToChromeTraceJson();
  EXPECT_NE(json.find("\"trace\": \"00000000000000ff\""), std::string::npos);
}

TEST(TraceTest, ChromeTraceJsonIsWellFormed) {
  StartTracing();
  {
    Span outer("engine.run");
    { Span inner("engine.round"); }
  }
  StopTracing();
  const std::string json = ToChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\": ["), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"M\""), std::string::npos);  // thread_name meta.
  EXPECT_NE(json.find("\"engine.run\""), std::string::npos);
  EXPECT_NE(json.find("\"engine.round\""), std::string::npos);
  // Balanced braces/brackets (cheap structural sanity; CI validates with a
  // real JSON parser).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

}  // namespace
}  // namespace vadasa::obs
