#include "obs/trace.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "test_paths.h"

#include "query/range_query.h"
#include "tiling/aligned.h"

namespace tilestore {
namespace {

using obs::TraceEvent;
using obs::TraceRing;
using obs::TraceScope;

TEST(TraceRingTest, EmitsInOrderAndDrainClears) {
  TraceRing ring(16);
  const uint64_t id = ring.NextTraceId();
  ring.Emit(id, "a", true);
  ring.Emit(id, "b", true);
  ring.Emit(id, "b", false);
  ring.Emit(id, "a", false);

  std::vector<TraceEvent> events = ring.Drain();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_STREQ(events[0].name, "a");
  EXPECT_TRUE(events[0].begin);
  EXPECT_STREQ(events[1].name, "b");
  EXPECT_STREQ(events[2].name, "b");
  EXPECT_FALSE(events[2].begin);
  EXPECT_STREQ(events[3].name, "a");
  EXPECT_FALSE(events[3].begin);
  for (const TraceEvent& e : events) EXPECT_EQ(e.trace_id, id);
  // Timestamps are monotone in emission order.
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].t_us, events[i - 1].t_us);
  }
  EXPECT_TRUE(ring.Drain().empty());
}

TEST(TraceRingTest, OverwritesOldestAndCountsDropped) {
  TraceRing ring(4);
  for (int i = 0; i < 6; ++i) ring.Emit(1, "e", true);
  EXPECT_EQ(ring.dropped(), 2u);
  std::vector<TraceEvent> events = ring.Drain();
  EXPECT_EQ(events.size(), 4u);
  // Drain resets the drop accounting along with the buffer.
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(TraceRingTest, DrainJsonShape) {
  TraceRing ring(8);
  {
    TraceScope span(&ring, ring.NextTraceId(), "probe");
  }
  const std::string json = ring.DrainJson();
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_NE(json.find("\"name\":\"probe\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
}

TEST(TraceScopeTest, NullRingDisablesSpans) {
  // Must not crash or allocate; spans are a no-op without a ring.
  TraceScope span(nullptr, 0, "noop");
}

// ---------------------------------------------------------------------------
// Executor integration: a parallel query emits spans that are properly
// nested per thread.

// Replays each thread's events as a stack machine: every end must match
// the innermost open span of that thread, and every stack must be empty
// at the end. This is exactly "properly nested, non-overlapping spans
// per thread".
void CheckPerThreadNesting(const std::vector<TraceEvent>& events) {
  std::map<uint32_t, std::vector<const char*>> stacks;
  for (const TraceEvent& e : events) {
    std::vector<const char*>& stack = stacks[e.thread_id];
    if (e.begin) {
      stack.push_back(e.name);
    } else {
      ASSERT_FALSE(stack.empty())
          << "end of '" << e.name << "' on thread " << e.thread_id
          << " without an open span";
      EXPECT_STREQ(stack.back(), e.name)
          << "span end does not match innermost open span on thread "
          << e.thread_id;
      stack.pop_back();
    }
  }
  for (const auto& [tid, stack] : stacks) {
    EXPECT_TRUE(stack.empty()) << "unclosed span on thread " << tid;
  }
}

TEST(QueryTraceTest, ParallelQueryEmitsProperlyNestedSpans) {
  const std::string path = UniqueTestPath("trace_test.db");
  RemoveStoreFiles(path);
  MDDStoreOptions store_options;
  store_options.page_size = 512;
  store_options.worker_threads = 4;
  auto store = MDDStore::Create(path, store_options).MoveValue();

  const MInterval domain({{0, 63}, {0, 63}});
  Array data = Array::Create(domain, CellType::Of(CellTypeId::kUInt32)).value();
  ForEachPoint(domain, [&](const Point& p) {
    data.Set<uint32_t>(p, static_cast<uint32_t>(p[0] * 64 + p[1]));
  });
  MDDObject* object =
      store->CreateMDD("obj", domain, data.cell_type()).value();
  ASSERT_TRUE(object->Load(data, AlignedTiling::Regular(2, 2048)).ok());

  (void)store->trace()->Drain();  // only the query's spans from here on

  RangeQueryOptions options;
  options.parallelism = 4;
  RangeQueryExecutor executor(store.get(), options);
  Result<Array> result = executor.Execute(object, domain);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->Equals(data));

  std::vector<TraceEvent> events = store->trace()->Drain();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(store->trace()->dropped(), 0u);

  // All spans belong to the one query's trace.
  const uint64_t trace_id = events.front().trace_id;
  std::map<std::string, int> begins;
  for (const TraceEvent& e : events) {
    EXPECT_EQ(e.trace_id, trace_id);
    if (e.begin) ++begins[e.name];
  }
  // Executor phases appear once; the scheduler emits per-tile spans (the
  // 4096-cell object holds multiple 2 KiB tiles) on the worker threads.
  EXPECT_EQ(begins["query"], 1);
  EXPECT_EQ(begins["index_probe"], 1);
  EXPECT_EQ(begins["fetch"], 1);
  EXPECT_EQ(begins["compose"], 1);
  EXPECT_GT(begins["tile_fetch"], 1);
  EXPECT_EQ(begins["tile_fetch"], begins["tile_decode"]);

  CheckPerThreadNesting(events);

  store.reset();
  RemoveStoreFiles(path);
}

TEST(QueryTraceTest, SerialQuerySpansNestInsideQuerySpan) {
  const std::string path = UniqueTestPath("trace_serial_test.db");
  RemoveStoreFiles(path);
  MDDStoreOptions store_options;
  store_options.page_size = 512;
  auto store = MDDStore::Create(path, store_options).MoveValue();

  const MInterval domain({{0, 31}, {0, 31}});
  Array data = Array::Create(domain, CellType::Of(CellTypeId::kUInt16)).value();
  ForEachPoint(domain, [&](const Point& p) {
    data.Set<uint16_t>(p, static_cast<uint16_t>(p[0] + p[1]));
  });
  MDDObject* object =
      store->CreateMDD("obj", domain, data.cell_type()).value();
  ASSERT_TRUE(object->Load(data, AlignedTiling::Regular(2, 1024)).ok());
  (void)store->trace()->Drain();

  RangeQueryExecutor executor(store.get());
  ASSERT_TRUE(executor.Execute(object, domain).ok());

  std::vector<TraceEvent> events = store->trace()->Drain();
  ASSERT_FALSE(events.empty());
  // Serial path: everything on one thread, "query" strictly outermost.
  const uint32_t tid = events.front().thread_id;
  for (const TraceEvent& e : events) EXPECT_EQ(e.thread_id, tid);
  EXPECT_STREQ(events.front().name, "query");
  EXPECT_TRUE(events.front().begin);
  EXPECT_STREQ(events.back().name, "query");
  EXPECT_FALSE(events.back().begin);
  CheckPerThreadNesting(events);

  store.reset();
  RemoveStoreFiles(path);
}

// The span contract of the executor's one pipeline: every entry point,
// with and without a predicate, serial and parallel, with the tile cache
// on and off, emits exactly one top-level span, one "index_probe", one
// "fetch" and one "compose" — plus one "summary_probe" exactly when a
// predicate is set.
TEST(QueryTraceTest, EveryEntryPointEmitsOneSpanPerPhase) {
  const std::string path = UniqueTestPath("trace_contract_test.db");
  RemoveStoreFiles(path);
  MDDStoreOptions store_options;
  store_options.page_size = 512;
  store_options.worker_threads = 4;
  store_options.tile_cache_bytes = 8u << 20;
  auto store = MDDStore::Create(path, store_options).MoveValue();

  const MInterval domain({{0, 63}, {0, 63}});
  Array data = Array::Create(domain, CellType::Of(CellTypeId::kUInt16)).value();
  ForEachPoint(domain, [&](const Point& p) {
    data.Set<uint16_t>(p, static_cast<uint16_t>(p[0] + p[1]));
  });
  MDDObject* object =
      store->CreateMDD("obj", domain, data.cell_type()).value();
  ASSERT_TRUE(object->Load(data, AlignedTiling::Regular(2, 1024)).ok());

  const MInterval region({{5, 60}, {3, 50}});
  ValuePredicate predicate;
  predicate.kind = ValuePredicate::Kind::kGreater;
  predicate.a = 40;
  for (const bool aggregate : {false, true}) {
    for (const bool filtered : {false, true}) {
      for (const int parallelism : {1, 4}) {
        for (const bool cached : {false, true}) {
          SCOPED_TRACE(std::string(aggregate ? "aggregate" : "execute") +
                       (filtered ? " filtered" : "") + " p=" +
                       std::to_string(parallelism) +
                       (cached ? " cached" : " uncached"));
          RangeQueryOptions options;
          options.parallelism = parallelism;
          options.use_tile_cache = cached;
          if (filtered) options.predicate = predicate;
          RangeQueryExecutor executor(store.get(), options);
          auto run = [&] {
            return aggregate ? executor
                                   .ExecuteAggregate(object, region,
                                                     AggregateOp::kSum)
                                   .status()
                             : executor.Execute(object, region).status();
          };
          if (cached) {
            ASSERT_TRUE(run().ok());  // warm the cache
          }
          (void)store->trace()->Drain();
          ASSERT_TRUE(run().ok());

          std::vector<TraceEvent> events = store->trace()->Drain();
          std::map<std::string, int> begins;
          for (const TraceEvent& e : events) {
            if (e.begin) ++begins[e.name];
          }
          const char* top = !filtered   ? "query"
                            : aggregate ? "filter_aggregate"
                                        : "filter_query";
          EXPECT_EQ(begins[top], 1);
          EXPECT_EQ(begins["query"] + begins["filter_query"] +
                        begins["filter_aggregate"],
                    1);
          EXPECT_EQ(begins["index_probe"], 1);
          EXPECT_EQ(begins["summary_probe"], filtered ? 1 : 0);
          EXPECT_EQ(begins["fetch"], 1);
          EXPECT_EQ(begins["compose"], 1);
          ASSERT_FALSE(events.empty());
          EXPECT_STREQ(events.front().name, top);
          CheckPerThreadNesting(events);
        }
      }
    }
  }

  store.reset();
  RemoveStoreFiles(path);
}

}  // namespace
}  // namespace tilestore
