// End-to-end checks of the observability contract (DESIGN.md §8): the
// legacy per-component stats are views over the store registry, every
// instrumented layer populates `MDDStore::metrics()`, `QueryStats`
// reconciles with registry deltas, and the instrumentation never
// perturbs the paper's deterministic model costs.

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "test_paths.h"

#include "query/range_query.h"
#include "storage/buffer_pool.h"
#include "storage/txn.h"
#include "tiling/aligned.h"

namespace tilestore {
namespace {

class ObservabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = UniqueTestPath("obs_integration_test.db");
    RemoveStoreFiles(path_);
    MDDStoreOptions options;
    options.page_size = 512;
    options.worker_threads = 4;
    store_ = MDDStore::Create(path_, options).MoveValue();
  }
  void TearDown() override {
    store_.reset();
    RemoveStoreFiles(path_);
  }

  static Array PatternArray(const MInterval& domain) {
    Array arr =
        Array::Create(domain, CellType::Of(CellTypeId::kUInt32)).value();
    uint32_t v = 1;
    ForEachPoint(domain,
                 [&](const Point& p) { arr.Set<uint32_t>(p, v *= 2654435761u); });
    return arr;
  }

  MDDObject* LoadObject(const std::string& name, const Array& data) {
    MDDObject* obj =
        store_->CreateMDD(name, data.domain(), data.cell_type()).value();
    Status st = obj->Load(data, AlignedTiling::Regular(2, 2048));
    EXPECT_TRUE(st.ok()) << st;
    return obj;
  }

  // Sum of the buffer pool's per-stripe `bufferpool.shard<i>.<what>`.
  uint64_t PoolCount(const obs::MetricsSnapshot& snap,
                     const std::string& what) const {
    uint64_t total = 0;
    for (size_t i = 0; i < store_->buffer_pool()->shard_count(); ++i) {
      total += snap.counter("bufferpool.shard" + std::to_string(i) + "." +
                            what);
    }
    return total;
  }

  // Load + serial query + parallel query + checkpoint: touches every
  // instrumented layer of the store.
  MDDObject* RunMixedWorkload() {
    const MInterval domain({{0, 63}, {0, 63}});
    Array data = PatternArray(domain);
    MDDObject* obj = LoadObject("obj", data);
    // Drop cached pages so the queries also exercise physical reads.
    store_->buffer_pool()->Clear();
    RangeQueryExecutor serial(store_.get());
    EXPECT_TRUE(serial.Execute(obj, domain).ok());
    RangeQueryOptions parallel_options;
    parallel_options.parallelism = 4;
    RangeQueryExecutor parallel(store_.get(), parallel_options);
    EXPECT_TRUE(parallel.Execute(obj, domain).ok());
    EXPECT_TRUE(store_->Checkpoint().ok());
    return obj;
  }

  std::string path_;
  std::unique_ptr<MDDStore> store_;
};

// The acceptance criterion of the observability PR: after a mixed
// workload, all five instrumented layers report into the one registry
// snapshot exposed by MDDStore::metrics().
TEST_F(ObservabilityTest, AllLayersPopulateStoreSnapshot) {
  RunMixedWorkload();
  const obs::MetricsSnapshot snap = store_->metrics()->Snapshot();

  // PageFile.
  EXPECT_GT(snap.counter("pagefile.reads"), 0u);
  EXPECT_GT(snap.counter("pagefile.writes"), 0u);
  EXPECT_GT(snap.counter("pagefile.bytes_read"), 0u);
  EXPECT_GT(snap.counter("pagefile.bytes_written"), 0u);
  EXPECT_GT(snap.counter("pagefile.fsyncs"), 0u);
  EXPECT_GT(snap.counter("pagefile.seeks"), 0u);

  // BufferPool (per-stripe counters).
  uint64_t pool_hits = 0, pool_misses = 0;
  for (size_t i = 0; i < store_->buffer_pool()->shard_count(); ++i) {
    const std::string prefix = "bufferpool.shard" + std::to_string(i);
    pool_hits += snap.counter(prefix + ".hits");
    pool_misses += snap.counter(prefix + ".misses");
  }
  EXPECT_GT(pool_hits + pool_misses, 0u);

  // TileIOScheduler (driven by the parallel query).
  EXPECT_GT(snap.counter("scheduler.batches"), 0u);
  EXPECT_GT(snap.counter("scheduler.tiles"), 0u);
  ASSERT_EQ(snap.histograms.count("scheduler.batch_tiles"), 1u);
  EXPECT_GT(snap.histograms.at("scheduler.batch_tiles").count, 0u);
  EXPECT_EQ(snap.gauge("scheduler.queue_depth"), 0);  // settled when idle

  // WAL / transactions.
  EXPECT_GT(snap.counter("wal.appends"), 0u);
  EXPECT_GT(snap.counter("wal.syncs"), 0u);
  EXPECT_GT(snap.counter("txn.commits"), 0u);
  EXPECT_GT(snap.counter("txn.checkpoints"), 0u);

  // Index + query layer.
  EXPECT_GT(snap.counter("index.nodes_visited"), 0u);
  EXPECT_EQ(snap.counter("query.executed"), 2u);
  EXPECT_EQ(snap.counter("index.probes"), 2u);

  // Disk model mirrors (integer counters + bit-exact ms gauges).
  EXPECT_GT(snap.counter("disk.pages_written"), 0u);
  const double write_ms = store_->disk_model()->write_ms();
  const double gauge_ms = snap.double_gauge("disk.write_ms");
  EXPECT_EQ(std::memcmp(&write_ms, &gauge_ms, sizeof(double)), 0);
}

// The per-component accessors are thin views over the registry —
// identical values, not parallel bookkeeping. (The buffer pool and the
// transaction manager have no accessors: their counters live only in the
// registry.)
TEST_F(ObservabilityTest, LegacyShimsEqualRegistryValues) {
  RunMixedWorkload();
  const obs::MetricsSnapshot snap = store_->metrics()->Snapshot();

  // Every stripe of the pool has its counters; the workload both hit and
  // missed.
  EXPECT_GT(PoolCount(snap, "hits"), 0u);
  EXPECT_GT(PoolCount(snap, "misses"), 0u);

  // DiskModel accessors == disk.* registry counters.
  const DiskModel* model = store_->disk_model();
  EXPECT_EQ(model->pages_read(), snap.counter("disk.pages_read"));
  EXPECT_EQ(model->pages_written(), snap.counter("disk.pages_written"));
  EXPECT_EQ(model->bytes_read(), snap.counter("disk.bytes_read"));
  EXPECT_EQ(model->bytes_written(), snap.counter("disk.bytes_written"));
  EXPECT_EQ(model->read_seeks(), snap.counter("disk.read_seeks"));
  EXPECT_EQ(model->write_seeks(), snap.counter("disk.write_seeks"));
  EXPECT_EQ(model->wal_appends(), snap.counter("disk.wal_appends"));
  EXPECT_EQ(model->wal_bytes(), snap.counter("disk.wal_bytes"));
  EXPECT_EQ(model->fsyncs(), snap.counter("disk.fsyncs"));

  // TxnManager has no accessors either: txn.* live only in the registry.
  // The workload's load commits once, nothing aborts, and it checkpoints
  // once.
  ASSERT_NE(store_->txn_manager(), nullptr);
  EXPECT_EQ(snap.counter("txn.commits"), 1u);
  EXPECT_EQ(snap.counter("txn.aborts"), 0u);
  EXPECT_EQ(snap.counter("txn.checkpoints"), 1u);
}

// ResetCounters()/Reset() zero only the owning component's slice of the
// shared registry, never its neighbours'.
TEST_F(ObservabilityTest, ComponentResetsAreScoped) {
  RunMixedWorkload();
  const obs::MetricsSnapshot before = store_->metrics()->Snapshot();
  ASSERT_GT(before.counter("wal.appends"), 0u);

  store_->buffer_pool()->ResetCounters();
  store_->disk_model()->Reset();

  const obs::MetricsSnapshot after = store_->metrics()->Snapshot();
  EXPECT_EQ(PoolCount(after, "hits"), 0u);
  EXPECT_EQ(PoolCount(after, "misses"), 0u);
  EXPECT_EQ(store_->disk_model()->pages_read(), 0u);
  EXPECT_EQ(after.counter("disk.pages_read"), 0u);
  // Neighbours are untouched.
  EXPECT_EQ(after.counter("wal.appends"), before.counter("wal.appends"));
  EXPECT_EQ(after.counter("txn.commits"), before.counter("txn.commits"));
  EXPECT_EQ(after.counter("pagefile.reads"), before.counter("pagefile.reads"));
}

// Satellite: QueryStats storage counters are deltas of the same registry
// counters — a snapshot taken around a physically cold query reconciles
// exactly with its QueryStats.
TEST_F(ObservabilityTest, ColdQueryStatsMatchRegistryDeltas) {
  const MInterval domain({{0, 63}, {0, 63}});
  Array data = PatternArray(domain);
  MDDObject* obj = LoadObject("obj", data);

  // Make the next warm-option query physically cold without resetting
  // anything between the two snapshots (a mid-window reset would break
  // delta reconciliation — that is exactly what this test documents).
  store_->buffer_pool()->Clear();
  const obs::MetricsSnapshot before = store_->metrics()->Snapshot();

  RangeQueryExecutor executor(store_.get());
  QueryStats stats;
  ASSERT_TRUE(executor.Execute(obj, domain, &stats).ok());

  const obs::MetricsSnapshot after = store_->metrics()->Snapshot();
  EXPECT_GT(stats.pages_read, 0u);
  EXPECT_EQ(stats.pages_read, after.CounterDelta(before, "disk.pages_read"));
  EXPECT_EQ(stats.seeks, after.CounterDelta(before, "disk.read_seeks"));
  EXPECT_EQ(stats.index_nodes_visited,
            after.CounterDelta(before, "index.nodes_visited"));
  EXPECT_EQ(after.CounterDelta(before, "query.executed"), 1u);
}

// Acceptance criterion: with all instrumentation live, a cold serial
// query charges exactly the same deterministic model costs on every run —
// metrics and tracing never perturb the paper's numbers.
TEST_F(ObservabilityTest, ColdQueryModelCostsAreBitIdenticalAcrossRuns) {
  const MInterval domain({{0, 63}, {0, 63}});
  Array data = PatternArray(domain);
  MDDObject* obj = LoadObject("obj", data);

  RangeQueryOptions options;
  options.cold = true;
  RangeQueryExecutor executor(store_.get(), options);
  const MInterval region({{5, 48}, {10, 60}});

  QueryStats first, second;
  ASSERT_TRUE(executor.Execute(obj, region, &first).ok());
  ASSERT_TRUE(executor.Execute(obj, region, &second).ok());

  EXPECT_GT(first.t_o_model_ms, 0.0);
  EXPECT_EQ(std::memcmp(&first.t_ix_model_ms, &second.t_ix_model_ms,
                        sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(&first.t_o_model_ms, &second.t_o_model_ms,
                        sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(&first.t_cpu_model_ms, &second.t_cpu_model_ms,
                        sizeof(double)),
            0);
  EXPECT_EQ(first.pages_read, second.pages_read);
  EXPECT_EQ(first.seeks, second.seeks);

  // The registry's ms gauge carries the model accumulator's exact bits.
  const obs::MetricsSnapshot snap = store_->metrics()->Snapshot();
  const double read_ms = store_->disk_model()->read_ms();
  const double gauge_ms = snap.double_gauge("disk.read_ms");
  EXPECT_EQ(std::memcmp(&read_ms, &gauge_ms, sizeof(double)), 0);
}

}  // namespace
}  // namespace tilestore
