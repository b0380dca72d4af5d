#ifndef TILESTORE_QUERY_QUERY_STATS_H_
#define TILESTORE_QUERY_QUERY_STATS_H_

#include <cstdint>
#include <string>

namespace tilestore {

/// Cost-model parameters for the non-disk components of query execution,
/// calibrated to the paper's 1997 testbed so the *composition* of query
/// time (t_ix vs t_o vs t_cpu) resembles Figures 7/8:
///  - t_ix: the index resided in the O2 store, so every visited index node
///    costs roughly a (mostly cached) page access;
///  - t_cpu: composing the result passed every retrieved tile byte through
///    the ODMG layer, so post-processing scales with bytes *read* (not
///    just bytes needed) — which is exactly why misaligned regular tiling
///    loses on t_totalcpu in the paper.
struct CostParams {
  double index_node_ms = 1.0;
  double cpu_process_mib_per_s = 25.0;
  double per_tile_cpu_ms = 0.2;
};

/// \brief Per-query measurements, mirroring the time components of
/// Section 6:
///   t_ix  — index lookup time,
///   t_o   — tile retrieval from disk,
///   t_cpu — post-processing (composing tile parts into the result array),
///   t_totalaccess = t_o + t_ix,
///   t_totalcpu    = t_o + t_ix + t_cpu.
///
/// Every component is reported twice: `*_model_ms` from the deterministic
/// 1997-calibrated cost model (the headline numbers of the benchmark
/// tables) and `*_measured_ms` as wall-clock time on the actual hardware.
struct QueryStats {
  // Work counters.
  uint64_t tiles_accessed = 0;
  uint64_t tile_bytes_read = 0;   // payload bytes of all fetched tiles
  uint64_t pages_read = 0;        // physical pages from the page file
  uint64_t seeks = 0;             // non-contiguous page accesses
  uint64_t index_nodes_visited = 0;
  uint64_t result_cells = 0;
  uint64_t result_bytes = 0;
  /// Bytes of fetched tiles that actually fall inside the query region;
  /// tile_bytes_read - useful_bytes is the waste the paper's arbitrary
  /// tiling minimizes.
  uint64_t useful_bytes = 0;

  // Concurrent read-path breakdown.
  /// Worker parallelism used for tile retrieval (1 = the serial
  /// paper-exact path).
  uint64_t parallelism = 1;
  /// Coalesced physical read runs issued by the `TileIOScheduler`; 0 on
  /// the serial path, which reads page by page.
  uint64_t io_runs = 0;
  /// Tiles served from the decoded-tile cache (counted inside
  /// `tiles_accessed`/`tile_bytes_read`; hits skip the page fetch and the
  /// decode but not the traffic accounting).
  uint64_t tilecache_hits = 0;

  // Predicate pushdown (filtered queries only; DESIGN.md §15).
  /// Candidate tiles whose summary was consulted.
  uint64_t summary_probes = 0;
  /// Tiles proven irrelevant by their summary: no fetch, no decode, and no
  /// model charge beyond the (free) summary probe — the pruning the
  /// `bench_filter` A/B measures.
  uint64_t summary_skips = 0;
  /// Tiles that had to be fetched and filtered cell by cell (no summary,
  /// or the summary could not decide).
  uint64_t summary_inspects = 0;

  // Model times (ms).
  double t_ix_model_ms = 0;
  double t_o_model_ms = 0;
  double t_cpu_model_ms = 0;
  double total_access_model_ms() const { return t_ix_model_ms + t_o_model_ms; }
  double total_cpu_model_ms() const {
    return t_ix_model_ms + t_o_model_ms + t_cpu_model_ms;
  }

  // Measured wall-clock times (ms).
  double t_ix_measured_ms = 0;
  double t_o_measured_ms = 0;
  double t_cpu_measured_ms = 0;
  /// Wall clock of the whole fetch step: reads, decode and the per-tile
  /// composition. `t_o_measured_ms` is the read time alone and
  /// `t_cpu_measured_ms` includes decode and composition summed over
  /// workers, so under parallelism their sum exceeds this — the ratio is
  /// the effective overlap.
  double t_o_wall_ms = 0;
  double total_access_measured_ms() const {
    return t_ix_measured_ms + t_o_measured_ms;
  }
  double total_cpu_measured_ms() const {
    return t_ix_measured_ms + t_o_measured_ms + t_cpu_measured_ms;
  }

  /// Accumulates another query's stats (for averaging repeated runs).
  void Add(const QueryStats& other);
  /// Divides all counters/times by `n` (n >= 1).
  void DivideBy(uint64_t n);

  std::string ToString() const;
};

}  // namespace tilestore

#endif  // TILESTORE_QUERY_QUERY_STATS_H_
