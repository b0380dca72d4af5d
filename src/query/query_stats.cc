#include "query/query_stats.h"

#include <sstream>

namespace tilestore {

void QueryStats::Add(const QueryStats& other) {
  tiles_accessed += other.tiles_accessed;
  tile_bytes_read += other.tile_bytes_read;
  pages_read += other.pages_read;
  seeks += other.seeks;
  index_nodes_visited += other.index_nodes_visited;
  result_cells += other.result_cells;
  result_bytes += other.result_bytes;
  useful_bytes += other.useful_bytes;
  parallelism = parallelism > other.parallelism ? parallelism
                                                : other.parallelism;
  io_runs += other.io_runs;
  tilecache_hits += other.tilecache_hits;
  summary_probes += other.summary_probes;
  summary_skips += other.summary_skips;
  summary_inspects += other.summary_inspects;
  t_ix_model_ms += other.t_ix_model_ms;
  t_o_model_ms += other.t_o_model_ms;
  t_cpu_model_ms += other.t_cpu_model_ms;
  t_ix_measured_ms += other.t_ix_measured_ms;
  t_o_measured_ms += other.t_o_measured_ms;
  t_cpu_measured_ms += other.t_cpu_measured_ms;
  t_o_wall_ms += other.t_o_wall_ms;
}

void QueryStats::DivideBy(uint64_t n) {
  if (n == 0) return;
  tiles_accessed /= n;
  tile_bytes_read /= n;
  pages_read /= n;
  seeks /= n;
  index_nodes_visited /= n;
  result_cells /= n;
  result_bytes /= n;
  useful_bytes /= n;
  io_runs /= n;
  tilecache_hits /= n;
  summary_probes /= n;
  summary_skips /= n;
  summary_inspects /= n;
  const double dn = static_cast<double>(n);
  t_ix_model_ms /= dn;
  t_o_model_ms /= dn;
  t_cpu_model_ms /= dn;
  t_ix_measured_ms /= dn;
  t_o_measured_ms /= dn;
  t_cpu_measured_ms /= dn;
  t_o_wall_ms /= dn;
}

std::string QueryStats::ToString() const {
  std::ostringstream os;
  os << "tiles=" << tiles_accessed << " read=" << tile_bytes_read
     << "B (useful " << useful_bytes << "B) cache_hits=" << tilecache_hits
     << " pages=" << pages_read;
  if (summary_probes > 0 || summary_skips > 0 || summary_inspects > 0) {
    os << " summ_probes=" << summary_probes << " summ_skips=" << summary_skips
       << " summ_inspects=" << summary_inspects;
  }
  os << " seeks=" << seeks << " ix_nodes=" << index_nodes_visited
     << " | model ms: ix=" << t_ix_model_ms << " o=" << t_o_model_ms
     << " cpu=" << t_cpu_model_ms << " | measured ms: ix="
     << t_ix_measured_ms << " o=" << t_o_measured_ms << " cpu="
     << t_cpu_measured_ms;
  return os.str();
}

}  // namespace tilestore
