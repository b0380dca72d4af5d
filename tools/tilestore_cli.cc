// tilestore_cli — command-line front end to the storage manager.
//
//   tilestore_cli create <db>
//   tilestore_cli ls     <db>
//   tilestore_cli info   <db> <object>
//   tilestore_cli import <db> <object> <raw-file> <domain> <cell-type>
//                        [--max-tile-kb=N] [--config=[..]] [--rle]
//   tilestore_cli export <db> <object> <region> <out-file>
//   tilestore_cli query  <db> "<rasql>"
//   tilestore_cli filter-query <db|host:port> <object> <region> "<pred>"
//   tilestore_cli advise <db> <object> <access-log-file>
//   tilestore_cli compact <db|host:port> <object>
//   tilestore_cli stats  <db>
//   tilestore_cli drop   <db> <object>
//   tilestore_cli serve  <db> [--port=N] [--max-inflight=N] ...
//   tilestore_cli --help
//
// <domain>/<region> use the paper notation, e.g. "[0:1023,0:767]".
// <cell-type> is one of uint8..int64, float32/64, rgb8.
// Import tiling: regular aligned by default; --config gives the aligned
// tile configuration (e.g. "[*,1]"); --max-tile-kb caps the tile size;
// --rle enables selective RLE compression.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "tilestore.h"

namespace tilestore {
namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

void PrintHelp(std::FILE* out) {
  std::fprintf(
      out,
      "usage: tilestore_cli <subcommand> ...\n"
      "\n"
      "Store management:\n"
      "  create <db>                          create an empty store\n"
      "  ls     <db>                          list MDD objects\n"
      "  info   <db> <object>                 object metadata and tiling\n"
      "  stats  <db>                          store-wide size statistics\n"
      "  drop   <db> <object>                 drop an object\n"
      "\n"
      "Data in / out:\n"
      "  import <db> <object> <raw-file> <domain> <cell-type>\n"
      "         [--max-tile-kb=N] [--config=[..]] [--rle]\n"
      "                                       load a raw array, tiling it\n"
      "  export <db> <object> <region> <out-file>\n"
      "                                       run a range query to a file\n"
      "\n"
      "Queries and tuning:\n"
      "  query  <db> \"select ... from ...\"    run a rasQL query\n"
      "  filter-query <db|host:port> <object> <region> \"<pred>\"\n"
      "                                       range query with a value\n"
      "                                       predicate pushed down to the\n"
      "                                       per-tile summaries; <pred> is\n"
      "                                       \"v<C\", \"v>C\", \"v==C\" or\n"
      "                                       \"v in [A,B]\" (DESIGN.md \xC2\xA7"
      "15)\n"
      "  advise <db> <object> <access-log>    tiling advice from a log\n"
      "  retile <host:port> <object>          ask a running server to\n"
      "                                       re-tile the object against\n"
      "                                       its recorded workload\n"
      "  compact <db|host:port> <object>      rewrite the object's tile\n"
      "                                       blobs into SFC-contiguous\n"
      "                                       page runs (offline on a db\n"
      "                                       path, online via a server)\n"
      "\n"
      "Serving (DESIGN.md \xC2\xA7"
      "9):\n"
      "%s"
      "                                       serve the store over TCP;\n"
      "                                       prints the bound port, stops\n"
      "                                       cleanly on SIGINT/SIGTERM;\n"
      "                                       --workers threads share one\n"
      "                                       epoll set over all connections\n"
      "                                       and each runs the requests it\n"
      "                                       reads\n"
      "                                       (DESIGN.md \xC2\xA7" "11);\n"
      "                                       --cluster-map + --shard-id\n"
      "                                       serve one shard of a cluster\n"
      "                                       (DESIGN.md \xC2\xA7" "13)\n"
      "\n"
      "<domain>/<region> use the paper notation, e.g. \"[0:1023,0:767]\";\n"
      "<cell-type> is one of uint8..int64, float32/64, rgb8.\n",
      net::ServerConfig::FlagHelp());
}

int Usage() {
  PrintHelp(stderr);
  return 2;
}

const char* FlagValue(int argc, char** argv, const char* name) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
  }
  return nullptr;
}

bool HasFlag(int argc, char** argv, const char* name) {
  const std::string flag = std::string("--") + name;
  for (int i = 0; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

// --------------------------------------------------------------------------
// serve: run the store as a standalone TCP server until SIGINT/SIGTERM.

volatile std::sig_atomic_t g_stop_requested = 0;

void HandleStopSignal(int) { g_stop_requested = 1; }

int CmdServe(const std::string& db, int argc, char** argv) {
  Result<net::ServerConfig> config = net::ServerConfig::FromArgs(argc, argv);
  if (!config.ok()) return Fail(config.status());
  Result<std::unique_ptr<MDDStore>> store =
      MDDStore::Open(db, config->store_options);
  if (!store.ok()) return Fail(store.status());

  net::TileServer server(store->get(), config->server_options);
  Status st = server.Start();
  if (!st.ok()) return Fail(st);
  // The port line is machine-readable (CI scripts parse it), hence the
  // explicit flush before entering the wait loop.
  std::printf("serving %s on port %u\n", db.c_str(), server.port());
  if (config->server_options.shard_count > 1) {
    std::printf("shard %u of %u\n", config->server_options.shard_id,
                config->server_options.shard_count);
  }
  std::fflush(stdout);

  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  while (g_stop_requested == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::fprintf(stderr, "draining...\n");
  server.Stop();
  st = (*store)->Save();
  if (!st.ok()) return Fail(st);
  std::printf("drained cleanly\n");
  return 0;
}

int CmdCreate(const std::string& db) {
  Result<std::unique_ptr<MDDStore>> store = MDDStore::Create(db);
  if (!store.ok()) return Fail(store.status());
  Status st = (*store)->Save();
  if (!st.ok()) return Fail(st);
  std::printf("created %s\n", db.c_str());
  return 0;
}

int CmdLs(const std::string& db) {
  Result<std::unique_ptr<MDDStore>> store = MDDStore::Open(db);
  if (!store.ok()) return Fail(store.status());
  for (const std::string& name : (*store)->ListMDD()) {
    MDDObject* obj = (*store)->GetMDD(name).value();
    std::printf("%-24s %-10s %6zu tiles  %s\n", name.c_str(),
                std::string(obj->cell_type().name()).c_str(),
                obj->tile_count(),
                obj->definition_domain().ToString().c_str());
  }
  return 0;
}

int CmdInfo(const std::string& db, const std::string& name) {
  Result<std::unique_ptr<MDDStore>> store = MDDStore::Open(db);
  if (!store.ok()) return Fail(store.status());
  Result<MDDObject*> obj = (*store)->GetMDD(name);
  if (!obj.ok()) return Fail(obj.status());
  std::printf("object:            %s\n", name.c_str());
  std::printf("cell type:         %s (%zu bytes)\n",
              std::string((*obj)->cell_type().name()).c_str(),
              (*obj)->cell_size());
  std::printf("definition domain: %s\n",
              (*obj)->definition_domain().ToString().c_str());
  std::printf("current domain:    %s\n",
              (*obj)->current_domain().has_value()
                  ? (*obj)->current_domain()->ToString().c_str()
                  : "(empty)");
  std::printf("tiles:             %zu\n", (*obj)->tile_count());
  uint64_t cells = 0, compressed = 0;
  for (const TileEntry& entry : (*obj)->AllTiles()) {
    cells += entry.domain.CellCountOrDie();
    if (entry.compression != Compression::kNone) ++compressed;
  }
  std::printf("cells stored:      %llu (%.1f MiB raw), %llu tiles "
              "compressed\n",
              static_cast<unsigned long long>(cells),
              static_cast<double>(cells * (*obj)->cell_size()) /
                  (1024 * 1024),
              static_cast<unsigned long long>(compressed));
  Status st = (*obj)->Validate();
  std::printf("tiling invariants: %s\n", st.ok() ? "ok" : st.ToString().c_str());
  return 0;
}

int CmdImport(const std::string& db, const std::string& name,
              const std::string& raw_path, const std::string& domain_text,
              const std::string& type_name, int argc, char** argv) {
  Result<MInterval> domain = MInterval::Parse(domain_text);
  if (!domain.ok()) return Fail(domain.status());
  Result<CellType> cell_type = CellType::FromName(type_name);
  if (!cell_type.ok()) return Fail(cell_type.status());

  std::ifstream in(raw_path, std::ios::binary);
  if (!in) {
    return Fail(Status::NotFound("cannot open raw file " + raw_path));
  }
  std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  Result<Array> data = Array::FromBuffer(*domain, *cell_type,
                                         std::move(bytes));
  if (!data.ok()) return Fail(data.status());

  Result<std::unique_ptr<MDDStore>> store = MDDStore::Open(db);
  if (!store.ok()) return Fail(store.status());
  Result<MDDObject*> obj = (*store)->CreateMDD(name, *domain, *cell_type);
  if (!obj.ok()) return Fail(obj.status());
  if (HasFlag(argc, argv, "rle")) {
    (*obj)->SetCompression(Compression::kRle);
  }

  const char* max_kb = FlagValue(argc, argv, "max-tile-kb");
  const uint64_t max_bytes =
      max_kb != nullptr ? static_cast<uint64_t>(std::atoi(max_kb)) * 1024
                        : kDefaultMaxTileBytes;
  TileConfig config = TileConfig::Regular(domain->dim());
  if (const char* text = FlagValue(argc, argv, "config")) {
    Result<TileConfig> parsed = TileConfig::Parse(text);
    if (!parsed.ok()) return Fail(parsed.status());
    config = std::move(parsed).MoveValue();
  }
  Status st = (*obj)->Load(*data, AlignedTiling(config, max_bytes));
  if (!st.ok()) return Fail(st);
  st = (*store)->Save();
  if (!st.ok()) return Fail(st);
  std::printf("imported %s into '%s' (%zu tiles)\n", raw_path.c_str(),
              name.c_str(), (*obj)->tile_count());
  return 0;
}

int CmdExport(const std::string& db, const std::string& name,
              const std::string& region_text, const std::string& out_path) {
  Result<MInterval> region = MInterval::Parse(region_text);
  if (!region.ok()) return Fail(region.status());
  Result<std::unique_ptr<MDDStore>> store = MDDStore::Open(db);
  if (!store.ok()) return Fail(store.status());
  Result<MDDObject*> obj = (*store)->GetMDD(name);
  if (!obj.ok()) return Fail(obj.status());
  Result<Array> data = ReadRegion(store->get(), *obj, *region);
  if (!data.ok()) return Fail(data.status());

  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  if (!out) return Fail(Status::IOError("cannot open " + out_path));
  out.write(reinterpret_cast<const char*>(data->data()),
            static_cast<std::streamsize>(data->size_bytes()));
  out.flush();
  if (!out) return Fail(Status::IOError("write to " + out_path + " failed"));
  std::printf("exported %s of '%s' (%zu bytes) to %s\n",
              data->domain().ToString().c_str(), name.c_str(),
              data->size_bytes(), out_path.c_str());
  return 0;
}

int CmdQuery(const std::string& db, const std::string& text) {
  Result<std::unique_ptr<MDDStore>> store = MDDStore::Open(db);
  if (!store.ok()) return Fail(store.status());
  RasqlEngine engine(store->get());
  QueryStats stats;
  Result<RasqlValue> value = engine.Execute(text, &stats);
  if (!value.ok()) return Fail(value.status());
  if (value->is_scalar()) {
    std::printf("%.10g\n", value->scalar);
  } else {
    std::printf("array %s, %llu cells, %zu bytes\n",
                value->array->domain().ToString().c_str(),
                static_cast<unsigned long long>(value->array->cell_count()),
                value->array->size_bytes());
  }
  std::fprintf(stderr, "stats: %s\n", stats.ToString().c_str());
  return 0;
}

// filter-query: either over the wire against a running server
// ("host:port" — exercises the kFilterQuery op, v2 connections only), or
// directly against a db path. Both print the same result line; the local
// path additionally reports the query-stats breakdown with the summary
// probe/skip/inspect counters.
int CmdFilterQuery(const std::string& target, const std::string& name,
                   const std::string& region_text,
                   const std::string& pred_text) {
  Result<MInterval> region = MInterval::Parse(region_text);
  if (!region.ok()) return Fail(region.status());
  Result<ValuePredicate> pred = ValuePredicate::Parse(pred_text);
  if (!pred.ok()) return Fail(pred.status());

  const size_t colon = target.rfind(':');
  const int port =
      colon == std::string::npos ? 0 : std::atoi(target.c_str() + colon + 1);
  if (colon != std::string::npos && port > 0 && port <= 65535) {
    Result<std::unique_ptr<net::TileClient>> client = net::TileClient::Connect(
        target.substr(0, colon), static_cast<uint16_t>(port));
    if (!client.ok()) return Fail(client.status());
    Result<Array> array = (*client)->FilterQuery(name, *region, *pred);
    if (!array.ok()) return Fail(array.status());
    std::printf("array %s where %s, %llu cells, %zu bytes\n",
                array->domain().ToString().c_str(),
                pred->ToString().c_str(),
                static_cast<unsigned long long>(array->cell_count()),
                array->size_bytes());
    return 0;
  }

  Result<std::unique_ptr<MDDStore>> store = MDDStore::Open(target);
  if (!store.ok()) return Fail(store.status());
  Result<MDDObject*> obj = (*store)->GetMDD(name);
  if (!obj.ok()) return Fail(obj.status());
  RangeQueryOptions options;
  options.predicate = *pred;
  RangeQueryExecutor executor(store->get(), options);
  QueryStats stats;
  Result<Array> array = executor.Execute(*obj, *region, &stats);
  if (!array.ok()) return Fail(array.status());
  std::printf("array %s where %s, %llu cells, %zu bytes\n",
              array->domain().ToString().c_str(), pred->ToString().c_str(),
              static_cast<unsigned long long>(array->cell_count()),
              array->size_bytes());
  std::fprintf(stderr, "stats: %s\n", stats.ToString().c_str());
  return 0;
}

int CmdAdvise(const std::string& db, const std::string& name,
              const std::string& log_path) {
  Result<std::unique_ptr<MDDStore>> store = MDDStore::Open(db);
  if (!store.ok()) return Fail(store.status());
  Result<MDDObject*> obj = (*store)->GetMDD(name);
  if (!obj.ok()) return Fail(obj.status());
  Result<AccessLog> log = AccessLog::LoadFromFile(log_path);
  if (!log.ok()) return Fail(log.status());

  // Advise against the current domain (definition domains may be
  // unbounded); an empty object cannot be advised.
  if (!(*obj)->current_domain().has_value()) {
    return Fail(Status::InvalidArgument("object '" + name + "' is empty"));
  }
  TilingAdvisor advisor;
  Result<TilingAdvice> advice =
      advisor.Advise(*(*obj)->current_domain(), log->ToRecords());
  if (!advice.ok()) return Fail(advice.status());
  std::printf("object:   %s\n", name.c_str());
  std::printf("log:      %zu accesses\n", log->size());
  std::printf("verdict:  %s\n",
              std::string(WorkloadKindToString(advice->kind)).c_str());
  std::printf("why:      %s\n", advice->rationale.c_str());
  Result<TilingSpec> spec = advice->strategy->ComputeTiling(
      *(*obj)->current_domain(), (*obj)->cell_size());
  if (spec.ok()) {
    std::printf("would produce %zu tiles (currently %zu)\n", spec->size(),
                (*obj)->tile_count());
  }
  return 0;
}

// retile: admin call against a running server ("host:port"), not a db
// path — re-tiling needs the server's recorded workload, which only
// exists in the serving process.
int CmdRetile(const std::string& endpoint, const std::string& name) {
  const size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos) {
    return Fail(Status::InvalidArgument(
        "retile expects <host:port>, got '" + endpoint + "'"));
  }
  const std::string host = endpoint.substr(0, colon);
  const int port = std::atoi(endpoint.c_str() + colon + 1);
  if (port <= 0 || port > 65535) {
    return Fail(Status::InvalidArgument("bad port in '" + endpoint + "'"));
  }
  net::TileClientOptions client_options;
  // Migrations move whole objects; give the server room to finish.
  client_options.request_timeout_ms = 10 * 60 * 1000;
  Result<std::unique_ptr<net::TileClient>> client = net::TileClient::Connect(
      host, static_cast<uint16_t>(port), client_options);
  if (!client.ok()) return Fail(client.status());
  Result<net::RetileResponse> resp = (*client)->Retile(name);
  if (!resp.ok()) return Fail(resp.status());
  std::printf("object:    %s\n", name.c_str());
  std::printf("migrated:  %s\n", resp->migrated ? "yes" : "no");
  std::printf("workload:  %s\n", resp->kind.c_str());
  std::printf("why:       %s\n", resp->rationale.c_str());
  std::printf("predicted: %.2fx less data fetched\n", resp->predicted_gain);
  if (resp->migrated) {
    std::printf("steps:     %llu (%llu cells moved)\n",
                static_cast<unsigned long long>(resp->steps),
                static_cast<unsigned long long>(resp->cells_moved));
    std::printf("tiles:     %llu -> %llu\n",
                static_cast<unsigned long long>(resp->tiles_before),
                static_cast<unsigned long long>(resp->tiles_after));
  }
  return 0;
}

void PrintCompactReport(const std::string& name, bool compacted,
                        const std::string& rationale, double frag_before,
                        double frag_after, uint64_t steps,
                        uint64_t tiles_moved, uint64_t bytes_moved) {
  std::printf("object:    %s\n", name.c_str());
  std::printf("compacted: %s\n", compacted ? "yes" : "no");
  std::printf("why:       %s\n", rationale.c_str());
  std::printf("frag:      %.3f -> %.3f\n", frag_before, frag_after);
  if (compacted) {
    std::printf("steps:     %llu (%llu tiles, %.1f MiB moved)\n",
                static_cast<unsigned long long>(steps),
                static_cast<unsigned long long>(tiles_moved),
                static_cast<double>(bytes_moved) / (1024.0 * 1024.0));
  }
}

// compact: either an admin call against a running server ("host:port"),
// or — when the target parses as a db path — an offline compaction of
// the store in this process.
int CmdCompact(const std::string& target, const std::string& name) {
  const size_t colon = target.rfind(':');
  const int port =
      colon == std::string::npos ? 0 : std::atoi(target.c_str() + colon + 1);
  if (colon != std::string::npos && port > 0 && port <= 65535) {
    net::TileClientOptions client_options;
    // Compaction rewrites whole objects; give the server room to finish.
    client_options.request_timeout_ms = 10 * 60 * 1000;
    Result<std::unique_ptr<net::TileClient>> client = net::TileClient::Connect(
        target.substr(0, colon), static_cast<uint16_t>(port), client_options);
    if (!client.ok()) return Fail(client.status());
    Result<net::CompactResponse> resp = (*client)->Compact(name);
    if (!resp.ok()) return Fail(resp.status());
    PrintCompactReport(name, resp->compacted, resp->rationale,
                       resp->frag_before, resp->frag_after, resp->steps,
                       resp->tiles_moved, resp->bytes_moved);
    return 0;
  }
  Result<std::unique_ptr<MDDStore>> store = MDDStore::Open(target);
  if (!store.ok()) return Fail(store.status());
  layout::Compactor compactor((*store).get(), layout::CompactorOptions());
  Result<layout::CompactReport> report = compactor.CompactNow(name);
  if (!report.ok()) return Fail(report.status());
  PrintCompactReport(name, report->compacted, report->rationale,
                     report->frag_before, report->frag_after, report->steps,
                     report->tiles_moved, report->bytes_moved);
  return 0;
}

int CmdStats(const std::string& db) {
  Result<std::unique_ptr<MDDStore>> store = MDDStore::Open(db);
  if (!store.ok()) return Fail(store.status());
  PageFile* file = (*store)->page_file();
  uint64_t tiles = 0, cells = 0;
  for (const std::string& name : (*store)->ListMDD()) {
    MDDObject* obj = (*store)->GetMDD(name).value();
    tiles += obj->tile_count();
    for (const TileEntry& entry : obj->AllTiles()) {
      cells += entry.domain.CellCountOrDie();
    }
  }
  std::printf("objects:     %zu\n", (*store)->ListMDD().size());
  std::printf("tiles:       %llu\n", static_cast<unsigned long long>(tiles));
  std::printf("cells:       %llu\n", static_cast<unsigned long long>(cells));
  std::printf("page size:   %u\n", file->page_size());
  std::printf("pages:       %llu (%llu free)\n",
              static_cast<unsigned long long>(file->page_count()),
              static_cast<unsigned long long>(file->free_page_count()));
  std::printf("file size:   %.1f MiB\n",
              static_cast<double>(file->page_count()) * file->page_size() /
                  (1024.0 * 1024.0));
  return 0;
}

int CmdDrop(const std::string& db, const std::string& name) {
  Result<std::unique_ptr<MDDStore>> store = MDDStore::Open(db);
  if (!store.ok()) return Fail(store.status());
  Status st = (*store)->DropMDD(name);
  if (!st.ok()) return Fail(st);
  st = (*store)->Save();
  if (!st.ok()) return Fail(st);
  std::printf("dropped '%s'\n", name.c_str());
  return 0;
}

int Main(int argc, char** argv) {
  if (argc >= 2 && (std::strcmp(argv[1], "--help") == 0 ||
                    std::strcmp(argv[1], "help") == 0 ||
                    std::strcmp(argv[1], "-h") == 0)) {
    PrintHelp(stdout);
    return 0;
  }
  if (argc < 3) return Usage();
  const std::string command = argv[1];
  const std::string db = argv[2];
  if (command == "create") return CmdCreate(db);
  if (command == "ls") return CmdLs(db);
  if (command == "info" && argc >= 4) return CmdInfo(db, argv[3]);
  if (command == "import" && argc >= 7) {
    return CmdImport(db, argv[3], argv[4], argv[5], argv[6], argc - 7,
                     argv + 7);
  }
  if (command == "export" && argc >= 6) {
    return CmdExport(db, argv[3], argv[4], argv[5]);
  }
  if (command == "query" && argc >= 4) return CmdQuery(db, argv[3]);
  if (command == "filter-query" && argc >= 6) {
    return CmdFilterQuery(db, argv[3], argv[4], argv[5]);
  }
  if (command == "advise" && argc >= 5) {
    return CmdAdvise(db, argv[3], argv[4]);
  }
  if (command == "retile" && argc >= 4) return CmdRetile(db, argv[3]);
  if (command == "compact" && argc >= 4) return CmdCompact(db, argv[3]);
  if (command == "stats") return CmdStats(db);
  if (command == "drop" && argc >= 4) return CmdDrop(db, argv[3]);
  if (command == "serve") return CmdServe(db, argc - 3, argv + 3);
  return Usage();
}

}  // namespace
}  // namespace tilestore

int main(int argc, char** argv) { return tilestore::Main(argc, argv); }
