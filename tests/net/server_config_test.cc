// ServerConfig tests: the one flag parser shared by `tilestore_cli serve`,
// the cluster launcher scripts, and tests. Strictness is the point — a
// typo'd flag must fail loudly instead of silently serving with defaults.

#include "net/server_config.h"

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "test_paths.h"

namespace tilestore {
namespace net {
namespace {

Result<ServerConfig> Parse(std::vector<std::string> args) {
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (std::string& arg : args) argv.push_back(arg.data());
  return ServerConfig::FromArgs(static_cast<int>(argv.size()), argv.data());
}

TEST(ServerConfigTest, NoFlagsYieldsDefaults) {
  auto config = Parse({});
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  const TileServerOptions defaults;
  EXPECT_EQ(config->server_options.port, defaults.port);
  EXPECT_EQ(config->server_options.max_connections,
            defaults.max_connections);
  EXPECT_EQ(config->server_options.shard_id, 0u);
  EXPECT_EQ(config->server_options.shard_count, 1u);
  EXPECT_FALSE(config->cluster_map.has_value());
  EXPECT_EQ(config->io_backend, nullptr);
}

TEST(ServerConfigTest, ParsesServerKnobs) {
  auto config = Parse({"--port=7171", "--max-connections=8",
                       "--max-inflight=4", "--queue=2",
                       "--request-timeout-ms=1234", "--idle-timeout-ms=5678",
                       "--parallelism=2", "--workers=3", "--all-interfaces",
                       "--debug-handler-delay-ms=50", "--max-wire-version=1",
                       "--tile-cache-mb=8"});
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  const TileServerOptions& server = config->server_options;
  EXPECT_EQ(server.port, 7171);
  EXPECT_EQ(server.max_connections, 8u);
  EXPECT_EQ(server.max_inflight_requests, 4u);
  EXPECT_EQ(server.admission_queue_limit, 2u);
  EXPECT_EQ(server.request_timeout_ms, 1234);
  EXPECT_EQ(server.idle_timeout_ms, 5678);
  EXPECT_EQ(server.query_parallelism, 2);
  EXPECT_EQ(server.event_loop_workers, 3u);
  EXPECT_FALSE(server.loopback_only);
  EXPECT_EQ(server.debug_handler_delay_ms, 50);
  EXPECT_EQ(server.max_wire_version, 1);
  EXPECT_EQ(config->store_options.tile_cache_bytes, 8u << 20);
}

TEST(ServerConfigTest, ParsesRetilerKnobs) {
  auto config = Parse({"--auto-retile", "--retile-poll-ms=250",
                       "--retile-min-queries=7",
                       "--retile-min-improvement=1.5",
                       "--retile-cell-budget=4096"});
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  const TileServerOptions& server = config->server_options;
  EXPECT_TRUE(server.auto_retile);
  EXPECT_EQ(server.retile_poll_ms, 250);
  EXPECT_EQ(server.retile_min_queries, 7u);
  EXPECT_DOUBLE_EQ(server.retile_min_improvement, 1.5);
  EXPECT_EQ(server.retile_step_cell_budget, 4096u);
}

TEST(ServerConfigTest, LastOccurrenceWins) {
  auto config = Parse({"--port=1000", "--port=2000"});
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->server_options.port, 2000);
}

TEST(ServerConfigTest, RejectsBadInput) {
  // Unknown flags, including the retired serving-mode ones.
  EXPECT_TRUE(Parse({"--prot=7070"}).status().IsInvalidArgument());
  EXPECT_TRUE(Parse({"--event-loop"}).status().IsInvalidArgument());
  EXPECT_TRUE(Parse({"--threads=8"}).status().IsInvalidArgument());
  // Positional argument.
  EXPECT_TRUE(Parse({"7070"}).status().IsInvalidArgument());
  // Switch with a value.
  EXPECT_TRUE(Parse({"--all-interfaces=yes"}).status().IsInvalidArgument());
  // Valued flag without a value.
  EXPECT_TRUE(Parse({"--port"}).status().IsInvalidArgument());
  // Not a number / trailing garbage.
  EXPECT_TRUE(Parse({"--port=abc"}).status().IsInvalidArgument());
  EXPECT_TRUE(Parse({"--port=80x"}).status().IsInvalidArgument());
  // Out of range.
  EXPECT_TRUE(Parse({"--port=70000"}).status().IsInvalidArgument());
  EXPECT_TRUE(Parse({"--max-wire-version=9"}).status().IsInvalidArgument());
}

TEST(ServerConfigTest, ShardIdentityWithoutMap) {
  auto config = Parse({"--shard-id=2", "--shard-count=3"});
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  EXPECT_EQ(config->server_options.shard_id, 2u);
  EXPECT_EQ(config->server_options.shard_count, 3u);
  EXPECT_FALSE(config->cluster_map.has_value());

  // shard-id must fall inside the announced count.
  EXPECT_TRUE(Parse({"--shard-id=2"}).status().IsInvalidArgument());
  EXPECT_TRUE(Parse({"--shard-id=3", "--shard-count=3"})
                  .status()
                  .IsInvalidArgument());
}

class ServerConfigMapTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = UniqueTestPath("server_config_test.map");
    std::ofstream out(path_);
    out << "shard 0 127.0.0.1:7101\n"
        << "shard 1 127.0.0.1:7102\n"
        << "shard 2 127.0.0.1:7103\n";
  }
  void TearDown() override { (void)RemoveFile(path_); }
  std::string path_;
};

TEST_F(ServerConfigMapTest, MapSuppliesIdentityAndPort) {
  auto config = Parse({"--cluster-map=" + path_, "--shard-id=1"});
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  EXPECT_EQ(config->server_options.shard_id, 1u);
  EXPECT_EQ(config->server_options.shard_count, 3u);
  // The port comes from the map's endpoint for this shard...
  EXPECT_EQ(config->server_options.port, 7102);
  ASSERT_TRUE(config->cluster_map.has_value());
  EXPECT_EQ(config->cluster_map->shard_count(), 3u);

  // ...unless an explicit --port overrides it (ephemeral test ports).
  config = Parse({"--cluster-map=" + path_, "--shard-id=1", "--port=9999"});
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->server_options.port, 9999);
}

TEST_F(ServerConfigMapTest, MapErrors) {
  // A map without a shard id is ambiguous.
  EXPECT_TRUE(
      Parse({"--cluster-map=" + path_}).status().IsInvalidArgument());
  // shard-id outside the map.
  EXPECT_TRUE(Parse({"--cluster-map=" + path_, "--shard-id=3"})
                  .status()
                  .IsInvalidArgument());
  // Unreadable map file.
  EXPECT_FALSE(
      Parse({"--cluster-map=" + path_ + ".nope", "--shard-id=0"}).ok());
}

}  // namespace
}  // namespace net
}  // namespace tilestore
