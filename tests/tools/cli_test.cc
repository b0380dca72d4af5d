// Integration test for tilestore_cli: drives the real binary end to end
// (create -> import -> ls/info -> query -> export -> drop). The binary
// path is injected by CMake as TILESTORE_CLI_PATH.

#include <gtest/gtest.h>

#include "test_paths.h"

#include <array>
#include <cstdio>
#include <fstream>
#include <string>

#include "storage/env.h"

#ifndef TILESTORE_CLI_PATH
#error "TILESTORE_CLI_PATH must be defined by the build"
#endif

namespace tilestore {
namespace {

struct CommandResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr
};

CommandResult RunCli(const std::string& args) {
  const std::string command =
      std::string(TILESTORE_CLI_PATH) + " " + args + " 2>&1";
  CommandResult result;
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 512> buffer;
  while (std::fgets(buffer.data(), buffer.size(), pipe) != nullptr) {
    result.output += buffer.data();
  }
  const int status = ::pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = UniqueTestPath("cli_test.db");
    raw_ = UniqueTestPath("cli_test_raw.bin");
    out_ = UniqueTestPath("cli_test_out.bin");
    RemoveStoreFiles(db_);
    (void)RemoveFile(raw_);
    (void)RemoveFile(out_);
    // 64x64 uint8 raster: cell (x,y) = (x + y) & 0xFF.
    std::ofstream raw(raw_, std::ios::binary);
    for (int x = 0; x < 64; ++x) {
      for (int y = 0; y < 64; ++y) {
        raw.put(static_cast<char>((x + y) & 0xFF));
      }
    }
  }
  void TearDown() override {
    RemoveStoreFiles(db_);
    (void)RemoveFile(raw_);
    (void)RemoveFile(out_);
  }

  std::string db_, raw_, out_;
};

TEST_F(CliTest, FullLifecycle) {
  CommandResult r = RunCli("create " + db_);
  ASSERT_EQ(r.exit_code, 0) << r.output;

  r = RunCli("import " + db_ + " img " + raw_ +
             " \"[0:63,0:63]\" uint8 --max-tile-kb=1 --rle");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("imported"), std::string::npos);

  r = RunCli("ls " + db_);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("img"), std::string::npos);
  EXPECT_NE(r.output.find("uint8"), std::string::npos);

  r = RunCli("info " + db_ + " img");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("[0:63,0:63]"), std::string::npos);
  EXPECT_NE(r.output.find("tiling invariants: ok"), std::string::npos);

  // Sum of row 0 = sum of (0 + y) for y in 0..63 = 2016.
  r = RunCli("query " + db_ + " \"select add_cells(img[0:0,0:63]) from img\"");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("2016"), std::string::npos);

  // A trim query reports the array shape.
  r = RunCli("query " + db_ + " \"select img[5:9,*:*] from img\"");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("array [5:9,0:63]"), std::string::npos);

  // Filtered query: cell (x,y) = x + y, so "v < 3" over rows 0:1 keeps
  // {(0,0),(0,1),(0,2),(1,0),(1,1)} and zeroes the rest; the full slab
  // shape and the summary stats line must both be reported.
  r = RunCli("filter-query " + db_ + " img \"[0:1,0:63]\" \"v < 3\"");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("array [0:1,0:63] where v<3"), std::string::npos);
  EXPECT_NE(r.output.find("summ_probes="), std::string::npos) << r.output;

  // Export round-trips the raw bytes.
  r = RunCli("export " + db_ + " img \"[0:63,0:63]\" " + out_);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  std::ifstream a(raw_, std::ios::binary), b(out_, std::ios::binary);
  const std::string raw_bytes((std::istreambuf_iterator<char>(a)),
                              std::istreambuf_iterator<char>());
  const std::string out_bytes((std::istreambuf_iterator<char>(b)),
                              std::istreambuf_iterator<char>());
  EXPECT_EQ(raw_bytes, out_bytes);

  // Stats over the populated store.
  r = RunCli("stats " + db_);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("objects:     1"), std::string::npos);
  EXPECT_NE(r.output.find("cells:       4096"), std::string::npos);

  // Advise from a hand-written access log.
  const std::string log_path = UniqueTestPath("cli_test.log");
  {
    std::ofstream log(log_path);
    for (int i = 0; i < 6; ++i) log << "[3:3,0:63]\n";
  }
  r = RunCli("advise " + db_ + " img " + log_path);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("verdict:  sections"), std::string::npos);
  (void)RemoveFile(log_path);

  r = RunCli("drop " + db_ + " img");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  r = RunCli("ls " + db_);
  ASSERT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.output.find("img"), std::string::npos);
}

TEST_F(CliTest, ErrorsAreReportedWithNonZeroExit) {
  // Unknown command.
  EXPECT_NE(RunCli("frobnicate " + db_).exit_code, 0);
  // Open of a missing store.
  CommandResult r = RunCli("ls " + db_);
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("error"), std::string::npos);
  // Bad query against a real store.
  ASSERT_EQ(RunCli("create " + db_).exit_code, 0);
  r = RunCli("query " + db_ + " \"select nothing\"");
  EXPECT_NE(r.exit_code, 0);
  // Import with a malformed domain.
  r = RunCli("import " + db_ + " x " + raw_ + " \"[0:63\" uint8");
  EXPECT_NE(r.exit_code, 0);
  // Import with mismatched raw size.
  r = RunCli("import " + db_ + " x " + raw_ + " \"[0:9,0:9]\" uint8");
  EXPECT_NE(r.exit_code, 0);
}

}  // namespace
}  // namespace tilestore
