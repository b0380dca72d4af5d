#ifndef TILESTORE_TESTS_TEST_PATHS_H_
#define TILESTORE_TESTS_TEST_PATHS_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>

#include "mdd/mdd_store.h"

namespace tilestore {

/// A temp-file path unique to the currently running gtest case. ctest runs
/// every discovered case as its own process, in parallel — fixtures that
/// hardcode one path per suite collide and corrupt each other's stores.
/// `stem` keeps the file recognizable; suite/test names and the pid make it
/// unique.
inline std::string UniqueTestPath(const std::string& stem) {
  std::string name;
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  if (info != nullptr) {
    name = std::string(info->test_suite_name()) + "_" + info->name();
  }
  for (char& c : name) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9');
    if (!keep) c = '_';
  }
  return ::testing::TempDir() + "/" + stem + "_" + name + "_" +
         std::to_string(::getpid());
}

/// Removes a test store's files: `db` itself and its `.wal`, `.lock`,
/// `.summ`, `.retile` and `.compact` sidecars (`MDDStore::Remove`).
/// Missing files are ignored.
inline void RemoveStoreFiles(const std::string& db) {
  (void)MDDStore::Remove(db);
}

}  // namespace tilestore

#endif  // TILESTORE_TESTS_TEST_PATHS_H_
