// A whole tuning run is byte-identical at every fleet width. The small
// faulty Controller + HUNTER run of tuning_run.h, on 4 clones, runs once on
// the serial fleet and then with real threads at pool widths 1 to 4; every
// journal must equal the serial one byte for byte. The engines share
// per-thread run scratch (cdb/simulated_engine.cc, cdb/lock_manager.cc), so
// this is also the threaded fleet's TSan run: the test carries the
// `concurrency` label, which tools/check.sh runs under TSan.

#include <cstddef>
#include <memory>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "controller/controller.h"
#include "tests/property/tuning_run.h"

namespace hunter {
namespace {

std::string JournalBytes(const testing_support::FleetShape& fleet) {
  const std::unique_ptr<testing_support::TuningRun> run =
      testing_support::RunSmallTuning(42, fleet);
  std::ostringstream os;
  run->controller->journal().Write(os);
  return os.str();
}

TEST(FleetDeterminismTest, WholeRunJournalIsByteIdenticalAtEveryPoolWidth) {
  testing_support::FleetShape fleet;
  fleet.clones = 4;
  const std::string serial = JournalBytes(fleet);
  ASSERT_FALSE(serial.empty());
  fleet.concurrent_actors = true;
  for (size_t threads = 1; threads <= 4; ++threads) {
    fleet.max_pool_threads = threads;
    EXPECT_EQ(JournalBytes(fleet), serial) << threads << " pool threads";
  }
}

}  // namespace
}  // namespace hunter
