#include <gtest/gtest.h>

#include <string>

#include "src/serve/cost_model.h"

/// Compatibility of persisted cost-model snapshots: snapshots written while
/// cells still carried an enclosure-width EWMA (`width_mean` /
/// `width_count`) must keep importing — a rejected warm-start snapshot
/// aborts the BatchExecutor constructor — and re-export without the retired
/// fields.

namespace phom {
namespace {

using serve::CostModel;

/// Two cells in the older export format: one trained by interval solves,
/// one that never saw an interval answer.
constexpr char kSnapshotWithWidthFields[] =
    "{\"schema\":1,\"cells\":[\n"
    "{\"engine\":\"fallback\",\"class\":\"General\",\"bucket\":5,"
    "\"mean_ns\":2300000000,\"dev_ns\":100000000,\"count\":4,"
    "\"width_mean\":4.4408920985006262e-16,\"width_count\":3},\n"
    "{\"engine\":\"path-on-dwt\",\"class\":\"DWT\",\"bucket\":0,"
    "\"mean_ns\":19001,\"dev_ns\":9500.5,\"count\":1,"
    "\"width_mean\":0,\"width_count\":0}]}\n";

constexpr char kSnapshotWithoutWidthFields[] =
    "{\"schema\":1,\"cells\":[\n"
    "{\"engine\":\"fallback\",\"class\":\"General\",\"bucket\":5,"
    "\"mean_ns\":2300000000,\"dev_ns\":100000000,\"count\":4},\n"
    "{\"engine\":\"path-on-dwt\",\"class\":\"DWT\",\"bucket\":0,"
    "\"mean_ns\":19001,\"dev_ns\":9500.5,\"count\":1}]}\n";

TEST(CostModel, ImportsSnapshotsWithRetiredWidthFields) {
  CostModel model;
  Result<size_t> imported = model.ImportSnapshotJson(kSnapshotWithWidthFields);
  ASSERT_TRUE(imported.ok()) << imported.status().ToString();
  EXPECT_EQ(*imported, 2u);
  const std::string exported = model.ExportSnapshotJson();
  EXPECT_EQ(exported.find("width_mean"), std::string::npos) << exported;
  EXPECT_EQ(exported.find("width_count"), std::string::npos) << exported;
  EXPECT_EQ(exported, kSnapshotWithoutWidthFields);

  // The retired fields are still validated as numbers, not skipped blindly.
  std::string bad = kSnapshotWithWidthFields;
  bad.replace(bad.find("\"width_count\":3"), 15, "\"width_count\":x");
  EXPECT_FALSE(CostModel().ImportSnapshotJson(bad).ok());
}

}  // namespace
}  // namespace phom
