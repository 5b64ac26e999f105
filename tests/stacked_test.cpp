// Tests for the 3D-stacked memory model.
#include <gtest/gtest.h>

#include "stacked/hmc.h"

namespace pim::stacked {
namespace {

TEST(HmcConfigTest, Hmc2Geometry) {
  const hmc_config cfg = hmc2();
  EXPECT_EQ(cfg.vaults, 32);
  EXPECT_EQ(cfg.total_banks(), 512);
  EXPECT_EQ(cfg.capacity(), 8ull * gib);
  EXPECT_NEAR(cfg.internal_bw_gbps(), 480.0, 1e-9);
  // Internal bandwidth exceeds the external links: the PIM argument.
  EXPECT_GT(cfg.internal_bw_gbps(), cfg.external_bw_gbps);
}

TEST(LogicLayerBudgetTest, FractionsAndFit) {
  const logic_layer_budget budget(32, 4.4);
  EXPECT_NEAR(budget.total_mm2(), 140.8, 0.01);
  EXPECT_NEAR(budget.vault_fraction(0.41), 0.0932, 0.001);
  EXPECT_TRUE(budget.fits_per_vault(1.56));
  EXPECT_FALSE(budget.fits_per_vault(5.0));
}

}  // namespace
}  // namespace pim::stacked
