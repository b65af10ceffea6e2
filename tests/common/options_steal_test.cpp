#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "itoyori/common/options.hpp"

namespace ic = ityr::common;

// Startup validation of the steal-path knobs (ITYR_STEAL_POLICY /
// ITYR_STEAL_BATCH / ITYR_STEAL_ESCALATION_ROUNDS /
// ITYR_STEAL_ADAPTIVE_BACKOFF): round-trips through the environment and
// clear errors for malformed values.

namespace {

void clear_steal_env() {
  ::unsetenv("ITYR_STEAL_POLICY");
  ::unsetenv("ITYR_STEAL_BATCH");
  ::unsetenv("ITYR_STEAL_ESCALATION_ROUNDS");
  ::unsetenv("ITYR_STEAL_ADAPTIVE_BACKOFF");
}

}  // namespace

TEST(OptionsSteal, EnvDefaultsAreThePaperProtocol) {
  clear_steal_env();
  auto o = ic::options::from_env();
  // All three PR-9 knobs default off: random single-entry victim selection
  // with no per-victim suppression, bit-identical to pre-knob runs.
  EXPECT_EQ(o.steal, ic::steal_policy::random);
  EXPECT_EQ(o.steal_batch, 1u);
  EXPECT_FALSE(o.steal_adaptive_backoff);
  EXPECT_GE(o.steal_escalation_rounds, 1);
}

TEST(OptionsSteal, EnvRoundTrip) {
  clear_steal_env();
  ::setenv("ITYR_STEAL_POLICY", "hierarchical", 1);
  ::setenv("ITYR_STEAL_BATCH", "4", 1);
  ::setenv("ITYR_STEAL_ESCALATION_ROUNDS", "3", 1);
  ::setenv("ITYR_STEAL_ADAPTIVE_BACKOFF", "1", 1);
  auto o = ic::options::from_env();
  EXPECT_EQ(o.steal, ic::steal_policy::hierarchical);
  EXPECT_EQ(o.steal_batch, 4u);
  EXPECT_EQ(o.steal_escalation_rounds, 3);
  EXPECT_TRUE(o.steal_adaptive_backoff);
  ::setenv("ITYR_STEAL_POLICY", "random", 1);
  ::setenv("ITYR_STEAL_ADAPTIVE_BACKOFF", "0", 1);
  auto o2 = ic::options::from_env();
  EXPECT_EQ(o2.steal, ic::steal_policy::random);
  EXPECT_FALSE(o2.steal_adaptive_backoff);
  clear_steal_env();
}

TEST(OptionsSteal, PolicyNamesRoundTripThroughStrings) {
  for (auto p : {ic::steal_policy::random, ic::steal_policy::hierarchical}) {
    EXPECT_EQ(ic::steal_policy_from_string(ic::to_string(p)), p);
  }
}

TEST(OptionsSteal, BogusPolicyThrows) {
  clear_steal_env();
  // Unknown enum names are API misuse (api_error), matching the other
  // enum-valued knobs; out-of-range numerics below are ic::error.
  ::setenv("ITYR_STEAL_POLICY", "nearest_neighbor", 1);
  EXPECT_THROW(ic::options::from_env(), ic::api_error);
  try {
    ic::options::from_env();
    FAIL() << "expected ic::api_error";
  } catch (const ic::api_error& e) {
    // The message lists the legal policy names so a typo is diagnosable from
    // the exception alone.
    EXPECT_NE(std::string(e.what()).find("hierarchical"), std::string::npos);
  }
  clear_steal_env();
}

TEST(OptionsSteal, ZeroBatchThrows) {
  clear_steal_env();
  ::setenv("ITYR_STEAL_BATCH", "0", 1);
  EXPECT_THROW(ic::options::from_env(), ic::error);
  try {
    ic::options::from_env();
    FAIL() << "expected ic::error";
  } catch (const ic::error& e) {
    EXPECT_NE(std::string(e.what()).find("ITYR_STEAL_BATCH"), std::string::npos);
  }
  clear_steal_env();
}

TEST(OptionsSteal, ZeroEscalationRoundsThrows) {
  clear_steal_env();
  ::setenv("ITYR_STEAL_ESCALATION_ROUNDS", "0", 1);
  EXPECT_THROW(ic::options::from_env(), ic::error);
  try {
    ic::options::from_env();
    FAIL() << "expected ic::error";
  } catch (const ic::error& e) {
    EXPECT_NE(std::string(e.what()).find("ITYR_STEAL_ESCALATION_ROUNDS"), std::string::npos);
  }
  ::setenv("ITYR_STEAL_ESCALATION_ROUNDS", "1", 1);  // boundary is legal
  EXPECT_EQ(ic::options::from_env().steal_escalation_rounds, 1);
  clear_steal_env();
}

TEST(OptionsSteal, ValidateDirectly) {
  // The validator is callable on programmatically built options too (benches
  // and tests construct options without from_env).
  EXPECT_NO_THROW(ic::validate_steal(1, 1));
  EXPECT_NO_THROW(ic::validate_steal(64, 3));
  EXPECT_THROW(ic::validate_steal(0, 3), ic::error);
  EXPECT_THROW(ic::validate_steal(1, 0), ic::error);
}
