// Unit tests for src/support: RNG, timers, thread pool, env parsing,
// error macros.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <set>
#include <thread>

#include "support/env.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"

namespace parsvd {
namespace {

// ------------------------------------------------------------------ Rng

TEST(Rng, DeterministicPerSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.5, 2.25);
    EXPECT_GE(u, -3.5);
    EXPECT_LT(u, 2.25);
  }
}

TEST(Rng, UniformMeanApproximatelyHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, GaussianMoments) {
  Rng rng(13);
  const int n = 200000;
  double sum = 0.0, sumsq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian();
    sum += g;
    sumsq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sumsq / n, 1.0, 0.03);
}

TEST(Rng, GaussianScaledMoments) {
  Rng rng(17);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.gaussian(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(Rng, UniformIndexInRange) {
  Rng rng(19);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.uniform_index(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all buckets hit in 1000 draws
}

TEST(Rng, UniformIndexRejectsZero) {
  Rng rng(19);
  EXPECT_THROW(rng.uniform_index(0), Error);
}

TEST(Rng, SplitStreamsDecorrelated) {
  Rng parent(23);
  Rng s0 = parent.split(0);
  Rng s1 = parent.split(1);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (s0.next_u64() == s1.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, SplitIsDeterministic) {
  Rng a(29), b(29);
  Rng sa = a.split(5), sb = b.split(5);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(sa.next_u64(), sb.next_u64());
}

TEST(Rng, FillGaussianFillsAll) {
  Rng rng(31);
  std::vector<double> buf(257, 0.0);
  rng.fill_gaussian(buf.data(), buf.size());
  int zeros = 0;
  for (double v : buf) {
    if (v == 0.0) ++zeros;
  }
  EXPECT_EQ(zeros, 0);
}

// ---------------------------------------------------------------- Timer

TEST(Stopwatch, AccumulatesLaps) {
  Stopwatch w;
  w.start();
  const double lap1 = w.stop();
  w.start();
  const double lap2 = w.stop();
  EXPECT_GE(lap1, 0.0);
  EXPECT_GE(lap2, 0.0);
  EXPECT_EQ(w.laps(), 2u);
  EXPECT_NEAR(w.total_seconds(), lap1 + lap2, 1e-12);
}

TEST(Stopwatch, StopWithoutStartIsZero) {
  Stopwatch w;
  EXPECT_EQ(w.stop(), 0.0);
  EXPECT_EQ(w.laps(), 0u);
}

TEST(Stopwatch, ResetClears) {
  Stopwatch w;
  w.start();
  w.stop();
  w.reset();
  EXPECT_EQ(w.total_seconds(), 0.0);
  EXPECT_EQ(w.laps(), 0u);
}

TEST(TimingRegistry, RecordsStats) {
  TimingRegistry reg;
  reg.record("phase", 1.0);
  reg.record("phase", 3.0);
  reg.record("other", 0.5);
  const TimingStats s = reg.stats("phase");
  EXPECT_EQ(s.count, 2u);
  EXPECT_DOUBLE_EQ(s.total, 4.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
}

TEST(TimingRegistry, UnknownSectionIsEmpty) {
  TimingRegistry reg;
  const TimingStats s = reg.stats("nope");
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(TimingRegistry, SnapshotSortedByName) {
  TimingRegistry reg;
  reg.record("b", 1.0);
  reg.record("a", 1.0);
  const auto rows = reg.snapshot();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].first, "a");
  EXPECT_EQ(rows[1].first, "b");
}

TEST(TimingRegistry, FormatTableContainsSections) {
  TimingRegistry reg;
  reg.record("gather", 0.25);
  const std::string table = reg.format_table();
  EXPECT_NE(table.find("gather"), std::string::npos);
  EXPECT_NE(table.find("count"), std::string::npos);
}

TEST(ScopedTimer, RecordsOnDestruction) {
  TimingRegistry reg;
  {
    ScopedTimer t("scope", reg);
  }
  EXPECT_EQ(reg.stats("scope").count, 1u);
}

// ------------------------------------------------------------ ThreadPool

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(5, 5, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, SingleThreadStillWorks) {
  ThreadPool pool(1);
  std::atomic<std::size_t> total{0};
  pool.parallel_for(0, 100, [&](std::size_t lo, std::size_t hi) {
    total.fetch_add(hi - lo);
  });
  EXPECT_EQ(total.load(), 100u);
}

TEST(ThreadPool, PropagatesWorkerException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(
          0, 100,
          [&](std::size_t lo, std::size_t) {
            if (lo == 0) throw std::runtime_error("boom");
          },
          1),
      std::runtime_error);
}

TEST(ThreadPool, ExplicitGrainRespected) {
  ThreadPool pool(4);
  std::atomic<int> chunks{0};
  pool.parallel_for(
      0, 100,
      [&](std::size_t lo, std::size_t hi) {
        EXPECT_LE(hi - lo, 10u);
        chunks.fetch_add(1);
      },
      10);
  EXPECT_EQ(chunks.load(), 10);
}

TEST(ThreadPool, GlobalPoolIsSingleton) {
  ThreadPool& a = ThreadPool::global();
  ThreadPool& b = ThreadPool::global();
  EXPECT_EQ(&a, &b);
}

// ------------------------------------------------------------------ env

TEST(Env, MissingReturnsFallback) {
  unsetenv("PARSVD_TEST_ENV_X");
  EXPECT_EQ(env::get_int("PARSVD_TEST_ENV_X", 5), 5);
  EXPECT_DOUBLE_EQ(env::get_double("PARSVD_TEST_ENV_X", 2.5), 2.5);
  EXPECT_TRUE(env::get_bool("PARSVD_TEST_ENV_X", true));
  EXPECT_EQ(env::get_string("PARSVD_TEST_ENV_X", "d"), "d");
}

TEST(Env, ParsesInt) {
  setenv("PARSVD_TEST_ENV_I", "42", 1);
  EXPECT_EQ(env::get_int("PARSVD_TEST_ENV_I", 0), 42);
  setenv("PARSVD_TEST_ENV_I", "-7", 1);
  EXPECT_EQ(env::get_int("PARSVD_TEST_ENV_I", 0), -7);
  unsetenv("PARSVD_TEST_ENV_I");
}

/// The ConfigError a malformed value raises must name the variable and
/// echo the value, so the typo is findable from the message alone.
template <typename Get>
void expect_rejects(const char* name, const char* value, Get get) {
  setenv(name, value, 1);
  try {
    get();
    ADD_FAILURE() << name << "='" << value << "' was accepted";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(name), std::string::npos) << what;
    EXPECT_NE(what.find(value), std::string::npos) << what;
  }
  unsetenv(name);
}

TEST(Env, MalformedValuesThrow) {
  for (const char* bad : {"12abc", "four", "5s", "1.5", "99999999999999999999"}) {
    expect_rejects("PARSVD_TEST_ENV_I", bad,
                   [] { return env::get_int("PARSVD_TEST_ENV_I", 9); });
  }
  for (const char* bad : {"0.9x", "fast", "1,5"}) {
    expect_rejects("PARSVD_TEST_ENV_D", bad,
                   [] { return env::get_double("PARSVD_TEST_ENV_D", 0.5); });
  }
  for (const char* bad : {"maybe", "2", "enabled"}) {
    expect_rejects("PARSVD_TEST_ENV_B", bad,
                   [] { return env::get_bool("PARSVD_TEST_ENV_B", true); });
  }
}

TEST(Env, BoundedIntRejectsOutOfRange) {
  unsetenv("PARSVD_TEST_ENV_I");
  // Unset: the fallback, as given.
  EXPECT_EQ(env::get_int("PARSVD_TEST_ENV_I", 7, 1, 4), 7);
  setenv("PARSVD_TEST_ENV_I", "4", 1);
  EXPECT_EQ(env::get_int("PARSVD_TEST_ENV_I", 0, 1, 4), 4);
  setenv("PARSVD_TEST_ENV_I", "1", 1);
  EXPECT_EQ(env::get_int("PARSVD_TEST_ENV_I", 0, 1, 4), 1);
  // Below and above: the error names the variable, the value and the
  // range.
  for (const char* bad : {"0", "-3", "5"}) {
    setenv("PARSVD_TEST_ENV_I", bad, 1);
    try {
      env::get_int("PARSVD_TEST_ENV_I", 2, 1, 4);
      ADD_FAILURE() << bad << " was accepted";
    } catch (const ConfigError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("PARSVD_TEST_ENV_I"), std::string::npos) << what;
      EXPECT_NE(what.find(std::string("=") + bad), std::string::npos) << what;
      EXPECT_NE(what.find("[1, 4]"), std::string::npos) << what;
    }
  }
  // A malformed value is still a parse error, whatever the range.
  expect_rejects("PARSVD_TEST_ENV_I", "3x",
                 [] { return env::get_int("PARSVD_TEST_ENV_I", 2, 1, 4); });
  unsetenv("PARSVD_TEST_ENV_I");
}

TEST(Env, BoundedDoubleRejectsOutOfRangeAndNan) {
  unsetenv("PARSVD_TEST_ENV_D");
  // Unset: the fallback, as given.
  EXPECT_DOUBLE_EQ(env::get_double("PARSVD_TEST_ENV_D", 2.5, 0.0, 1.0), 2.5);
  for (const char* ok : {"0", "1", "0.25"}) {
    setenv("PARSVD_TEST_ENV_D", ok, 1);
    EXPECT_DOUBLE_EQ(env::get_double("PARSVD_TEST_ENV_D", 0.5, 0.0, 1.0),
                     std::strtod(ok, nullptr));
  }
  // Outside the range — NaN included, which fails every comparison — the
  // error names the variable, the value and the range.
  for (const char* bad : {"5", "-0.1", "1.0000001", "nan", "inf"}) {
    setenv("PARSVD_TEST_ENV_D", bad, 1);
    try {
      env::get_double("PARSVD_TEST_ENV_D", 0.5, 0.0, 1.0);
      ADD_FAILURE() << bad << " was accepted";
    } catch (const ConfigError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("PARSVD_TEST_ENV_D"), std::string::npos) << what;
      EXPECT_NE(what.find(bad), std::string::npos) << what;
      EXPECT_NE(what.find("[0, 1]"), std::string::npos) << what;
    }
  }
  expect_rejects("PARSVD_TEST_ENV_D", "0.5x", [] {
    return env::get_double("PARSVD_TEST_ENV_D", 0.5, 0.0, 1.0);
  });
  unsetenv("PARSVD_TEST_ENV_D");
}

TEST(Env, ParsesDouble) {
  setenv("PARSVD_TEST_ENV_D", "0.95", 1);
  EXPECT_DOUBLE_EQ(env::get_double("PARSVD_TEST_ENV_D", 0.0), 0.95);
  unsetenv("PARSVD_TEST_ENV_D");
}

TEST(Env, ParsesBoolVariants) {
  for (const char* t : {"1", "true", "YES", "On"}) {
    setenv("PARSVD_TEST_ENV_B", t, 1);
    EXPECT_TRUE(env::get_bool("PARSVD_TEST_ENV_B", false)) << t;
  }
  for (const char* f : {"0", "false", "NO", "Off"}) {
    setenv("PARSVD_TEST_ENV_B", f, 1);
    EXPECT_FALSE(env::get_bool("PARSVD_TEST_ENV_B", true)) << f;
  }
  unsetenv("PARSVD_TEST_ENV_B");
}

// ---------------------------------------------------------------- errors

TEST(ErrorMacros, RequireThrowsWithContext) {
  try {
    PARSVD_REQUIRE(1 == 2, "one is not two");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("one is not two"), std::string::npos);
    EXPECT_NE(msg.find("1 == 2"), std::string::npos);
  }
}

TEST(ErrorMacros, CheckPassesSilently) {
  EXPECT_NO_THROW(PARSVD_CHECK(true, "fine"));
}

TEST(ErrorHierarchy, AllDeriveFromError) {
  EXPECT_THROW(throw DimensionError("d"), Error);
  EXPECT_THROW(throw ConvergenceError("c"), Error);
  EXPECT_THROW(throw IoError("i"), Error);
  EXPECT_THROW(throw CommError("m"), Error);
  EXPECT_THROW(throw ConfigError("g"), Error);
}

}  // namespace
}  // namespace parsvd
