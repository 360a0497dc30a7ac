// Unit tests for the util library: byte order, RNG determinism and
// distribution sanity, statistics, CSV/table output, CLI parsing, strings,
// and the small containers (SmallFunction, SmallVector, RingQueue).
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <memory>
#include <sstream>
#include <utility>

#include "util/byte_order.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/logging.hpp"
#include "util/ring_queue.hpp"
#include "util/rng.hpp"
#include "util/small_function.hpp"
#include "util/small_vector.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"

namespace sdnbuf::util {
namespace {

TEST(ByteOrder, RoundTrip16) {
  std::vector<std::uint8_t> buf;
  put_be16(buf, 0xabcd);
  ASSERT_EQ(buf.size(), 2u);
  EXPECT_EQ(buf[0], 0xab);
  EXPECT_EQ(buf[1], 0xcd);
  EXPECT_EQ(get_be16(buf, 0), 0xabcd);
}

TEST(ByteOrder, RoundTrip32) {
  std::vector<std::uint8_t> buf;
  put_be32(buf, 0xdeadbeef);
  EXPECT_EQ(get_be32(buf, 0), 0xdeadbeefu);
  EXPECT_EQ(buf[0], 0xde);  // big-endian: most significant byte first
}

TEST(ByteOrder, RoundTrip64) {
  std::vector<std::uint8_t> buf;
  put_be64(buf, 0x0123456789abcdefULL);
  EXPECT_EQ(get_be64(buf, 0), 0x0123456789abcdefULL);
}

TEST(ByteOrder, OffsetReads) {
  std::vector<std::uint8_t> buf;
  put_be16(buf, 1);
  put_be32(buf, 2);
  put_be16(buf, 3);
  EXPECT_EQ(get_be16(buf, 0), 1);
  EXPECT_EQ(get_be32(buf, 2), 2u);
  EXPECT_EQ(get_be16(buf, 6), 3);
}

TEST(ByteOrder, PadAppendsZeros) {
  std::vector<std::uint8_t> buf{0xff};
  put_pad(buf, 3);
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf[1], 0);
  EXPECT_EQ(buf[3], 0);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a{42};
  Rng b{42};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a{1};
  Rng b{2};
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng{7};
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(17), 17u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng{7};
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformMeanConverges) {
  Rng rng{11};
  Summary s;
  for (int i = 0; i < 20000; ++i) s.add(rng.uniform(2.0, 4.0));
  EXPECT_NEAR(s.mean(), 3.0, 0.02);
}

TEST(Rng, ExponentialMeanConverges) {
  Rng rng{13};
  Summary s;
  for (int i = 0; i < 50000; ++i) s.add(rng.exponential(5.0));
  EXPECT_NEAR(s.mean(), 5.0, 0.1);
}

TEST(Rng, NormalMomentsConverge) {
  Rng rng{17};
  Summary s;
  for (int i = 0; i < 50000; ++i) s.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(s.mean(), 10.0, 0.05);
  EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(Rng, LognormalMedianIsScale) {
  Rng rng{19};
  Samples s;
  for (int i = 0; i < 20000; ++i) s.add(rng.lognormal(3.0, 0.5));
  EXPECT_NEAR(s.median(), 3.0, 0.1);
  EXPECT_GT(s.min(), 0.0);  // lognormal is strictly positive
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a{42};
  Rng b = a.split();
  // The split stream must not replay the parent's output.
  Rng a2{42};
  a2.next_u64();  // advance past the split draw
  EXPECT_NE(b.next_u64(), a2.next_u64());
}

TEST(Summary, BasicMoments) {
  Summary s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Summary, EmptyIsZero) {
  const Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Summary, MergeMatchesPooled) {
  Rng rng{23};
  Summary all;
  Summary a;
  Summary b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(5.0, 3.0);
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Summary, MergeWithEmpty) {
  Summary a;
  a.add(1.0);
  Summary empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.0);
}

TEST(Samples, Percentiles) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_NEAR(s.percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(s.percentile(100), 100.0, 1e-9);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(25), 25.75, 1e-9);
}

TEST(Samples, SingleValue) {
  Samples s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.median(), 42.0);
  EXPECT_DOUBLE_EQ(s.percentile(99), 42.0);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Csv, EscapesSpecialCharacters) {
  std::ostringstream os;
  CsvWriter w{os};
  w.row_strings({"a,b", "plain", "say \"hi\""});
  EXPECT_EQ(os.str(), "\"a,b\",plain,\"say \"\"hi\"\"\"\n");
}

TEST(Csv, NumericRows) {
  std::ostringstream os;
  CsvWriter w{os};
  w.header({"x", "y"});
  w.row("label", {1.5});
  const std::string out = os.str();
  EXPECT_NE(out.find("x,y"), std::string::npos);
  EXPECT_NE(out.find("label,1.5"), std::string::npos);
}

TEST(Table, AlignsAndPrints) {
  TableWriter t{"demo"};
  t.set_columns({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row("beta", {2.5}, 1);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("2.5"), std::string::npos);
}

TEST(Cli, ParsesAllForms) {
  // Note: `--verbose` is last — a following non-flag token would be consumed
  // as its value (the `--key value` form).
  const char* argv[] = {"prog", "--rate=50", "--flows", "100", "pos", "--verbose"};
  CliFlags flags{6, argv, {"rate", "flows", "verbose"}};
  ASSERT_TRUE(flags.ok());
  EXPECT_DOUBLE_EQ(flags.get_double("rate", 0), 50.0);
  EXPECT_EQ(flags.get_int("flows", 0), 100);
  EXPECT_TRUE(flags.get_bool("verbose", false));
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "pos");
}

TEST(Cli, RejectsUnknownFlag) {
  const char* argv[] = {"prog", "--bogus=1"};
  const CliFlags flags{2, argv, {"rate"}};
  EXPECT_FALSE(flags.ok());
  EXPECT_NE(flags.error().find("bogus"), std::string::npos);
}

TEST(Cli, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  const CliFlags flags{1, argv, {"rate"}};
  ASSERT_TRUE(flags.ok());
  EXPECT_DOUBLE_EQ(flags.get_double("rate", 7.5), 7.5);
  EXPECT_FALSE(flags.has("rate"));
}

TEST(Strings, RateFormatting) {
  EXPECT_EQ(format_rate_bps(5e6), "5 Mbps");
  EXPECT_EQ(format_rate_bps(1.5e9), "1.5 Gbps");
  EXPECT_EQ(format_rate_bps(800.0), "800 bps");
}

TEST(Strings, DurationFormatting) {
  EXPECT_EQ(format_duration_ns(1'500'000), "1.5 ms");
  EXPECT_EQ(format_duration_ns(2'000), "2 us");
}

TEST(Strings, HexDumpTruncates) {
  const std::uint8_t data[] = {0xde, 0xad, 0xbe, 0xef};
  EXPECT_EQ(hex_dump(data, 4), "de ad be ef");
  EXPECT_EQ(hex_dump(data, 4, 2), "de ad ...");
}

TEST(SmallFunction, InvokesAndReturnsValue) {
  SmallFunction<int(int)> f([](int x) { return x * 2; });
  ASSERT_TRUE(static_cast<bool>(f));
  EXPECT_EQ(f(21), 42);
}

TEST(SmallFunction, DefaultConstructedIsEmpty) {
  SmallFunction<void()> f;
  EXPECT_FALSE(static_cast<bool>(f));
}

TEST(SmallFunction, SmallCapturesStayInline) {
  int a = 1, b = 2, c = 3;
  SmallFunction<int(), 64> f([a, b, c]() { return a + b + c; });
  EXPECT_TRUE(f.is_inline());
  EXPECT_EQ(f(), 6);
}

TEST(SmallFunction, OversizedCapturesFallBackToHeap) {
  std::array<char, 128> big{};
  big[0] = 'x';
  SmallFunction<char(), 64> f([big]() { return big[0]; });
  EXPECT_FALSE(f.is_inline());
  EXPECT_EQ(f(), 'x');
}

TEST(SmallFunction, MoveTransfersOwnership) {
  int hits = 0;
  SmallFunction<void()> f([&hits]() { ++hits; });
  SmallFunction<void()> g(std::move(f));
  EXPECT_FALSE(static_cast<bool>(f));  // NOLINT(bugprone-use-after-move): asserting moved-from state
  ASSERT_TRUE(static_cast<bool>(g));
  g();
  EXPECT_EQ(hits, 1);

  SmallFunction<void()> h;
  h = std::move(g);
  h();
  EXPECT_EQ(hits, 2);
}

TEST(SmallFunction, HoldsMoveOnlyCallable) {
  auto p = std::make_unique<int>(7);
  SmallFunction<int()> f([p = std::move(p)]() { return *p; });
  EXPECT_EQ(f(), 7);
  SmallFunction<int()> g(std::move(f));
  EXPECT_EQ(g(), 7);
}

TEST(SmallVector, KeepsShortListsInline) {
  SmallVector<int, 2> v{1, 2};
  EXPECT_TRUE(v.is_inline());
  EXPECT_EQ(v.size(), 2u);
  SmallVector<int, 2> copy = v;
  EXPECT_TRUE(copy.is_inline());
  EXPECT_EQ(copy, v);
  copy[1] = 5;
  EXPECT_EQ(v[1], 2);  // a copy shares nothing
  EXPECT_FALSE(copy == v);
}

TEST(SmallVector, GrowsOntoTheHeapPastInlineCapacity) {
  SmallVector<int, 2> v;
  for (int i = 0; i < 9; ++i) v.push_back(i);
  EXPECT_FALSE(v.is_inline());
  ASSERT_EQ(v.size(), 9u);
  for (int i = 0; i < 9; ++i) EXPECT_EQ(v[i], i);
  EXPECT_EQ(v.front(), 0);
  EXPECT_EQ(v.back(), 8);
  // Pushing an element of the vector itself survives the regrow it causes.
  SmallVector<int, 2> w{7, 8};
  w.push_back(w.front());
  EXPECT_EQ(w, (SmallVector<int, 2>{7, 8, 7}));
}

TEST(SmallVector, MoveStealsTheHeapBlockAndEmptiesTheSource) {
  SmallVector<int, 2> big{1, 2, 3, 4};
  const int* block = big.data();
  SmallVector<int, 2> moved = std::move(big);
  EXPECT_EQ(moved.data(), block);
  EXPECT_TRUE(big.empty());  // NOLINT(bugprone-use-after-move): asserting moved-from state
  EXPECT_TRUE(big.is_inline());
  SmallVector<int, 2> small{5};
  small = std::move(moved);
  EXPECT_EQ(small, (SmallVector<int, 2>{1, 2, 3, 4}));
  small = SmallVector<int, 2>{6};
  EXPECT_TRUE(small.is_inline());
  EXPECT_EQ(small.size(), 1u);
  small.clear();
  EXPECT_TRUE(small.empty());
}

TEST(RingQueue, IsFifoAcrossGrowthAndWrapAround) {
  RingQueue<std::unique_ptr<int>> q;
  EXPECT_TRUE(q.empty());
  int next_in = 0;
  int next_out = 0;
  // Interleave pushes and pops so the head wraps before each regrow.
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 3 + 2 * round; ++i) q.push_back(std::make_unique<int>(next_in++));
    for (int i = 0; i < 2 + round; ++i) EXPECT_EQ(*q.pop_front(), next_out++);
  }
  EXPECT_EQ(q.size(), static_cast<std::size_t>(next_in - next_out));
  while (!q.empty()) EXPECT_EQ(*q.pop_front(), next_out++);
  EXPECT_EQ(next_out, next_in);
}

TEST(SmallFunction, ResetReleasesTheCallable) {
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> alive = token;
  SmallFunction<void()> f([token = std::move(token)]() {});
  EXPECT_FALSE(alive.expired());
  f = nullptr;
  EXPECT_TRUE(alive.expired());
  EXPECT_FALSE(static_cast<bool>(f));
}

TEST(SmallFunction, AssignmentDestroysPreviousCallable) {
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> alive = token;
  SmallFunction<int()> f([token = std::move(token)]() { return 1; });
  f = SmallFunction<int()>([]() { return 2; });
  EXPECT_TRUE(alive.expired());
  EXPECT_EQ(f(), 2);
}

TEST(Logging, LogLevelFromNameParsesAllLevels) {
  EXPECT_EQ(log_level_from_name("trace"), LogLevel::Trace);
  EXPECT_EQ(log_level_from_name("debug"), LogLevel::Debug);
  EXPECT_EQ(log_level_from_name("info"), LogLevel::Info);
  EXPECT_EQ(log_level_from_name("warn"), LogLevel::Warn);
  EXPECT_EQ(log_level_from_name("error"), LogLevel::Error);
  EXPECT_EQ(log_level_from_name("off"), LogLevel::Off);
  EXPECT_EQ(log_level_from_name("INFO"), LogLevel::Info);  // case-insensitive
  EXPECT_FALSE(log_level_from_name("verbose").has_value());
  EXPECT_FALSE(log_level_from_name("").has_value());
}

}  // namespace
}  // namespace sdnbuf::util
