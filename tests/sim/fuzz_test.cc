// Failure-injection / fuzz-style tests for the text pipelines: arbitrary
// byte soup must never crash the parsers, and their bookkeeping must stay
// internally consistent.
#include <string>

#include <gtest/gtest.h>

#include "src/sim/delicious_format.h"
#include "src/util/random.h"

namespace incentag {
namespace sim {
namespace {

std::string RandomGarbage(util::Rng* rng, size_t length) {
  // Printable-ish soup with plenty of structure characters.
  static const char kAlphabet[] =
      "abcXYZ0123456789 \t\n#.:/-_\\\"'%$&*()[]{}";
  std::string out;
  out.reserve(length);
  for (size_t i = 0; i < length; ++i) {
    out += kAlphabet[rng->NextBounded(sizeof(kAlphabet) - 1)];
  }
  return out;
}

class DumpFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DumpFuzzTest, GarbageNeverCrashesAndCountsAreConsistent) {
  util::Rng rng(GetParam());
  for (int round = 0; round < 20; ++round) {
    std::string text = RandomGarbage(&rng, 1 + rng.NextBounded(2000));
    auto dump = ReadDumpText(text);
    ASSERT_TRUE(dump.ok());  // the reader skips, it does not fail
    const RawDump& d = dump.value();
    EXPECT_EQ(d.lines, d.posts + d.skipped);
    EXPECT_EQ(d.urls.size(), d.sequences.size());
    int64_t total_posts = 0;
    for (const auto& seq : d.sequences) {
      total_posts += static_cast<int64_t>(seq.size());
      for (const auto& post : seq) {
        EXPECT_FALSE(post.empty());
        for (core::TagId t : post.tags) {
          EXPECT_LT(t, d.vocab.size());
        }
      }
    }
    EXPECT_EQ(total_posts, d.posts);
  }
}

TEST_P(DumpFuzzTest, HalfValidLinesKeepTheValidOnes) {
  util::Rng rng(GetParam() ^ 0xABCDu);
  for (int round = 0; round < 10; ++round) {
    std::string text;
    int valid = 0;
    for (int line = 0; line < 50; ++line) {
      if (rng.NextBool(0.5)) {
        text += std::to_string(line) + "\tuser\thttp://u" +
                std::to_string(rng.NextBounded(5)) + "\ttag" +
                std::to_string(rng.NextBounded(8)) + "\n";
        ++valid;
      } else {
        text += RandomGarbage(&rng, rng.NextBounded(60));
        text += '\n';
      }
    }
    auto dump = ReadDumpText(text);
    ASSERT_TRUE(dump.ok());
    // Garbage may accidentally parse, so posts >= valid; never fewer.
    EXPECT_GE(dump.value().posts, valid);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DumpFuzzTest,
                         ::testing::Values(1u, 42u, 31337u));

}  // namespace
}  // namespace sim
}  // namespace incentag
