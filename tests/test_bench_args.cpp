// The --threads flag shared by the fig binaries. parse_threads accepts only
// a plain decimal count in [1, kMaxThreads]; the hostile strings are checked
// by calling the parser directly, so no test builds a pool from them.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench_common.hpp"

namespace esh::bench {
namespace {

TEST(BenchArgs, ParseThreadsAcceptsCountsInRange) {
  EXPECT_EQ(parse_threads("1"), 1u);
  EXPECT_EQ(parse_threads("4"), 4u);
  EXPECT_EQ(parse_threads("256"), kMaxThreads);
}

TEST(BenchArgs, ParseThreadsRejectsHostileStrings) {
  for (const char* text :
       {"", "abc", "-1", "+4", " 4", "4 ", "4x", "0x4", "4.0", "1e3", "0",
        "257", "100000", "18446744073709551616"}) {
    EXPECT_FALSE(parse_threads(text).has_value()) << "'" << text << "'";
  }
}

TEST(BenchArgs, ParseArgsReadsBothFormsAndLeavesOtherFlags) {
  const auto parse = [](std::vector<std::string> args) {
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    parse_args(static_cast<int>(argv.size()), argv.data());
  };
  parse({"fig", "--json", "--threads=3"});
  EXPECT_EQ(threads_flag(), 3u);
  parse({"fig", "--threads", "2", "--json"});
  EXPECT_EQ(threads_flag(), 2u);
  threads_flag() = 1;
}

}  // namespace
}  // namespace esh::bench
