// Tests for the CLI argument parser.
#include <gtest/gtest.h>

#include "args.hpp"

namespace {

using are::tools::Args;

Args make_args(std::vector<std::string> tokens) {
  static std::vector<std::string> storage;
  storage = std::move(tokens);
  static std::vector<char*> pointers;
  pointers.clear();
  pointers.push_back(const_cast<char*>("are_cli"));
  for (auto& token : storage) pointers.push_back(token.data());
  return Args(static_cast<int>(pointers.size()), pointers.data(), 1);
}

TEST(Args, EqualsForm) {
  const Args args = make_args({"--trials=500", "--out=file.yet"});
  EXPECT_EQ(args.get_u64("trials", 0), 500u);
  EXPECT_EQ(args.get("out", ""), "file.yet");
}

TEST(Args, SpaceForm) {
  const Args args = make_args({"--trials", "500", "--out", "file.yet"});
  EXPECT_EQ(args.get_u64("trials", 0), 500u);
  EXPECT_EQ(args.require("out"), "file.yet");
}

TEST(Args, BareFlag) {
  const Args args = make_args({"--secondary-uncertainty", "--trials", "10"});
  EXPECT_TRUE(args.has("secondary-uncertainty"));
  EXPECT_EQ(args.get_u64("trials", 0), 10u);
}

TEST(Args, FlagFollowedByFlag) {
  const Args args = make_args({"--verbose", "--quiet"});
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_TRUE(args.has("quiet"));
}

TEST(Args, PositionalArguments) {
  const Args args = make_args({"a.elt", "--out", "x", "b.elt"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "a.elt");
  EXPECT_EQ(args.positional()[1], "b.elt");
}

TEST(Args, Defaults) {
  const Args args = make_args({});
  EXPECT_FALSE(args.has("missing"));
  EXPECT_EQ(args.get("missing", "fallback"), "fallback");
  EXPECT_EQ(args.get_u64("missing", 42), 42u);
  EXPECT_DOUBLE_EQ(args.get_double("missing", 2.5), 2.5);
}

TEST(Args, RequireThrowsWhenMissingOrEmpty) {
  const Args args = make_args({"--empty="});
  EXPECT_THROW(args.require("missing"), std::runtime_error);
  EXPECT_THROW(args.require("empty"), std::runtime_error);
}

TEST(Args, NumericValidation) {
  const Args args = make_args({"--bad", "xyz", "--negative", "-5"});
  EXPECT_THROW(args.get_u64("bad", 0), std::runtime_error);
  EXPECT_THROW(args.get_u64("negative", 0), std::runtime_error);
  EXPECT_THROW(args.get_double("bad", 0.0), std::runtime_error);
  EXPECT_DOUBLE_EQ(args.get_double("negative", 0.0), -5.0);
}

TEST(Args, ScientificNotationDoubles) {
  const Args args = make_args({"--retention", "2.5e6"});
  EXPECT_DOUBLE_EQ(args.get_double("retention", 0.0), 2.5e6);
}

TEST(Args, RepeatedSingleValuedOptionThrows) {
  // A repeat must never silently keep one of the values.
  const Args args = make_args({"--seed", "1", "--seed=2"});
  EXPECT_TRUE(args.has("seed"));
  EXPECT_THROW(args.get_u64("seed", 0), std::runtime_error);
  EXPECT_THROW(args.get("seed", ""), std::runtime_error);
  EXPECT_THROW(args.require("seed"), std::runtime_error);
  EXPECT_THROW(args.get_double("seed", 0.0), std::runtime_error);
}

TEST(Args, GetAllReturnsEveryValueOfARepeatableOption) {
  const Args args = make_args({"--elt", "a.elt", "--trials", "5", "--elt=b.elt"});
  EXPECT_EQ(args.get_all("elt"), (std::vector<std::string>{"a.elt", "b.elt"}));
  EXPECT_EQ(args.get_all("trials"), (std::vector<std::string>{"5"}));
  EXPECT_TRUE(args.get_all("missing").empty());
}

}  // namespace
