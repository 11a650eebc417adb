#include "src/core/post_stream.h"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/types.h"

namespace incentag {
namespace core {
namespace {

std::vector<PostSequence> MakeSequences() {
  std::vector<PostSequence> seqs(2);
  seqs[0].push_back(Post::FromTags({1}));
  seqs[0].push_back(Post::FromTags({2}));
  seqs[1].push_back(Post::FromTags({3}));
  return seqs;
}

TEST(VectorPostStreamTest, IteratesInOrder) {
  VectorPostStream stream(MakeSequences());
  EXPECT_EQ(stream.num_resources(), 2u);
  ASSERT_TRUE(stream.HasNext(0));
  EXPECT_EQ(stream.Next(0).tags, (std::vector<TagId>{1}));
  EXPECT_EQ(stream.Next(0).tags, (std::vector<TagId>{2}));
  EXPECT_FALSE(stream.HasNext(0));
  EXPECT_EQ(stream.Consumed(0), 2);
}

TEST(VectorPostStreamTest, ResourcesAreIndependent) {
  VectorPostStream stream(MakeSequences());
  EXPECT_EQ(stream.Next(1).tags, (std::vector<TagId>{3}));
  EXPECT_FALSE(stream.HasNext(1));
  EXPECT_TRUE(stream.HasNext(0));
  EXPECT_EQ(stream.Consumed(0), 0);
}

TEST(VectorPostStreamTest, PeekDoesNotConsume) {
  VectorPostStream stream(MakeSequences());
  EXPECT_EQ(stream.Peek(0, 1).tags, (std::vector<TagId>{2}));
  EXPECT_EQ(stream.Consumed(0), 0);
  EXPECT_EQ(stream.Available(0), 2);
  EXPECT_EQ(stream.Available(1), 1);
}

TEST(VectorPostStreamTest, ResetRestoresCursors) {
  VectorPostStream stream(MakeSequences());
  stream.Next(0);
  stream.Next(1);
  stream.Reset();
  EXPECT_EQ(stream.Consumed(0), 0);
  EXPECT_EQ(stream.Consumed(1), 0);
  EXPECT_EQ(stream.Next(0).tags, (std::vector<TagId>{1}));
}

TEST(VectorPostStreamTest, SkipSeeksAndRejectsOverrun) {
  VectorPostStream stream(MakeSequences());
  ASSERT_TRUE(stream.Skip(0, 1).ok());
  EXPECT_EQ(stream.Consumed(0), 1);
  EXPECT_EQ(stream.Next(0).tags, (std::vector<TagId>{2}));
  EXPECT_FALSE(stream.Skip(1, 2).ok());
  EXPECT_TRUE(stream.Skip(1, 1).ok());
  EXPECT_FALSE(stream.HasNext(1));
  EXPECT_EQ(stream.Available(1), 1);  // from the start, not the cursor
}

TEST(VectorPostStreamTest, ByValueStreamOwnsItsPosts) {
  auto source = std::make_unique<std::vector<PostSequence>>(MakeSequences());
  VectorPostStream stream(*source);
  source.reset();
  ASSERT_TRUE(stream.HasNext(0));
  EXPECT_EQ(stream.Next(0).tags, (std::vector<TagId>{1}));
  EXPECT_EQ(stream.Peek(1, 0).tags, (std::vector<TagId>{3}));
  EXPECT_EQ(stream.Available(0), 2);
}

TEST(VectorPostStreamTest, SharedPostsHaveIndependentCursors) {
  auto posts = std::make_shared<const std::vector<PostSequence>>(
      MakeSequences());
  VectorPostStream a(posts);
  VectorPostStream b(posts);
  EXPECT_EQ(&a.Peek(0, 1), &b.Peek(0, 1));
  EXPECT_EQ(a.Next(0).tags, (std::vector<TagId>{1}));
  EXPECT_EQ(a.Consumed(0), 1);
  EXPECT_EQ(b.Consumed(0), 0);
  EXPECT_EQ(b.Next(0).tags, (std::vector<TagId>{1}));
  a.Reset();
  EXPECT_EQ(a.Consumed(0), 0);
  EXPECT_EQ(b.Consumed(0), 1);
}

TEST(VectorPostStreamTest, EmptySequenceHasNoNext) {
  std::vector<PostSequence> seqs(1);
  VectorPostStream stream(std::move(seqs));
  EXPECT_FALSE(stream.HasNext(0));
  EXPECT_EQ(stream.Available(0), 0);
}

}  // namespace
}  // namespace core
}  // namespace incentag
