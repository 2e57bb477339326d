// Tests for sops::support — the parallel_for primitive and error handling.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <span>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "support/error.hpp"
#include "support/executor.hpp"
#include "support/parallel_for.hpp"

namespace {

using sops::support::expect;
using sops::support::parallel_for;
using sops::support::parallel_for_chunked;
using sops::support::parallel_for_shards;
using sops::support::TaskPool;

TEST(Expect, PassesOnTrue) { EXPECT_NO_THROW(expect(true, "never")); }

TEST(Expect, ThrowsPreconditionErrorOnFalse) {
  EXPECT_THROW(expect(false, "boom"), sops::PreconditionError);
}

TEST(Expect, MessagePropagates) {
  try {
    expect(false, "the message");
    FAIL() << "expected throw";
  } catch (const sops::PreconditionError& e) {
    EXPECT_STREQ(e.what(), "the message");
  }
}

TEST(ErrorHierarchy, AllDeriveFromError) {
  EXPECT_THROW(throw sops::PreconditionError("x"), sops::Error);
  EXPECT_THROW(throw sops::NumericalError("x"), sops::Error);
  EXPECT_THROW(throw sops::Error("x"), std::runtime_error);
}

// The loops over a TaskPool of each width (0 = every hardware thread): the
// transient pool an options struct's `threads` fallback builds.
class ParallelForThreads : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ParallelForThreads, VisitsEveryIndexExactlyOnce) {
  const std::size_t count = 1000;
  std::vector<std::atomic<int>> visits(count);
  TaskPool pool(GetParam());
  parallel_for(pool.executor(), 0, count,
               [&](std::size_t i) { visits[i].fetch_add(1); });
  for (std::size_t i = 0; i < count; ++i) EXPECT_EQ(visits[i].load(), 1) << i;
}

TEST_P(ParallelForThreads, ChunksPartitionTheRange) {
  const std::size_t count = 777;
  std::vector<std::atomic<int>> visits(count);
  TaskPool pool(GetParam());
  parallel_for_chunked(pool.executor(), 0, count,
                       [&](std::size_t begin, std::size_t end) {
                         EXPECT_LE(begin, end);
                         for (std::size_t i = begin; i < end; ++i) {
                           visits[i].fetch_add(1);
                         }
                       });
  for (std::size_t i = 0; i < count; ++i) EXPECT_EQ(visits[i].load(), 1) << i;
}

TEST_P(ParallelForThreads, NonZeroBegin) {
  std::atomic<int> sum{0};
  TaskPool pool(GetParam());
  parallel_for(pool.executor(), 10, 20,
               [&](std::size_t i) { sum.fetch_add(static_cast<int>(i)); });
  EXPECT_EQ(sum.load(), 145);  // 10 + 11 + … + 19
}

TEST_P(ParallelForThreads, ResultsMatchSerialReference) {
  const std::size_t count = 257;
  std::vector<double> out(count, 0.0);
  TaskPool pool(GetParam());
  parallel_for(pool.executor(), 0, count, [&](std::size_t i) {
    out[i] = static_cast<double>(i) * 1.5 + 1.0;
  });
  for (std::size_t i = 0; i < count; ++i) {
    EXPECT_DOUBLE_EQ(out[i], static_cast<double>(i) * 1.5 + 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParallelForThreads,
                         ::testing::Values(1, 2, 3, 8, 0));

TEST(ParallelFor, EmptyRangeIsNoop) {
  bool called = false;
  TaskPool pool(0);
  parallel_for(pool.executor(), 5, 5, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, ReversedRangeIsNoop) {
  bool called = false;
  TaskPool pool(0);
  parallel_for(pool.executor(), 7, 3, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, SingleElementRunsInline) {
  std::thread::id body_thread;
  TaskPool pool(4);
  parallel_for(pool.executor(), 0, 1, [&](std::size_t) {
    body_thread = std::this_thread::get_id();
  });
  EXPECT_TRUE(body_thread == std::this_thread::get_id());
}

TEST(ParallelFor, ExceptionsPropagateToCaller) {
  TaskPool pool(4);
  EXPECT_THROW(parallel_for(pool.executor(), 0, 100,
                            [](std::size_t i) {
                              if (i == 42) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
}

TEST(ParallelFor, ExceptionAbandonsOnlyTheThrowingChunk) {
  // An exception ends the throwing worker's chunk; other workers are joined
  // normally and complete their chunks. With 2 workers over [0, 100) the
  // contiguous partition is [0, 50) and [50, 100); a throw at index 0 must
  // leave the second chunk fully processed.
  std::vector<std::atomic<int>> visits(100);
  TaskPool pool(2);
  try {
    parallel_for(pool.executor(), 0, 100, [&](std::size_t i) {
      visits[i].fetch_add(1);
      if (i == 0) throw std::runtime_error("boom");
    });
    FAIL() << "expected throw";
  } catch (const std::runtime_error&) {
  }
  for (std::size_t i = 50; i < 100; ++i) EXPECT_EQ(visits[i].load(), 1) << i;
  EXPECT_EQ(visits[0].load(), 1);
}

TEST(ParallelFor, MoreThreadsThanWorkIsSafe) {
  std::atomic<int> count{0};
  TaskPool pool(8);
  parallel_for(pool.executor(), 0, 3, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 3);
}

TEST(ExplicitPartition, ChunksFollowCallerBoundaries) {
  const std::vector<std::uint32_t> bounds{0, 3, 3, 10, 40};
  std::vector<std::atomic<int>> visits(40);
  std::mutex chunks_mutex;
  std::vector<std::tuple<std::size_t, std::size_t, std::size_t>> chunks;
  TaskPool pool(4);
  const sops::support::Executor& executor = pool.executor();
  parallel_for_shards(executor, std::span<const std::uint32_t>(bounds),
                      [&](std::size_t k, std::size_t begin, std::size_t end) {
                        {
                          const std::lock_guard<std::mutex> lock(chunks_mutex);
                          chunks.emplace_back(k, begin, end);
                        }
                        for (std::size_t i = begin; i < end; ++i) {
                          visits[i].fetch_add(1);
                        }
                      });
  for (std::size_t i = 0; i < visits.size(); ++i) {
    EXPECT_EQ(visits[i].load(), 1) << i;
  }
  // The empty chunk [3, 3) is skipped; the three non-empty ones run as
  // given, each with its position in `bounds` as its index.
  std::sort(chunks.begin(), chunks.end());
  const std::vector<std::tuple<std::size_t, std::size_t, std::size_t>>
      expected = {{0, 0, 3}, {2, 3, 10}, {3, 10, 40}};
  EXPECT_EQ(chunks, expected);
}

TEST(ExplicitPartition, SingleChunkRunsInline) {
  const std::vector<std::uint32_t> bounds{0, 0, 5, 5};
  std::thread::id body_thread;
  std::size_t index = 0;
  TaskPool pool(4);
  const sops::support::Executor& executor = pool.executor();
  parallel_for_shards(executor, std::span<const std::uint32_t>(bounds),
                      [&](std::size_t k, std::size_t, std::size_t) {
                        body_thread = std::this_thread::get_id();
                        index = k;
                      });
  EXPECT_TRUE(body_thread == std::this_thread::get_id());
  EXPECT_EQ(index, 1u);
}

TEST(ExplicitPartition, DegenerateBoundsAreNoops) {
  bool called = false;
  const auto body = [&](std::size_t, std::size_t, std::size_t) {
    called = true;
  };
  TaskPool pool(4);
  const sops::support::Executor& executor = pool.executor();
  parallel_for_shards(executor, std::span<const std::uint32_t>(), body);
  const std::vector<std::uint32_t> single{7};
  parallel_for_shards(executor, std::span<const std::uint32_t>(single), body);
  const std::vector<std::uint32_t> all_empty{4, 4, 4};
  parallel_for_shards(executor, std::span<const std::uint32_t>(all_empty),
                      body);
  EXPECT_FALSE(called);
}

TEST(ExplicitPartition, ExceptionsPropagateToCaller) {
  const std::vector<std::uint32_t> bounds{0, 10, 20, 30};
  TaskPool pool(4);
  const sops::support::Executor& executor = pool.executor();
  EXPECT_THROW(
      parallel_for_shards(executor, std::span<const std::uint32_t>(bounds),
                          [](std::size_t, std::size_t begin, std::size_t) {
                            if (begin == 10) throw std::runtime_error("boom");
                          }),
      std::runtime_error);
}

TEST(DefaultThreadCount, IsPositive) {
  EXPECT_GE(sops::support::default_thread_count(), 1u);
}

}  // namespace
