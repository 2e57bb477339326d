// Minimal data-parallel loops over an index range — thin wrappers over the
// Executor layer (support/executor.hpp).
//
// All parallelism in sops goes through these primitives so that the
// numerical code stays free of threading concerns. Work items must be
// independent; determinism is the caller's responsibility (in practice each
// simulation sample owns its RNG substream and each chunk owns a disjoint
// output range, so results are identical for any width, including 1).
//
// The wrappers compute the chunk partition; the executor only decides which
// runner executes which chunk. Each loop has one form, taking the Executor
// view to dispatch on: a lent view of a TaskPool on the engine's pooled
// paths, serial_executor() for serial callers, or a transient pool's view
// where an options struct's `threads` fallback asks for one. The partition
// depends only on the range and the executor's width, so two executors of
// equal width never change results.
//
// Every loop is templated on the body type: the body is invoked directly
// (inlined into the chunk loop), with type erasure only at the chunk level.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>

#include "support/executor.hpp"

namespace sops::support {

/// Runs `chunk_body(chunk_begin, chunk_end)` over a contiguous equal
/// partition of [begin, end) with `min(executor.width(), count)` chunks.
/// Use when per-iteration dispatch overhead matters (tight numerical
/// kernels) or when a worker should set up per-chunk state (scratch
/// buffers, workspaces) once.
///
/// A single chunk (width 1, or a range of at most one element) runs inline
/// with no executor round-trip, which keeps small problems cheap and makes
/// single-threaded debugging trivial. If any invocation throws, the first
/// exception is rethrown on the calling thread after all chunks finished
/// (inline runs propagate immediately).
template <typename ChunkBody>
void parallel_for_chunked(const Executor& executor, std::size_t begin,
                          std::size_t end, ChunkBody&& chunk_body) {
  if (begin >= end) return;
  const std::size_t count = end - begin;
  const std::size_t chunks = std::min(executor.width(), count);
  if (chunks <= 1) {
    chunk_body(begin, end);
    return;
  }
  auto chunk_task = [&](std::size_t k) {
    const ChunkRange range = chunk_range(k, count, chunks);
    chunk_body(begin + range.begin, begin + range.end);
  };
  executor.run(chunks, chunk_task);
}

/// Explicit-partition loop: runs `chunk_body(k, bounds[k], bounds[k+1])`
/// for every k with a non-empty range, with caller-supplied chunk
/// boundaries instead of an equal division. `bounds` must be ascending
/// (empty chunks are skipped); a partition with at most one non-empty
/// chunk, or a width-1 executor, runs inline in index order. Live workers
/// are capped at the executor's width no matter how many chunks the
/// partition holds — chunks queue and drain as runners free up.
///
/// The index k is the chunk's position in `bounds` — stable across
/// executor widths — so callers can bind per-shard scratch buffers to k
/// without racing (buffer k is touched only by chunk k, whichever worker
/// runs it); callers with no per-shard state ignore it. The partition is
/// the caller's contract with determinism: boundaries that do not depend
/// on the machine give bitwise-stable results at any width. Exception
/// semantics match `parallel_for_chunked`.
template <typename ChunkBody, typename Index>
void parallel_for_shards(const Executor& executor,
                         std::span<const Index> bounds,
                         ChunkBody&& chunk_body) {
  if (bounds.size() < 2) return;
  std::size_t non_empty = 0;
  for (std::size_t k = 0; k + 1 < bounds.size(); ++k) {
    if (bounds[k] < bounds[k + 1]) ++non_empty;
  }
  if (non_empty == 0) return;
  if (non_empty == 1 || executor.width() <= 1) {
    for (std::size_t k = 0; k + 1 < bounds.size(); ++k) {
      if (bounds[k] < bounds[k + 1]) {
        chunk_body(k, static_cast<std::size_t>(bounds[k]),
                   static_cast<std::size_t>(bounds[k + 1]));
      }
    }
    return;
  }
  auto chunk_task = [&](std::size_t k) {
    if (bounds[k] < bounds[k + 1]) {
      chunk_body(k, static_cast<std::size_t>(bounds[k]),
                 static_cast<std::size_t>(bounds[k + 1]));
    }
  };
  executor.run(bounds.size() - 1, chunk_task);
}

/// Runs `body(i)` for every i in [begin, end) across the executor's
/// runners. Indices are partitioned into contiguous blocks, one per chunk,
/// so neighboring iterations share cache lines of the same output region.
/// Same semantics as `parallel_for_chunked`.
template <typename Body>
void parallel_for(const Executor& executor, std::size_t begin, std::size_t end,
                  Body&& body) {
  parallel_for_chunked(
      executor, begin, end,
      [&body](std::size_t chunk_begin, std::size_t chunk_end) {
        for (std::size_t i = chunk_begin; i < chunk_end; ++i) body(i);
      });
}

}  // namespace sops::support
