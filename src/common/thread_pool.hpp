#pragma once
/// \file thread_pool.hpp
/// \brief Persistent worker pool for fine-grained parallel regions.
///
/// Spawning threads per parallel region is fine for coarse sweep cells
/// (milliseconds each) but poisonous for the climate model's stencil
/// substeps and the evaluation engine's neighborhood batches (tens of
/// microseconds each — thread creation costs more than the work).
/// ThreadPool keeps its workers alive between regions: dispatch is one
/// mutex/condition-variable handshake, and the calling thread participates in
/// the work, so a pool of W workers yields W+1-way parallelism. Every
/// parallel loop in the library runs on shared_pool().
///
/// Three properties the evaluation engine leans on:
///  * No per-call type erasure: parallel_for is a template dispatching the
///    body through one function pointer + context pointer, so passing a
///    capturing lambda never heap-allocates a std::function.
///  * Nested-use guard: a body that (transitively) calls parallel_for again —
///    e.g. a simulation running under the service while the service sweeps —
///    runs the inner region inline on the calling thread instead of
///    oversubscribing or deadlocking on the non-reentrant pool.
///  * Cross-caller serialization: independent threads may call parallel_for
///    on the same pool concurrently; whole regions are serialized through an
///    internal mutex, so each caller gets the full pool in turn.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace oagrid {

namespace detail {
/// True on any thread currently executing inside a parallel region (pool
/// worker or pool caller). Maintained as a nesting depth so regions can
/// stack.
[[nodiscard]] bool in_parallel_region() noexcept;
void enter_parallel_region() noexcept;
void leave_parallel_region() noexcept;

struct RegionMark {
  RegionMark() noexcept { enter_parallel_region(); }
  ~RegionMark() { leave_parallel_region(); }
  RegionMark(const RegionMark&) = delete;
  RegionMark& operator=(const RegionMark&) = delete;
};
}  // namespace detail

/// Hardware concurrency, at least 1.
[[nodiscard]] std::size_t default_parallelism() noexcept;

class ThreadPool {
 public:
  /// Creates `workers` persistent worker threads (0 is valid: every region
  /// runs entirely on the calling thread).
  explicit ThreadPool(std::size_t workers);

  /// Joins all workers. Must not be called while a region is in flight.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t worker_count() const noexcept {
    return threads_.size();
  }

  /// Runs body(i) for every i in [begin, end) across the workers plus the
  /// calling thread; returns when all iterations finished. Iterations are
  /// claimed through a shared cursor (dynamic schedule). Exceptions from the
  /// body are captured and the first one rethrown here.
  ///
  /// `max_threads` caps the number of participating threads (including the
  /// caller); 0 means workers + 1. A cap of 1, a nested call from inside any
  /// parallel region, or a zero-worker pool all run the loop inline — in
  /// index order, so single-threaded executions stay deterministic.
  template <typename Body>
  void parallel_for(std::size_t begin, std::size_t end, Body&& body,
                    std::size_t max_threads = 0) {
    if (begin >= end) return;
    using Fn = std::remove_reference_t<Body>;
    if (threads_.empty() || max_threads == 1 || end - begin == 1 ||
        detail::in_parallel_region()) {
      const detail::RegionMark mark;
      for (std::size_t i = begin; i < end; ++i) body(i);
      return;
    }
    run_region(begin, end, &invoke_thunk<Fn>,
               const_cast<void*>(
                   static_cast<const void*>(std::addressof(body))),
               max_threads);
  }

 private:
  using InvokeFn = void (*)(void*, std::size_t);

  template <typename Fn>
  static void invoke_thunk(void* ctx, std::size_t i) {
    (*static_cast<Fn*>(ctx))(i);
  }

  void run_region(std::size_t begin, std::size_t end, InvokeFn invoke,
                  void* ctx, std::size_t max_threads);
  void worker_loop();
  void run_chunks();

  std::vector<std::thread> threads_;

  /// Serializes whole regions across independent calling threads.
  std::mutex region_mutex_;

  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable work_done_;
  std::uint64_t generation_ = 0;
  bool shutdown_ = false;

  // Current region. Published under mutex_ (generation bump is the release
  // point); workers read after observing the new generation under the same
  // mutex. The caller's final wait requires every worker to have both
  // observed the region and left it before parallel_for returns, so the
  // body never dangles.
  InvokeFn invoke_ = nullptr;
  void* ctx_ = nullptr;
  std::atomic<std::size_t> cursor_{0};
  std::size_t end_ = 0;
  std::size_t observed_ = 0;        ///< workers that saw this generation
  std::size_t active_workers_ = 0;  ///< workers inside the current region
  std::size_t participants_ = 0;    ///< threads admitted to the region
  std::size_t cap_ = 0;             ///< max participants (incl. the caller)
  std::exception_ptr first_error_;
};

/// Process-wide persistent pool with default_parallelism() - 1 workers,
/// created on first use. The shared pool is what the evaluation engine
/// (local/optimal search, sweeps) draws on, so repeated searches never pay
/// thread creation; independent callers serialize whole regions and nested
/// use degrades to inline execution (see ThreadPool).
[[nodiscard]] ThreadPool& shared_pool();

/// Maps f over [0, n), returning the results in index order. The result type
/// is deduced from f; bodies run via ThreadPool::parallel_for, so no per-call
/// std::function allocation. `max_threads` as in parallel_for.
template <typename F>
auto parallel_transform(ThreadPool& pool, std::size_t n, F&& f,
                        std::size_t max_threads = 0)
    -> std::vector<std::decay_t<decltype(f(std::size_t{0}))>> {
  using R = std::decay_t<decltype(f(std::size_t{0}))>;
  std::vector<R> out(n);
  pool.parallel_for(
      0, n, [&](std::size_t i) { out[i] = f(i); }, max_threads);
  return out;
}

}  // namespace oagrid
