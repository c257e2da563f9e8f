#pragma once
/// \file thread_pool.hpp
/// \brief Persistent worker pool for fine-grained parallel regions.
///
/// Spawning threads per parallel region is fine for coarse sweep cells
/// (milliseconds each) but poisonous for the climate model's stencil
/// substeps and the evaluation engine's neighborhood batches (tens of
/// microseconds each — thread creation costs more than the work).
/// ThreadPool keeps its workers alive between regions: dispatch is one
/// mutex/condition-variable handshake with the workers that join, and the
/// calling thread participates in the work, so a pool of W workers yields
/// W+1-way parallelism. Every parallel loop in the library runs on
/// shared_pool() except climate::CoupledModel's, which keeps a pool of its
/// own: calibration measures T[G] at exact thread counts, and a region of
/// the shared pool gets only the workers that are idle.
///
/// Three properties the evaluation engine leans on:
///  * No per-call type erasure: parallel_for is a template dispatching the
///    body through one function pointer + context pointer, so passing a
///    capturing lambda never heap-allocates a std::function.
///  * Nested-use guard: a body that (transitively) calls parallel_for again —
///    e.g. a simulation running under the service while the service sweeps —
///    runs the inner region inline on the calling thread instead of
///    oversubscribing or deadlocking on the non-reentrant pool.
///  * Shared workers across callers: independent threads may call
///    parallel_for on the same pool concurrently. Each region lives on its
///    caller's stack and joins a FIFO of open regions; an idle worker joins
///    the oldest open region that still has iterations to claim. Regions
///    overlap instead of taking turns: every caller works on its own region
///    from the start and waits only for the workers inside it.
///
/// Every region runs at the pool's width. A caller that wants a serial run
/// makes its call on a zero-worker pool: the loop runs on the caller, in
/// index order, and any region its body opens (on any pool) runs inline too.

#include <atomic>
#include <condition_variable>
#include <cstddef>
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
  /// claimed in index order through a shared cursor (dynamic schedule), so a
  /// caller that knows its costs puts the costliest first. Exceptions from
  /// the body are captured and the first one rethrown here, to this caller
  /// only.
  ///
  /// A zero-worker pool, a single iteration or a nested call from inside any
  /// parallel region runs the loop inline — in index order, so serial
  /// executions stay deterministic.
  template <typename Body>
  void parallel_for(std::size_t begin, std::size_t end, Body&& body) {
    if (begin >= end) return;
    using Fn = std::remove_reference_t<Body>;
    if (threads_.empty() || end - begin == 1 ||
        detail::in_parallel_region()) {
      const detail::RegionMark mark;
      for (std::size_t i = begin; i < end; ++i) body(i);
      return;
    }
    run_region(begin, end, &invoke_thunk<Fn>,
               const_cast<void*>(
                   static_cast<const void*>(std::addressof(body))));
  }

 private:
  using InvokeFn = void (*)(void*, std::size_t);

  template <typename Fn>
  static void invoke_thunk(void* ctx, std::size_t i) {
    (*static_cast<Fn*>(ctx))(i);
  }

  /// One parallel_for call in flight, on its caller's stack. Fields other
  /// than the cursor are guarded by mutex_. The caller returns only once no
  /// worker is inside, so the region (and the body) never dangles.
  struct Region {
    InvokeFn invoke;
    void* ctx;
    std::atomic<std::size_t> cursor;
    std::size_t end;
    std::size_t active_workers = 0;  ///< workers inside right now
    bool open = true;                ///< still on the list idle workers join
    Region* next = nullptr;          ///< the next younger open region
    std::exception_ptr first_error{};
    std::condition_variable workers_left{};  ///< active_workers reached 0
  };

  void run_region(std::size_t begin, std::size_t end, InvokeFn invoke,
                  void* ctx);
  void worker_loop();
  void run_chunks(Region& region);
  /// Takes `region` off the open list, if it is still there (mutex_ held).
  void close(Region& region) noexcept;

  std::vector<std::thread> threads_;

  std::mutex mutex_;
  std::condition_variable work_ready_;
  Region* oldest_ = nullptr;  ///< FIFO of open regions, oldest first
  Region* youngest_ = nullptr;
  bool shutdown_ = false;
};

/// Process-wide persistent pool with default_parallelism() - 1 workers,
/// created on first use. The shared pool is what the evaluation engine
/// (local/optimal search, sweeps, performance vectors) draws on, so repeated
/// searches never pay thread creation; independent callers' regions share
/// its workers and nested use degrades to inline execution (see ThreadPool).
[[nodiscard]] ThreadPool& shared_pool();

/// Maps f over [0, n), returning the results in index order. The result type
/// is deduced from f; bodies run via ThreadPool::parallel_for, so no per-call
/// std::function allocation.
template <typename F>
auto parallel_transform(ThreadPool& pool, std::size_t n, F&& f)
    -> std::vector<std::decay_t<decltype(f(std::size_t{0}))>> {
  using R = std::decay_t<decltype(f(std::size_t{0}))>;
  std::vector<R> out(n);
  pool.parallel_for(0, n, [&](std::size_t i) { out[i] = f(i); });
  return out;
}

}  // namespace oagrid
