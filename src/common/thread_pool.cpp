#include "common/thread_pool.hpp"

namespace oagrid {

std::size_t default_parallelism() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

namespace detail {
namespace {
thread_local int parallel_region_depth = 0;
}  // namespace

bool in_parallel_region() noexcept { return parallel_region_depth > 0; }
void enter_parallel_region() noexcept { ++parallel_region_depth; }
void leave_parallel_region() noexcept { --parallel_region_depth; }
}  // namespace detail

ThreadPool::ThreadPool(std::size_t workers) {
  threads_.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w)
    threads_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    const std::scoped_lock lock(mutex_);
    shutdown_ = true;
  }
  work_ready_.notify_all();
  for (auto& thread : threads_) thread.join();
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  std::unique_lock lock(mutex_);
  for (;;) {
    work_ready_.wait(lock, [&] { return shutdown_ || generation_ != seen; });
    if (shutdown_) return;
    seen = generation_;
    ++observed_;
    // Admission: at most cap_ threads (counting the caller) touch the
    // cursor; surplus workers only acknowledge the generation so the
    // caller's completion wait can still close over every worker.
    if (participants_ + 1 < cap_) {
      ++participants_;
      ++active_workers_;
      lock.unlock();
      {
        const detail::RegionMark mark;
        run_chunks();
      }
      lock.lock();
      --active_workers_;
    }
    work_done_.notify_all();
  }
}

void ThreadPool::run_chunks() {
  const InvokeFn invoke = invoke_;
  void* ctx = ctx_;
  for (;;) {
    const std::size_t i = cursor_.fetch_add(1, std::memory_order_relaxed);
    if (i >= end_) return;
    try {
      invoke(ctx, i);
    } catch (...) {
      const std::scoped_lock lock(mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
  }
}

void ThreadPool::run_region(std::size_t begin, std::size_t end,
                            InvokeFn invoke, void* ctx,
                            std::size_t max_threads) {
  // Whole regions from independent calling threads take turns; a region in
  // flight blocks the next caller here, never corrupting shared state.
  const std::scoped_lock region_lock(region_mutex_);
  {
    const std::scoped_lock lock(mutex_);
    invoke_ = invoke;
    ctx_ = ctx;
    end_ = end;
    cursor_.store(begin, std::memory_order_relaxed);
    observed_ = 0;
    participants_ = 0;
    cap_ = max_threads == 0 ? threads_.size() + 1 : max_threads;
    first_error_ = nullptr;
    ++generation_;
  }
  work_ready_.notify_all();

  {
    const detail::RegionMark mark;
    run_chunks();  // the caller is always a participant
  }

  std::unique_lock lock(mutex_);
  work_done_.wait(lock, [&] {
    return observed_ == threads_.size() && active_workers_ == 0;
  });
  invoke_ = nullptr;
  ctx_ = nullptr;
  if (first_error_) {
    std::exception_ptr error = first_error_;
    first_error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(error);
  }
}

ThreadPool& shared_pool() {
  static ThreadPool pool(default_parallelism() > 0 ? default_parallelism() - 1
                                                   : 0);
  return pool;
}

}  // namespace oagrid
