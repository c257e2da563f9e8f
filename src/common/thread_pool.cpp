#include "common/thread_pool.hpp"

#include <algorithm>

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
  std::unique_lock lock(mutex_);
  for (;;) {
    work_ready_.wait(lock, [&] { return shutdown_ || oldest_ != nullptr; });
    if (shutdown_) return;
    Region& region = *oldest_;
    if (region.cursor.load(std::memory_order_relaxed) >= region.end) {
      close(region);  // nothing left to claim
      continue;
    }
    ++region.active_workers;
    lock.unlock();
    {
      const detail::RegionMark mark;
      run_chunks(region);
    }
    lock.lock();
    // Notified under the lock: the caller cannot see the count reach 0, and
    // destroy the region, before this worker is done touching it.
    if (--region.active_workers == 0) region.workers_left.notify_one();
  }
}

void ThreadPool::run_chunks(Region& region) {
  for (;;) {
    const std::size_t i =
        region.cursor.fetch_add(1, std::memory_order_relaxed);
    if (i >= region.end) return;
    try {
      region.invoke(region.ctx, i);
    } catch (...) {
      const std::scoped_lock lock(mutex_);
      if (!region.first_error) region.first_error = std::current_exception();
    }
  }
}

void ThreadPool::close(Region& region) noexcept {
  if (!region.open) return;
  region.open = false;
  Region* before = nullptr;
  Region** link = &oldest_;
  while (*link != &region) {
    before = *link;
    link = &before->next;
  }
  *link = region.next;
  if (youngest_ == &region) youngest_ = before;
}

void ThreadPool::run_region(std::size_t begin, std::size_t end,
                            InvokeFn invoke, void* ctx) {
  Region region{.invoke = invoke, .ctx = ctx, .cursor = begin, .end = end};
  {
    const std::scoped_lock lock(mutex_);
    (youngest_ != nullptr ? youngest_->next : oldest_) = &region;
    youngest_ = &region;
  }
  // Wake no more workers than the region can give work to; busy workers
  // look at the open list again when they leave their region.
  const std::size_t helpers = std::min(threads_.size(), end - begin - 1);
  for (std::size_t w = 0; w < helpers; ++w) work_ready_.notify_one();

  {
    const detail::RegionMark mark;
    run_chunks(region);  // the caller is always a participant
  }

  std::unique_lock lock(mutex_);
  close(region);
  region.workers_left.wait(lock,
                           [&] { return region.active_workers == 0; });
  if (region.first_error) {
    lock.unlock();
    std::rethrow_exception(region.first_error);
  }
}

ThreadPool& shared_pool() {
  static ThreadPool pool(default_parallelism() > 0 ? default_parallelism() - 1
                                                   : 0);
  return pool;
}

}  // namespace oagrid
