// Work-stealing thread pool for the experiment engine.
//
// Every figure sweep is a grid of fully independent simulations, so the
// pool is deliberately simple: one deque per worker, round-robin external
// submission, LIFO local pops and FIFO steals. Tasks are coarse (one task =
// one whole cache simulation, milliseconds to seconds), so lock-per-deque
// is nowhere near contention and a lock-free Chase-Lev deque would buy
// nothing. Exceptions thrown by a task are captured in its future and
// rethrown at get(), never on the worker.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/types.hpp"

namespace pcs {

/// Worker count for experiment sweeps: the PCS_THREADS environment variable
/// if set, else std::thread::hardware_concurrency(). PCS_THREADS=1 selects
/// the legacy serial path (no pool, no threads). A PCS_THREADS that is not
/// a whole integer in 1 .. 2^32-1 throws std::invalid_argument naming it;
/// front ends call this before printing anything, so a bad value is a usage
/// error rather than a failure halfway through a report.
u32 pcs_thread_count();

class ThreadPool {
 public:
  /// Spawns `num_workers` workers (clamped to >= 1).
  explicit ThreadPool(u32 num_workers = pcs_thread_count());

  /// Requests stop and joins all workers; queued-but-unstarted tasks still
  /// run to completion first (futures must never be abandoned broken).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  u32 size() const noexcept { return static_cast<u32>(workers_.size()); }

  /// Tasks a worker took from another worker's deque (observability only;
  /// approximate ordering under concurrent updates, exact once idle).
  u64 steal_count() const noexcept {
    return steals_.load(std::memory_order_relaxed);
  }
  /// High-water mark of any single worker deque's length at submission
  /// time (observability only).
  u64 max_queue_depth() const noexcept {
    return max_depth_.load(std::memory_order_relaxed);
  }

  /// Schedules `fn` and returns a future for its result. An exception
  /// escaping `fn` is stored in the future and rethrown at get().
  template <class F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    std::packaged_task<R()> task(std::forward<F>(fn));
    std::future<R> fut = task.get_future();
    enqueue(Task(std::move(task)));
    return fut;
  }

 private:
  /// Move-only type-erased callable (std::function requires copyability,
  /// which packaged_task does not have).
  class Task {
   public:
    Task() = default;
    template <class C>
    explicit Task(C&& c)
        : impl_(std::make_unique<Model<std::decay_t<C>>>(
              std::forward<C>(c))) {}
    void operator()() { impl_->call(); }
    explicit operator bool() const noexcept { return impl_ != nullptr; }

   private:
    struct Concept {
      virtual ~Concept() = default;
      virtual void call() = 0;
    };
    template <class C>
    struct Model final : Concept {
      explicit Model(C c) : fn(std::move(c)) {}
      void call() override { fn(); }
      C fn;
    };
    std::unique_ptr<Concept> impl_;
  };

  struct WorkerQueue {
    std::mutex mu;
    std::deque<Task> dq;
  };

  void enqueue(Task t);
  bool try_pop_local(u32 self, Task& out);
  bool try_steal(u32 self, Task& out);
  void worker_loop(std::stop_token st, u32 self);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::mutex wake_mu_;
  std::condition_variable_any wake_cv_;
  std::atomic<u64> next_queue_{0};
  std::atomic<u64> pending_{0};
  std::atomic<u64> steals_{0};
  std::atomic<u64> max_depth_{0};
  std::vector<std::jthread> workers_;  // last: joins before queues die
};

/// Evaluates `fn(0) .. fn(n-1)` and returns the results in index order.
/// `num_threads == 1` runs the plain serial loop (no pool, no threads);
/// otherwise the calls fan across a ThreadPool and the first exception (by
/// lowest index) is rethrown after it completes. `fn` must depend only on
/// the index for the results to be thread-count invariant.
template <class F>
auto parallel_index_map(u32 num_threads, u64 n, F&& fn)
    -> std::vector<std::invoke_result_t<F&, u64>> {
  using R = std::invoke_result_t<F&, u64>;
  std::vector<R> out;
  out.reserve(n);
  if (num_threads <= 1) {
    for (u64 i = 0; i < n; ++i) out.push_back(fn(i));
    return out;
  }
  ThreadPool pool(num_threads);
  std::vector<std::future<R>> futures;
  futures.reserve(n);
  for (u64 i = 0; i < n; ++i) {
    futures.push_back(pool.submit([&fn, i] { return fn(i); }));
  }
  for (auto& f : futures) out.push_back(f.get());
  return out;
}

}  // namespace pcs
