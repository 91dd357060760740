#include "exp/thread_pool.hpp"

#include <cstdlib>
#include <stdexcept>
#include <string>

#include "util/parse.hpp"

namespace pcs {

u32 pcs_thread_count() {
  if (const char* env = std::getenv("PCS_THREADS")) {
    const u64 n = parse_u64_token(env, "PCS_THREADS");
    if (n == 0 || n > 0xffffffffULL) {
      throw std::invalid_argument("PCS_THREADS: integer '" + std::string(env) +
                                  "' out of range (1 to 4294967295)");
    }
    return static_cast<u32>(n);
  }
  const u32 hw = std::thread::hardware_concurrency();
  return hw ? hw : 1;
}

ThreadPool::ThreadPool(u32 num_workers) {
  if (num_workers < 1) num_workers = 1;
  queues_.reserve(num_workers);
  for (u32 i = 0; i < num_workers; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(num_workers);
  for (u32 i = 0; i < num_workers; ++i) {
    workers_.emplace_back(
        [this, i](std::stop_token st) { worker_loop(st, i); });
  }
}

ThreadPool::~ThreadPool() {
  for (auto& w : workers_) w.request_stop();
  wake_cv_.notify_all();
  // jthread destructors join; worker_loop drains its queues before exiting
  // so every submitted future is eventually satisfied.
}

void ThreadPool::enqueue(Task t) {
  const u64 victim = next_queue_.fetch_add(1, std::memory_order_relaxed) %
                     queues_.size();
  u64 depth;
  {
    std::lock_guard<std::mutex> lk(queues_[victim]->mu);
    queues_[victim]->dq.push_back(std::move(t));
    depth = queues_[victim]->dq.size();
  }
  u64 seen = max_depth_.load(std::memory_order_relaxed);
  while (depth > seen &&
         !max_depth_.compare_exchange_weak(seen, depth,
                                           std::memory_order_relaxed)) {
  }
  pending_.fetch_add(1, std::memory_order_release);
  // Empty critical section pairs with the waiter's predicate check: the
  // waiter either observes the new pending_ value or receives this notify.
  { std::lock_guard<std::mutex> lk(wake_mu_); }
  wake_cv_.notify_one();
}

bool ThreadPool::try_pop_local(u32 self, Task& out) {
  WorkerQueue& q = *queues_[self];
  std::lock_guard<std::mutex> lk(q.mu);
  if (q.dq.empty()) return false;
  out = std::move(q.dq.back());  // LIFO: cache-warm, depth-first
  q.dq.pop_back();
  return true;
}

bool ThreadPool::try_steal(u32 self, Task& out) {
  const u32 n = static_cast<u32>(queues_.size());
  for (u32 k = 1; k < n; ++k) {
    WorkerQueue& q = *queues_[(self + k) % n];
    std::lock_guard<std::mutex> lk(q.mu);
    if (q.dq.empty()) continue;
    out = std::move(q.dq.front());  // FIFO: steal the oldest, largest work
    q.dq.pop_front();
    steals_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

void ThreadPool::worker_loop(std::stop_token st, u32 self) {
  for (;;) {
    Task task;
    if (try_pop_local(self, task) || try_steal(self, task)) {
      pending_.fetch_sub(1, std::memory_order_relaxed);
      task();
      continue;
    }
    std::unique_lock<std::mutex> lk(wake_mu_);
    const bool live = wake_cv_.wait(lk, st, [this] {
      return pending_.load(std::memory_order_acquire) > 0;
    });
    if (!live) return;  // stop requested and nothing pending
  }
}

}  // namespace pcs
