#include "util/thread_pool.hpp"

#include <pthread.h>

#include <atomic>
#include <cstdlib>

#include "util/check.hpp"

namespace anchor::util {

namespace {

thread_local bool t_on_worker = false;

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t n = threads == 0 ? 1 : threads;
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

bool ThreadPool::on_worker_thread() { return t_on_worker; }

void ThreadPool::enqueue(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ANCHOR_CHECK_MSG(!stop_, "enqueue on a stopping ThreadPool");
    queue_.push_back(std::move(job));
    queued_.store(queue_.size(), std::memory_order_relaxed);
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  t_on_worker = true;
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and fully drained
      job = std::move(queue_.front());
      queue_.pop_front();
      queued_.store(queue_.size(), std::memory_order_relaxed);
    }
    job();
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  // Inline when there is nothing to spread the work over. Nested calls
  // from a worker thread are fine: the claim loop below never *waits* for
  // a helper to start, so a loop completes even when every other worker is
  // busy (its helpers then find an exhausted cursor and exit).
  if (n == 1 || size() <= 1) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }

  // Chunked claim loop. Workers and the caller all fetch_add the shared
  // cursor; the caller drains too, so completion never depends on a worker
  // being free. State is shared_ptr-owned: a helper that wakes up after the
  // loop already finished just sees an exhausted cursor and drops its ref.
  struct LoopState {
    std::atomic<std::size_t> next;
    std::size_t end = 0;
    std::size_t chunk = 1;
    const std::function<void(std::size_t)>* fn = nullptr;
    std::atomic<std::size_t> done{0};
    std::size_t total = 0;
    std::mutex m;
    std::condition_variable cv;
    std::exception_ptr error;  // first throw from fn, guarded by m
  };
  auto state = std::make_shared<LoopState>();
  state->next.store(begin);
  state->end = end;
  // ~4 chunks per participant keeps the tail balanced without per-index
  // scheduling overhead.
  state->chunk = std::max<std::size_t>(1, n / ((size() + 1) * 4));
  state->total = n;
  state->fn = &fn;

  const auto drain = [this](LoopState& s, bool helper) {
    for (;;) {
      const std::size_t i = s.next.fetch_add(s.chunk);
      if (i >= s.end) return;
      const std::size_t hi = std::min(i + s.chunk, s.end);
      // A throw from fn must not escape here: on a worker it would hit
      // std::terminate, and unwinding the caller would free the state and
      // fn while helpers still run. Stash the first one and keep counting
      // chunks so the caller's join completes, then rethrows it.
      try {
        for (std::size_t j = i; j < hi; ++j) (*s.fn)(j);
      } catch (...) {
        std::lock_guard<std::mutex> lock(s.m);
        if (!s.error) s.error = std::current_exception();
      }
      if (s.done.fetch_add(hi - i) + (hi - i) == s.total) {
        std::lock_guard<std::mutex> lock(s.m);
        s.cv.notify_all();
      }
      // Other jobs are waiting (a batcher flush, a submitted task): a
      // helper hands its worker to them and leaves the rest of the loop to
      // the caller and the helpers still running.
      if (helper && queued_.load(std::memory_order_relaxed) > 0) return;
    }
  };

  // The caller is one participant; enqueue up to size() more, but never
  // more helpers than there are chunks left after the caller's first claim.
  const std::size_t chunks = (n + state->chunk - 1) / state->chunk;
  const std::size_t helpers = std::min(size(), chunks - 1);
  for (std::size_t h = 0; h < helpers; ++h) {
    enqueue([state, drain] { drain(*state, /*helper=*/true); });
  }
  drain(*state, /*helper=*/false);
  std::unique_lock<std::mutex> lock(state->m);
  state->cv.wait(lock, [&] { return state->done.load() == state->total; });
  if (state->error) std::rethrow_exception(state->error);
}

namespace {

std::size_t default_threads() {
  if (const char* env = std::getenv("ANCHOR_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::mutex g_pool_mu;
std::unique_ptr<ThreadPool> g_pool;
/// A forked child's copy of the parent's pool. fork() copies only the
/// calling thread, so its workers stayed behind: jobs queued on it would
/// never run, and its destructor would join threads that do not exist. It
/// is kept reachable, not destroyed, so the leak checker does not count it.
ThreadPool* g_forked_pool = nullptr;

// Holding g_pool_mu across fork() keeps the child from inheriting it locked
// by another thread; the child then builds a fresh pool on first use.
// Called with g_pool_mu held.
std::unique_ptr<ThreadPool> make_pool(std::size_t threads) {
  static const int registered = ::pthread_atfork(
      [] { g_pool_mu.lock(); }, [] { g_pool_mu.unlock(); },
      [] {
        g_pool_mu.unlock();
        g_forked_pool = g_pool.release();
      });
  (void)registered;
  return std::make_unique<ThreadPool>(threads);
}

}  // namespace

ThreadPool& global_pool() {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  if (!g_pool) g_pool = make_pool(default_threads());
  return *g_pool;
}

std::size_t global_pool_threads() { return global_pool().size(); }

void set_global_pool_threads(std::size_t n) {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  g_pool = make_pool(n == 0 ? default_threads() : n);
}

}  // namespace anchor::util
