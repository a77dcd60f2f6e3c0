// Async batching front-end over LookupService — the request-coalescing
// server core (the cuBERT/CTranslate2 pattern).
//
// Requests from any number of client threads are coalesced into batches
// of up to `max_batch_size` keys (or whatever has accumulated once the
// oldest waiter has aged `max_wait_us`) and executed through
// LookupService::lookup_ids_into / lookup_words_into — so N callers doing
// blocking single-key lookups ride the same batched gather/dequantize hot
// path a native batch caller gets, amortizing per-batch overhead
// (snapshot resolve, stats) across all of them.
//
// Two internal paths share that policy:
//
// 1. SINGLE-KEY ID FAST PATH (`lookup_id` → SliceFuture): a fixed ring of
//    slots with Vyukov-style per-slot sequence numbers. Enqueue is one
//    atomic fetch_add plus a release store — no mutex, no heap allocation,
//    no promise. Batches are executed by *flat combining*: the enqueuer
//    that fills a batch, or a waiter whose deadline expires, claims the
//    combiner lock, drains up to max_batch_size slots, runs ONE
//    lookup_ids_into, and scatters result offsets back into the slots.
//    There is no dispatcher thread on this path at all, so on a single
//    core the produce→combine→consume cycle costs no context switches.
//    Contract: every SliceFuture must be consumed (get() or destroyed)
//    before the service is destroyed.
//
// 2. GENERAL PATH (`lookup_ids`/`lookup_word(s)` → std::future): an MPMC
//    deque drained by a dispatcher thread. Multi-key and word requests
//    amortize their per-request promise cost over many keys, so the
//    simpler machinery is the right tradeoff; destruction drains the
//    queue (every future still completes).
//
// Scatter is zero-copy on both paths: each coalesced batch produces ONE
// LookupResult and every waiter's future resolves to a ResultSlice — an
// (offset, count) view into that shared buffer. Fast-path result buffers
// are recycled through a freelist, so the steady state allocates nothing
// per batch.
//
// Execution placement: with a multi-worker util::global_pool coalesced
// batches are submitted to the shared pool so several can be in flight at
// once (bounded by `max_inflight_batches` on the general path); with a
// single-worker pool (1-core hosts) there is no overlap to win and the
// combiner/dispatcher executes inline, skipping the pool's queue+wake
// cost.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.hpp"
#include "obs/windowed.hpp"
#include "serve/lookup_service.hpp"
#include "serve/serve_stats.hpp"

namespace anchor::serve {

struct BatcherConfig {
  /// Flush a coalesced batch once this many keys are waiting. Requests are
  /// never split: a single request larger than this flushes alone.
  std::size_t max_batch_size = 64;
  /// Flush once the oldest queued request has waited this long, even if
  /// the batch is not full — bounds added latency under light traffic.
  std::uint32_t max_wait_us = 100;
  /// Coalesced batches concurrently in flight when executing on the pool.
  std::size_t max_inflight_batches = 4;
  /// Fast-path ring slots (rounded up to a power of two). Bounds only the
  /// burst of enqueued-but-not-yet-coalesced single-key requests — slots
  /// are freed when a combiner claims them, not when results are
  /// consumed, so slow or idle future holders never wedge the ring.
  /// Producers finding it full help combine and retry (backpressure, not
  /// failure).
  std::size_t ring_capacity = 1024;
  /// Where coalesced batches execute. kAuto picks the shared
  /// util::global_pool when it has more than one worker (overlap exists to
  /// win) and the combining/dispatcher thread itself otherwise.
  enum class Exec { kAuto, kPool, kInline };
  Exec exec = Exec::kAuto;
  /// When set, every coalesced flush is recorded as a windowed slice
  /// (keys with their shared client-observed latency), so the rolling
  /// batch QPS rides the same ring the RPC plane uses. Not owned; must
  /// outlive the service.
  obs::WindowedStats* windowed = nullptr;
};

/// One caller's slice of a coalesced batch result: rows
/// [first, first+count) of the shared LookupResult. Copyable; holding any
/// slice keeps the whole batch buffer alive.
class ResultSlice {
 public:
  ResultSlice() = default;
  ResultSlice(std::shared_ptr<const LookupResult> batch, std::size_t first,
              std::size_t count)
      : batch_(std::move(batch)), first_(first), count_(count) {}

  std::size_t size() const { return count_; }
  std::size_t first() const { return first_; }
  std::size_t dim() const { return batch_ ? batch_->dim : 0; }
  const float* row(std::size_t i) const { return batch_->row(first_ + i); }
  bool oov(std::size_t i) const { return batch_->oov[first_ + i] != 0; }
  const std::string& version() const { return batch_->version; }
  /// The whole coalesced result this slice views (shared with co-batched
  /// waiters); null for a default-constructed or empty-request slice.
  const std::shared_ptr<const LookupResult>& batch() const { return batch_; }

 private:
  std::shared_ptr<const LookupResult> batch_;
  std::size_t first_ = 0;
  std::size_t count_ = 0;
};

class AsyncLookupService {
  struct Mailbox;  // fast-path rendezvous node, defined below

 public:
  /// Handle to one single-key fast-path request. Move-only, must be
  /// consumed — get() or destruction — before the AsyncLookupService is
  /// destroyed (pending results rendezvous through service-executed
  /// batches). get() blocks until a combiner executed the request's
  /// batch, stepping up as the combiner itself once the max_wait deadline
  /// passes; destruction of an un-got future does the same and discards
  /// the result.
  class SliceFuture {
   public:
    SliceFuture() = default;
    SliceFuture(SliceFuture&& other) noexcept
        : owner_(other.owner_), box_(other.box_), deadline_ns_(other.deadline_ns_) {
      other.owner_ = nullptr;
    }
    SliceFuture& operator=(SliceFuture&& other) noexcept {
      if (this != &other) {
        consume_if_pending();
        owner_ = other.owner_;
        box_ = other.box_;
        deadline_ns_ = other.deadline_ns_;
        other.owner_ = nullptr;
      }
      return *this;
    }
    SliceFuture(const SliceFuture&) = delete;
    SliceFuture& operator=(const SliceFuture&) = delete;
    ~SliceFuture() { consume_if_pending(); }

    bool valid() const { return owner_ != nullptr; }
    /// True when get() would return without blocking. Lets a pipelined
    /// caller drain completed requests eagerly instead of blocking only
    /// once its window is full.
    bool ready() const;
    /// Blocks until the result is ready (combining if needed), consumes
    /// it, and returns a one-row slice of the coalesced batch. Rethrows
    /// the batch's failure, if any. One-shot: valid() afterwards is
    /// false.
    ResultSlice get();

   private:
    friend class AsyncLookupService;
    SliceFuture(AsyncLookupService* owner, Mailbox* box,
                std::int64_t deadline_ns)
        : owner_(owner), box_(box), deadline_ns_(deadline_ns) {}
    void consume_if_pending();

    AsyncLookupService* owner_ = nullptr;
    Mailbox* box_ = nullptr;
    std::int64_t deadline_ns_ = 0;
  };

  /// The service must outlive this object. `stats` records *coalesced*
  /// batches with client-observed latency (enqueue of the oldest waiter →
  /// scatter), one record per flush — the underlying LookupService's own
  /// stats keep counting the executed batches. Null = internal instance.
  explicit AsyncLookupService(const LookupService& service,
                              BatcherConfig config = {},
                              std::shared_ptr<ServeStats> stats = nullptr);
  /// Drains every queued general-path request (each future still
  /// completes) and stops the dispatcher. Fast-path contract: every
  /// SliceFuture was consumed before destruction.
  ~AsyncLookupService();
  AsyncLookupService(const AsyncLookupService&) = delete;
  AsyncLookupService& operator=(const AsyncLookupService&) = delete;

  /// Single-key id lookup — the RPC front-end's unit of traffic, served
  /// by the allocation-free ring + flat combining fast path.
  SliceFuture lookup_id(std::size_t id);

  /// General path: multi-key and word requests coalesce with each other
  /// on the dispatcher thread; the slice spans the request's keys in
  /// order. The future throws if the underlying lookup threw (e.g. empty
  /// store) or the service was destroyed before the request was queued.
  std::future<ResultSlice> lookup_ids(std::vector<std::size_t> ids);
  std::future<ResultSlice> lookup_word(std::string word);
  std::future<ResultSlice> lookup_words(std::vector<std::string> words);

  /// Traced variants: the request carries `trace` through the queue, so
  /// run_batch records its batch_queue / batch_exec spans (and installs a
  /// Tracer::Scope so the LookupService underneath attributes its
  /// dequantize span). Untraced contexts behave exactly like the plain
  /// overloads.
  std::future<ResultSlice> lookup_ids(std::vector<std::size_t> ids,
                                      const obs::TraceContext& trace);
  std::future<ResultSlice> lookup_words(std::vector<std::string> words,
                                        const obs::TraceContext& trace);

  const ServeStats& stats() const { return *stats_; }
  ServeStats& stats() { return *stats_; }
  const BatcherConfig& config() const { return config_; }

  /// Requests currently queued (not yet flushed), both paths. For
  /// tests/monitoring.
  std::size_t pending() const;

 private:
  // ---- fast path: single-key slot ring + flat combining ----------------

  /// One coalesced fast-path batch result, recycled through the shared
  /// freelist. `self` (an aliasing shared_ptr of `result`) backs every
  /// ResultSlice of the batch; its deleter returns the hold to the
  /// freelist, so the buffers live exactly as long as the last
  /// outstanding slice — and because the freelist itself is
  /// shared_ptr-owned, slices may safely outlive the service.
  struct BatchHold {
    LookupResult result;
    std::shared_ptr<const LookupResult> self;
    /// Unconsumed slots of this batch; the last consumer drops `self`.
    std::atomic<std::uint32_t> refs{0};
    std::exception_ptr error;
  };

  struct HoldFreelist {
    std::mutex mu;
    std::vector<std::unique_ptr<BatchHold>> all;  // owns the memory
    std::vector<BatchHold*> free;
  };

  /// Per-request rendezvous for the fast path. Allocated by the enqueuing
  /// thread and freed by the consuming thread — the same thread in the
  /// blocking-caller pattern, so the allocator's thread cache makes the
  /// pair cheap. Decoupling results from ring slots is what lets a
  /// combiner free slots at claim time: a future held unconsumed for
  /// minutes costs one idle Mailbox, not a wedged ring.
  struct Mailbox {
    std::atomic<std::uint32_t> state{0};  // 0 pending, 1 ready, 2 error
    std::uint32_t offset = 0;
    BatchHold* hold = nullptr;
  };

  /// Ring slot. `seq` encodes the slot's lifecycle for absolute position
  /// p (ring of capacity C): p = free (producer may claim), p+1 = queued
  /// (request written, waiting for a combiner), p+C = free for the next
  /// lap (combiner copied the request out at claim time). Cache-line
  /// sized so neighboring slots do not false-share.
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> seq{0};
    std::size_t key = 0;
    std::int64_t enqueued_ns = 0;  // 0 = unsampled (see kClockSampleMask)
    Mailbox* box = nullptr;
  };

  /// Claims one fast-path batch under the combiner try-lock (freeing the
  /// claimed slots immediately) and executes it (inline or on the pool).
  /// Returns false when the lock was busy or nothing was claimable.
  bool combine_once();
  /// Caller keeps the vectors alive for the duration of the call (the
  /// combiner's thread_local scratch inline; the task-owned copies on
  /// the pool path).
  void execute_fast_batch(const std::vector<std::size_t>& keys,
                          const std::vector<Mailbox*>& boxes,
                          std::int64_t oldest_ns);
  /// Waits for `box` to leave the pending state (spin → sleep → combine
  /// once `deadline_ns` passes), consumes the result, and frees the box.
  /// `out` may be null (discard). Rethrows the batch's failure when `out`
  /// is non-null.
  void await_and_consume(Mailbox* box, std::int64_t deadline_ns,
                         ResultSlice* out);
  BatchHold* acquire_hold();
  /// Mailbox recycling through a thread-local cache: boxes are plain
  /// memory with no per-service state, so the cache is shared by all
  /// services on the thread and both operations are pointer pushes —
  /// no allocator or lock on the fast path once warm.
  static std::vector<Mailbox*>& box_cache();
  static Mailbox* alloc_box();
  static void free_box(Mailbox* box);

  // ---- general path: request deque + dispatcher ------------------------

  struct Request {
    enum class Kind { kIds, kWord, kWords };
    Kind kind = Kind::kIds;
    std::string word;
    std::vector<std::size_t> ids;
    std::vector<std::string> words;
    std::size_t key_count = 0;
    std::chrono::steady_clock::time_point enqueued;
    std::promise<ResultSlice> promise;
    /// Invalid for untraced requests (the common case — no overhead
    /// beyond the copy).
    obs::TraceContext trace;
  };

  std::future<ResultSlice> enqueue(Request req);
  void dispatcher_loop();
  /// Executes one coalesced general-path batch (dispatcher thread or pool
  /// worker): groups ids and words, runs one lookup_*_into per non-empty
  /// group, scatters slices to every waiter, records stats, releases the
  /// in-flight slot.
  void run_batch(std::vector<Request> batch);
  bool use_pool() const;

  const LookupService& service_;
  BatcherConfig config_;
  std::shared_ptr<ServeStats> stats_;

  // Fast path state.
  std::vector<Slot> slots_;
  std::uint64_t ring_mask_ = 0;
  alignas(64) std::atomic<std::uint64_t> head_{0};  // next claimable pos
  alignas(64) std::atomic<std::uint64_t> tail_{0};  // next uncombined pos
  std::mutex combine_mu_;
  std::shared_ptr<HoldFreelist> holds_;

  // General path state.
  mutable std::mutex mu_;
  std::condition_variable cv_;           // wakes the dispatcher
  std::condition_variable inflight_cv_;  // throttles pool submission
  std::deque<Request> queue_;
  std::size_t queued_keys_ = 0;
  std::size_t inflight_ = 0;
  bool stop_ = false;
  std::thread dispatcher_;
};

}  // namespace anchor::serve
