// Async batching front-end over LookupService — the request-coalescing
// server core (the cuBERT/CTranslate2 pattern).
//
// Requests from any number of client threads are coalesced into batches
// and executed through LookupService::lookup_ids_into / lookup_words_into
// — so N callers doing blocking lookups ride the same batched
// gather/dequantize hot path a native batch caller gets, amortizing
// per-batch overhead (snapshot resolve, stats) across all of them.
//
// There is one request path. Every request — a single id, an id list, a
// word list, traced or not — is a Mailbox that owns its keys, published
// into a fixed ring of slots with Vyukov-style per-slot sequence numbers:
// a CAS claims a position, a release store publishes it; no mutex, and no
// heap allocation for a single id once the thread's Mailbox cache is warm.
// Batches are executed by *flat combining*: the enqueuer whose request
// fills a batch, or a waiter whose flush policy says "now", claims the
// combiner lock, drains whole requests up to `max_batch_size` keys (a
// request is never split, so an oversized one flushes alone), releases
// the lock, and runs the batch on its own thread — one lookup_ids_into
// for the id requests and one lookup_words_into for the word requests.
// The service owns no thread, and a batch never queues behind other work
// in a shared pool.
//
// A waiter whose request is claimed by another thread's batch spins
// briefly and then parks on its Mailbox state (std::atomic::wait); the
// combiner issues a notify only for waiters that actually parked, so a
// completion costs no syscall while its waiter is still spinning.
//
// Scatter is zero-copy: each kind of a coalesced batch produces ONE
// LookupResult and every waiter receives a ResultSlice — an (offset,
// count) view into that shared buffer. Result buffers are recycled
// through a freelist that slices keep alive, so slices may outlive the
// service.
//
// Contract: the destructor flushes the ring, so every handed-out future
// completes even when the service dies first; a ready future touches no
// service member. As with any object, the service must not be destroyed
// while another thread is still inside one of its calls (including get()
// on a future that was pending when destruction began).
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "obs/windowed.hpp"
#include "serve/lookup_service.hpp"

namespace anchor::serve {

struct BatcherConfig {
  /// Flush a coalesced batch once this many keys are waiting. Requests are
  /// never split: a single request larger than this flushes alone.
  std::size_t max_batch_size = 64;
  /// Flush once the oldest queued request has waited this long, even if
  /// the batch is not full — bounds added latency under light traffic.
  std::uint32_t max_wait_us = 100;
  /// Ring slots (rounded up to a power of two, at least two full batches).
  /// Bounds only the burst of enqueued-but-not-yet-coalesced requests —
  /// slots are freed when a combiner claims them, not when results are
  /// consumed, so slow or idle future holders never wedge the ring.
  /// Producers finding it full help combine and retry (backpressure, not
  /// failure).
  std::size_t ring_capacity = 1024;
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
  struct Mailbox;  // per-request rendezvous, defined below

 public:
  /// Handle to one request. Move-only. get() blocks until a combiner
  /// executed the request's batch, stepping up as the combiner itself
  /// when the flush policy says so; destruction of an un-got future does
  /// the same and discards the result. Once ready (always, after the
  /// service is destroyed) it no longer refers to the service.
  class SliceFuture {
   public:
    SliceFuture() = default;
    SliceFuture(SliceFuture&& other) noexcept
        : owner_(other.owner_), box_(other.box_) {
      other.box_ = nullptr;
    }
    SliceFuture& operator=(SliceFuture&& other) noexcept {
      if (this != &other) {
        consume(nullptr);
        owner_ = other.owner_;
        box_ = other.box_;
        other.box_ = nullptr;
      }
      return *this;
    }
    SliceFuture(const SliceFuture&) = delete;
    SliceFuture& operator=(const SliceFuture&) = delete;
    ~SliceFuture() { consume(nullptr); }

    bool valid() const { return box_ != nullptr; }
    /// True when get() would return without blocking. Lets a pipelined
    /// caller drain completed requests eagerly instead of blocking only
    /// once its window is full.
    bool ready() const;
    /// Blocks until the result is ready (combining if needed), consumes
    /// it, and returns the request's slice of the coalesced batch, its
    /// keys in order. Rethrows the batch's failure, if any. One-shot:
    /// valid() afterwards is false.
    ResultSlice get();

   private:
    friend class AsyncLookupService;
    SliceFuture(AsyncLookupService* owner, Mailbox* box)
        : owner_(owner), box_(box) {}
    /// Waits for the result, frees the Mailbox, moves the slice into
    /// `out` (null = discard) and returns the batch's failure, if any.
    /// No-op when not valid.
    std::exception_ptr consume(ResultSlice* out);

    AsyncLookupService* owner_ = nullptr;
    Mailbox* box_ = nullptr;
  };

  /// The service must outlive this object. `stats` is the batcher view's
  /// recorder: one record per coalesced batch, its keys with their shared
  /// client-observed latency (enqueue of the oldest waiter → scatter), so
  /// its window is the rolling keys/s. The underlying LookupService's own
  /// recorder keeps counting the executed batches. Null = the service
  /// owns one.
  explicit AsyncLookupService(
      const LookupService& service, BatcherConfig config = {},
      std::shared_ptr<obs::WindowedStats> stats = nullptr);
  /// Flushes the ring: every handed-out future completes.
  ~AsyncLookupService();
  AsyncLookupService(const AsyncLookupService&) = delete;
  AsyncLookupService& operator=(const AsyncLookupService&) = delete;

  /// Id and word lookups; the slice spans the request's keys in order and
  /// an empty request resolves at once to an empty slice. get() throws if
  /// the underlying lookup threw (e.g. empty store). A sampled `trace`
  /// makes the batch record the request's batch_queue / batch_exec spans
  /// (and installs a Tracer::Scope so the LookupService underneath
  /// attributes its dequantize span); an untraced context costs nothing.
  SliceFuture lookup_id(std::size_t id, const obs::TraceContext& trace = {});
  SliceFuture lookup_ids(std::vector<std::size_t> ids,
                         const obs::TraceContext& trace = {});
  SliceFuture lookup_word(std::string word,
                          const obs::TraceContext& trace = {});
  SliceFuture lookup_words(std::vector<std::string> words,
                           const obs::TraceContext& trace = {});

  const obs::WindowedStats& stats() const { return *stats_; }
  obs::WindowedStats& stats() { return *stats_; }
  const BatcherConfig& config() const { return config_; }

  /// Requests currently queued (not yet claimed by a combiner). For
  /// tests/monitoring.
  std::size_t pending() const;

 private:
  /// Per-request rendezvous: owns the request's keys (written by the
  /// producer before the slot is published, read by the combiner) and
  /// its result (written by the combiner before `state` turns kDone).
  /// Recycled through a thread-local cache, so the key vectors keep their
  /// capacity and a single-id request allocates nothing once warm.
  /// Decoupling results from ring slots is what lets a combiner free
  /// slots at claim time: a future held unconsumed for minutes costs one
  /// idle Mailbox, not a wedged ring.
  struct Mailbox {
    static constexpr std::uint32_t kPending = 0;
    static constexpr std::uint32_t kParked = 1;  // waiter is in wait()
    static constexpr std::uint32_t kDone = 2;
    std::atomic<std::uint32_t> state{kPending};
    /// Only for a parked waiter: the waiter and the notifying combiner
    /// both arrive here, and the second one frees the box — so a notify
    /// never touches a Mailbox its waiter already recycled.
    std::atomic<std::uint32_t> handoff{0};

    bool words_kind = false;
    std::vector<std::size_t> ids;
    std::vector<std::string> words;
    /// Ring position (the waiter's "has my request been claimed?" test).
    std::uint64_t pos = 0;
    std::int64_t enqueued_ns = 0;  // 0 = unsampled (see submit)
    obs::TraceContext trace;

    ResultSlice slice;
    std::exception_ptr error;

    std::size_t size() const { return words_kind ? words.size() : ids.size(); }
  };

  /// Ring slot. `seq` encodes the slot's lifecycle for absolute position
  /// p (ring of capacity C): p = free (producer may claim), p+1 = queued
  /// (request published, waiting for a combiner), p+C = free for the next
  /// lap (combiner took the Mailbox at claim time). Cache-line sized so
  /// neighboring slots do not false-share.
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> seq{0};
    Mailbox* box = nullptr;
  };

  /// Result buffers of finished batches, reused by later ones. Slices
  /// hand a buffer back through their shared_ptr deleter, which holds the
  /// freelist itself by shared_ptr — so slices may outlive the service.
  struct ResultFreelist {
    std::mutex mu;
    std::vector<std::unique_ptr<LookupResult>> free;
  };

  /// Publishes `box` (keys already filled in) and returns its future.
  SliceFuture submit(Mailbox* box, const obs::TraceContext& trace);
  /// Claims one batch under the combiner try-lock (freeing the claimed
  /// slots immediately) and executes it on this thread. Returns false
  /// when the lock was busy or nothing was claimable.
  bool combine_once();
  void execute_batch(const std::vector<Mailbox*>& boxes);
  /// The waiter side of get(): spin, flush when the policy says so, park
  /// once another thread's batch holds the request. Returns with
  /// box->state == kDone, and whether this waiter parked.
  bool await(Mailbox* box);
  /// A result buffer from the freelist; its deleter hands it back.
  std::shared_ptr<LookupResult> acquire_result();
  /// Mailbox recycling through a thread-local cache: boxes are plain
  /// memory with no per-service state, so the cache is shared by all
  /// services on the thread and both operations are pointer pushes.
  static std::vector<Mailbox*>& box_cache();
  static Mailbox* alloc_box();
  static void free_box(Mailbox* box);
  /// Marks `box` done and wakes its waiter if it parked.
  static void complete(Mailbox* box);

  const LookupService& service_;
  BatcherConfig config_;
  std::shared_ptr<obs::WindowedStats> stats_;

  std::vector<Slot> slots_;
  std::uint64_t ring_mask_ = 0;
  alignas(64) std::atomic<std::uint64_t> head_{0};  // next claimable pos
  /// Keys beyond one per queued request (sum of size()−1 over queued
  /// requests): with head_ − tail_ it gives the queued key count, while a
  /// single-id producer never touches it.
  std::atomic<std::uint64_t> extra_keys_{0};
  alignas(64) std::atomic<std::uint64_t> tail_{0};  // next uncombined pos
  std::mutex combine_mu_;
  std::shared_ptr<ResultFreelist> results_;
};

}  // namespace anchor::serve
