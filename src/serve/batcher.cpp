#include "serve/batcher.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <thread>
#include <utility>

#include "util/check.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace anchor::serve {

namespace {

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#else
  std::this_thread::yield();
#endif
}

/// Same clock as obs::Tracer::now_ns, so enqueue stamps double as the
/// start of a traced request's batch_queue span.
inline std::int64_t now_ns() {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}

/// One in kClockSample mid-batch enqueues reads the clock (power of two).
constexpr std::uint64_t kClockSample = 16;
/// Pause spins between two looks at the queue length; an unchanged length
/// means arrivals stopped, so waiting cannot fill the batch further.
constexpr int kObserveSpins = 128;
/// Pause spins a waiter whose request is executing on another thread
/// makes before it parks: a batch takes microseconds, a futex round trip
/// about as long.
constexpr int kSpinsBeforePark = 512;
/// Key-vector capacity a recycled Mailbox keeps; a rare huge request's
/// buffer is released instead of hoarded in the thread's cache.
constexpr std::size_t kKeepCapacity = 1024;

std::size_t round_up_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

AsyncLookupService::AsyncLookupService(
    const LookupService& service, BatcherConfig config,
    std::shared_ptr<obs::WindowedStats> stats)
    : service_(service),
      config_(config),
      stats_(stats ? std::move(stats)
                   : std::make_shared<obs::WindowedStats>()),
      results_(std::make_shared<ResultFreelist>()) {
  if (config_.max_batch_size == 0) config_.max_batch_size = 1;
  // The ring must fit at least two full batches so a combiner never
  // deadlocks producers of the batch after the one it is executing.
  const std::size_t cap = round_up_pow2(
      std::max(config_.ring_capacity, 2 * config_.max_batch_size));
  slots_ = std::vector<Slot>(cap);
  for (std::size_t p = 0; p < cap; ++p) {
    slots_[p].seq.store(p, std::memory_order_relaxed);
  }
  ring_mask_ = cap - 1;
}

AsyncLookupService::~AsyncLookupService() {
  // With no concurrent caller every combine succeeds, so this runs every
  // queued request and each outstanding future is ready afterwards.
  while (tail_.load(std::memory_order_acquire) !=
         head_.load(std::memory_order_acquire)) {
    combine_once();
  }
}

// ---- mailboxes ----------------------------------------------------------

std::vector<AsyncLookupService::Mailbox*>& AsyncLookupService::box_cache() {
  thread_local struct Cache {
    std::vector<Mailbox*> free;
    ~Cache() {
      for (Mailbox* box : free) delete box;
    }
  } cache;
  return cache.free;
}

AsyncLookupService::Mailbox* AsyncLookupService::alloc_box() {
  std::vector<Mailbox*>& cache = box_cache();
  if (!cache.empty()) {
    Mailbox* box = cache.back();
    cache.pop_back();
    return box;
  }
  return new Mailbox();
}

void AsyncLookupService::free_box(Mailbox* box) {
  // May run on a different thread than alloc_box (a moved future, or the
  // combiner finishing a parked handoff); each thread recycles into its
  // own cache, bounded so a consume-heavy thread does not hoard memory.
  box->state.store(Mailbox::kPending, std::memory_order_relaxed);
  box->handoff.store(0, std::memory_order_relaxed);
  box->words_kind = false;
  if (box->ids.capacity() > kKeepCapacity) {
    std::vector<std::size_t>().swap(box->ids);
  }
  if (box->words.capacity() > kKeepCapacity) {
    std::vector<std::string>().swap(box->words);
  }
  box->ids.clear();
  box->words.clear();
  box->trace = obs::TraceContext{};
  box->slice = ResultSlice();
  box->error = nullptr;
  std::vector<Mailbox*>& cache = box_cache();
  if (cache.size() < 4096) {
    cache.push_back(box);
  } else {
    delete box;
  }
}

void AsyncLookupService::complete(Mailbox* box) {
  // A waiter still spinning sees kDone on its next load: no syscall. One
  // that parked is woken, and the box is freed by whichever of the two
  // finishes last, so the notify never touches recycled memory.
  if (box->state.exchange(Mailbox::kDone, std::memory_order_acq_rel) ==
      Mailbox::kParked) {
    box->state.notify_one();
    if (box->handoff.fetch_add(1, std::memory_order_acq_rel) == 1) {
      free_box(box);
    }
  }
}

// ---- producers ----------------------------------------------------------

AsyncLookupService::SliceFuture AsyncLookupService::lookup_id(
    std::size_t id, const obs::TraceContext& trace) {
  Mailbox* box = alloc_box();
  box->ids.push_back(id);
  return submit(box, trace);
}

AsyncLookupService::SliceFuture AsyncLookupService::lookup_ids(
    std::vector<std::size_t> ids, const obs::TraceContext& trace) {
  Mailbox* box = alloc_box();
  box->ids.swap(ids);
  return submit(box, trace);
}

AsyncLookupService::SliceFuture AsyncLookupService::lookup_word(
    std::string word, const obs::TraceContext& trace) {
  Mailbox* box = alloc_box();
  box->words_kind = true;
  box->words.push_back(std::move(word));
  return submit(box, trace);
}

AsyncLookupService::SliceFuture AsyncLookupService::lookup_words(
    std::vector<std::string> words, const obs::TraceContext& trace) {
  Mailbox* box = alloc_box();
  box->words_kind = true;
  box->words.swap(words);
  return submit(box, trace);
}

AsyncLookupService::SliceFuture AsyncLookupService::submit(
    Mailbox* box, const obs::TraceContext& trace) {
  const std::size_t n = box->size();
  if (n == 0) {
    // Nothing to look up: ready at once, no batch.
    box->state.store(Mailbox::kDone, std::memory_order_relaxed);
    return SliceFuture(this, box);
  }
  box->trace = trace;
  // Claim a position only when its slot is actually free. The claim is a
  // CAS, not a blind fetch_add, so a producer waiting for ring space
  // holds NOTHING — combiners always make progress past it. Slots are
  // freed at claim time (combine_once takes the Mailbox out), so a full
  // ring only means combining is behind, and helping combine clears it.
  std::uint64_t pos;
  std::uint32_t spins = 0;
  for (;;) {
    pos = head_.load(std::memory_order_relaxed);
    Slot& probe = slots_[pos & ring_mask_];
    if (probe.seq.load(std::memory_order_acquire) != pos) {
      // Either a racing producer just claimed `pos` (head moved; retry
      // immediately) or the ring is full of unclaimed requests.
      if (head_.load(std::memory_order_relaxed) != pos) continue;
      if (++spins > 64) {
        combine_once();
        std::this_thread::yield();
        spins = 0;
      } else {
        cpu_relax();
      }
      continue;
    }
    if (head_.compare_exchange_weak(pos, pos + 1,
                                    std::memory_order_relaxed)) {
      break;
    }
  }
  box->pos = pos;
  const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
  // The clock is read for the request that opens a batch (the batch's
  // oldest, whose age the stats record), for a traced one (its
  // batch_queue span starts here), and for one in kClockSample of the
  // rest — keeping steady_clock reads off most enqueues under load.
  box->enqueued_ns =
      pos == tail || trace.sampled() || (pos & (kClockSample - 1)) == 0
          ? now_ns()
          : 0;
  if (n > 1) extra_keys_.fetch_add(n - 1, std::memory_order_relaxed);
  Slot& slot = slots_[pos & ring_mask_];
  slot.box = box;
  slot.seq.store(pos + 1, std::memory_order_release);

  // Throughput trigger: the producer whose request fills a batch runs it
  // — under pipelined load batches execute with no thread handoff at
  // all. The try-lock inside combine_once keeps producers from queueing
  // up behind an active combiner.
  if (pos + 1 - tail + extra_keys_.load(std::memory_order_relaxed) >=
      config_.max_batch_size) {
    combine_once();
  }
  return SliceFuture(this, box);
}

// ---- combining ------------------------------------------------------------

bool AsyncLookupService::combine_once() {
  std::unique_lock<std::mutex> lock(combine_mu_, std::try_to_lock);
  if (!lock.owns_lock()) return false;
  const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
  const std::uint64_t head = head_.load(std::memory_order_acquire);

  // Claim the contiguous prefix of PUBLISHED slots, whole requests up to
  // the key budget: a producer preempted between its CAS and its seq
  // publish ends the batch early rather than being waited on — the
  // combiner never blocks on anyone. Each claimed slot is freed for its
  // next lap on the spot, so result consumption never gates ring reuse.
  thread_local std::vector<Mailbox*> boxes;
  boxes.clear();
  std::size_t keys = 0;
  std::uint64_t extra = 0;
  for (std::uint64_t p = tail; p < head && keys < config_.max_batch_size;
       ++p) {
    Slot& slot = slots_[p & ring_mask_];
    if (slot.seq.load(std::memory_order_acquire) != p + 1) break;
    const std::size_t n = slot.box->size();
    if (!boxes.empty() && keys + n > config_.max_batch_size) break;
    keys += n;
    extra += n - 1;
    boxes.push_back(slot.box);
    slot.seq.store(p + slots_.size(), std::memory_order_release);
  }
  if (boxes.empty()) return false;
  if (extra > 0) extra_keys_.fetch_sub(extra, std::memory_order_relaxed);
  tail_.store(tail + boxes.size(), std::memory_order_release);
  lock.unlock();  // claim done; execution needs no combiner exclusivity

  // By reference: the thread_local scratch stays owned here, so the
  // steady state allocates no batch list.
  execute_batch(boxes);
  return true;
}

std::shared_ptr<LookupResult> AsyncLookupService::acquire_result() {
  std::unique_ptr<LookupResult> result;
  {
    std::lock_guard<std::mutex> lock(results_->mu);
    if (!results_->free.empty()) {
      result = std::move(results_->free.back());
      results_->free.pop_back();
    }
  }
  if (!result) result = std::make_unique<LookupResult>();
  return std::shared_ptr<LookupResult>(
      result.release(), [freelist = results_](LookupResult* r) {
        std::lock_guard<std::mutex> lock(freelist->mu);
        freelist->free.emplace_back(r);
      });
}

void AsyncLookupService::execute_batch(const std::vector<Mailbox*>& boxes) {
  // Group keys by kind, preserving arrival order within each group; one
  // lookup per non-empty group, shared by every waiter of that kind.
  thread_local std::vector<std::size_t> ids;
  thread_local std::vector<std::string> words;
  ids.clear();
  words.clear();
  std::int64_t oldest_ns = 0;
  const Mailbox* traced = nullptr;
  for (const Mailbox* box : boxes) {
    if (box->words_kind) {
      words.insert(words.end(), box->words.begin(), box->words.end());
    } else {
      ids.insert(ids.end(), box->ids.begin(), box->ids.end());
    }
    if (box->enqueued_ns != 0 &&
        (oldest_ns == 0 || box->enqueued_ns < oldest_ns)) {
      oldest_ns = box->enqueued_ns;
    }
    if (traced == nullptr && box->trace.sampled()) traced = box;
  }
  const std::size_t keys = ids.size() + words.size();

  // One batch may carry several traced requests; each gets its own
  // batch_queue / batch_exec spans against the shared execution window.
  const std::uint64_t exec_start_ns =
      traced != nullptr ? obs::Tracer::now_ns() : 0;
  std::shared_ptr<const LookupResult> id_result, word_result;
  std::exception_ptr error;
  try {
    // The thread-local Scope lets LookupService (whose API predates
    // tracing) attribute its dequantize span to this batch's trace.
    std::optional<obs::Tracer::Scope> scope;
    if (traced != nullptr) scope.emplace(traced->trace);
    if (!ids.empty()) {
      std::shared_ptr<LookupResult> result = acquire_result();
      service_.lookup_ids_into(ids, result.get());
      id_result = std::move(result);
    }
    if (!words.empty()) {
      std::shared_ptr<LookupResult> result = acquire_result();
      service_.lookup_words_into(words, result.get());
      word_result = std::move(result);
    }
  } catch (...) {
    error = std::current_exception();
  }

  // Stats BEFORE releasing the waiters: a caller whose get() returned
  // must find its own keys already counted in a subsequent stats read
  // (the RPC test observes exactly this ordering over the wire).
  if (!error) {
    if (oldest_ns == 0) {
      // No sampled timestamp in this batch — count it without polluting
      // the latency histograms with a fake 0 µs entry.
      stats_->record_unsampled(keys, 0);
    } else {
      stats_->record_many(static_cast<double>(now_ns() - oldest_ns) / 1000.0,
                          keys, 0);
    }
  }
  if (traced != nullptr) {
    const std::uint64_t exec_end_ns = obs::Tracer::now_ns();
    obs::Tracer& tracer = obs::Tracer::instance();
    for (const Mailbox* box : boxes) {
      if (!box->trace.sampled()) continue;
      tracer.record(box->trace, obs::TraceStage::kBatchQueue,
                    static_cast<std::uint64_t>(box->enqueued_ns),
                    exec_start_ns);
      tracer.record(box->trace, obs::TraceStage::kBatchExec, exec_start_ns,
                    exec_end_ns);
    }
  }

  std::size_t id_off = 0, word_off = 0;
  for (Mailbox* box : boxes) {
    const std::size_t n = box->size();
    if (error) {
      box->error = error;
    } else if (box->words_kind) {
      box->slice = ResultSlice(word_result, word_off, n);
      word_off += n;
    } else {
      box->slice = ResultSlice(id_result, id_off, n);
      id_off += n;
    }
    complete(box);  // the box may be recycled from here on
  }
}

// ---- waiters --------------------------------------------------------------

bool AsyncLookupService::await(Mailbox* box) {
  const std::int64_t wait_ns =
      static_cast<std::int64_t>(config_.max_wait_us) * 1000;
  // Unsampled requests pin their deadline lazily, at the first look.
  std::int64_t deadline_ns =
      box->enqueued_ns != 0 ? box->enqueued_ns + wait_ns : 0;
  std::uint64_t last_queued = 0;
  int spins = 0;
  bool parked = false;
  while (box->state.load(std::memory_order_acquire) != Mailbox::kDone) {
    if (tail_.load(std::memory_order_acquire) > box->pos) {
      // Claimed: another thread is executing the request's batch. Spin a
      // little, then park until its combiner completes the box.
      if (++spins < kSpinsBeforePark) {
        cpu_relax();
        continue;
      }
      std::uint32_t expected = Mailbox::kPending;
      if (box->state.compare_exchange_strong(expected, Mailbox::kParked,
                                             std::memory_order_acq_rel,
                                             std::memory_order_acquire)) {
        parked = true;
        box->state.wait(Mailbox::kParked, std::memory_order_acquire);
      }
      continue;
    }
    // Queued: flush policy. Flush at once when the batch is full
    // (waiting cannot make it fuller) or when no request arrived after
    // this one — the newest waiter combines everything queued before it,
    // so a lone request never waits. Otherwise newer requests are still
    // arriving: wait while the queue keeps growing, and flush once one
    // look sees it stop (their holders are idle or not waiting yet) or
    // when the oldest waiter's max_wait expires.
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    const std::uint64_t queued =
        head - tail + extra_keys_.load(std::memory_order_relaxed);
    if (deadline_ns == 0) deadline_ns = now_ns() + wait_ns;
    if (queued >= config_.max_batch_size || head == box->pos + 1 ||
        queued == last_queued || now_ns() >= deadline_ns) {
      // A busy lock means another thread is claiming right now; a failed
      // claim means a preempted producer holds the next slot. Either way
      // the yield hands the core to whoever can make progress.
      if (!combine_once()) std::this_thread::yield();
    } else {
      last_queued = queued;
      for (int i = 0; i < kObserveSpins; ++i) cpu_relax();
    }
  }
  return parked;
}

std::size_t AsyncLookupService::pending() const {
  // Tail first: head only ever catches up to a later tail, so this order
  // keeps the difference non-negative under concurrent combining (the
  // reverse order could observe tail > the stale head and wrap).
  const std::uint64_t tail = tail_.load(std::memory_order_acquire);
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  return head > tail ? static_cast<std::size_t>(head - tail) : 0;
}

bool AsyncLookupService::SliceFuture::ready() const {
  return box_ != nullptr &&
         box_->state.load(std::memory_order_acquire) == Mailbox::kDone;
}

ResultSlice AsyncLookupService::SliceFuture::get() {
  ANCHOR_CHECK_MSG(valid(), "SliceFuture::get on consumed future");
  ResultSlice slice;
  if (std::exception_ptr error = consume(&slice)) {
    std::rethrow_exception(error);
  }
  return slice;
}

std::exception_ptr AsyncLookupService::SliceFuture::consume(
    ResultSlice* out) {
  if (box_ == nullptr) return nullptr;
  Mailbox* box = box_;
  box_ = nullptr;
  // A ready box is consumed without touching the service, which may be
  // gone by now (its destructor completed every box).
  const bool parked =
      box->state.load(std::memory_order_acquire) != Mailbox::kDone &&
      owner_->await(box);
  std::exception_ptr error = std::move(box->error);
  if (out != nullptr) *out = std::move(box->slice);
  if (!parked || box->handoff.fetch_add(1, std::memory_order_acq_rel) == 1) {
    free_box(box);
  }
  return error;
}

}  // namespace anchor::serve
