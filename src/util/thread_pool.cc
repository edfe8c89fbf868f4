#include "util/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <string>

namespace adict {

namespace {

// Shared state of one ParallelFor call. Heap-allocated and shared with the
// drain tasks because a drain task may start (and immediately exit) after
// the call has already returned.
struct ForState {
  uint64_t begin = 0;
  uint64_t end = 0;
  uint64_t grain = 0;
  uint64_t num_chunks = 0;
  const std::function<void(uint64_t, uint64_t)>* fn = nullptr;

  std::atomic<uint64_t> next{0};  // morsel cursor
  std::atomic<uint64_t> done{0};  // completed chunks
  MutexCv mutex{LockRank::kPoolForState, "ThreadPool.ForState.mutex"};

  // Drains the shared cursor: the morsel-at-a-time load balancing. Chunk
  // boundaries are a pure function of (begin, end, grain), so results
  // combined in chunk order are independent of who ran which chunk.
  void Drain() {
    uint64_t chunk;
    while ((chunk = next.fetch_add(1, std::memory_order_relaxed)) <
           num_chunks) {
      const uint64_t b = begin + chunk * grain;
      const uint64_t e = std::min(end, b + grain);
      (*fn)(b, e);
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == num_chunks) {
        // Empty critical section: pairs with the waiter's predicate check
        // under the same mutex so the final notify cannot be missed.
        { MutexLock lock(&mutex); }
        mutex.NotifyAll();
      }
    }
  }
};

}  // namespace

ThreadPool::ThreadPool(size_t parallelism) {
  const size_t num_workers = parallelism <= 1 ? 0 : parallelism - 1;
  workers_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  threads_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  stop_.store(true, std::memory_order_release);
  {
    // Empty critical section: a worker that checked stop_ and is about to
    // wait must observe the notify.
    MutexLock lock(&wake_mutex_);
  }
  wake_mutex_.NotifyAll();
  for (std::thread& thread : threads_) thread.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  if (workers_.empty()) {
    task();
    return;
  }
  const size_t index =
      next_queue_.fetch_add(1, std::memory_order_relaxed) % workers_.size();
  {
    MutexLock lock(&workers_[index]->mutex);
    workers_[index]->tasks.push_back(std::move(task));
  }
  queued_.fetch_add(1, std::memory_order_release);
  {
    // Empty critical section, as in the destructor: a worker that saw no
    // queued task and is about to wait must observe the notify.
    MutexLock lock(&wake_mutex_);
  }
  wake_mutex_.NotifyOne();
}

bool ThreadPool::PopTask(size_t index, std::function<void()>* task,
                         bool* stolen) {
  // Own deque first, newest task first (cache-warm LIFO).
  {
    Worker& own = *workers_[index];
    MutexLock lock(&own.mutex);
    if (!own.tasks.empty()) {
      *task = std::move(own.tasks.back());
      own.tasks.pop_back();
      *stolen = false;
      return true;
    }
  }
  // Steal the oldest task from the first non-empty victim (FIFO end: the
  // task the owner is least likely to touch soon).
  for (size_t offset = 1; offset < workers_.size(); ++offset) {
    Worker& victim = *workers_[(index + offset) % workers_.size()];
    MutexLock lock(&victim.mutex);
    if (!victim.tasks.empty()) {
      *task = std::move(victim.tasks.front());
      victim.tasks.pop_front();
      *stolen = true;
      return true;
    }
  }
  return false;
}

void ThreadPool::WorkerLoop(size_t index) {
  for (;;) {
    std::function<void()> task;
    bool stolen = false;
    if (PopTask(index, &task, &stolen)) {
      queued_.fetch_sub(1, std::memory_order_relaxed);
      if (stolen) steals_.fetch_add(1, std::memory_order_relaxed);
      task();
      continue;
    }
    MutexLock lock(&wake_mutex_);
    if (stop_.load(std::memory_order_acquire)) return;
    wake_mutex_.Await([this] {
      return stop_.load(std::memory_order_acquire) ||
             queued_.load(std::memory_order_acquire) > 0;
    });
    if (stop_.load(std::memory_order_acquire)) return;
  }
}

void ThreadPool::ParallelFor(uint64_t begin, uint64_t end, uint64_t grain,
                             const std::function<void(uint64_t, uint64_t)>&
                                 fn) {
  if (end <= begin || grain == 0) return;
  const uint64_t num_chunks = NumChunks(end - begin, grain);
  if (workers_.empty() || num_chunks <= 1) {
    for (uint64_t b = begin; b < end; b += grain) {
      fn(b, std::min(end, b + grain));
    }
    return;
  }

  auto state = std::make_shared<ForState>();
  state->begin = begin;
  state->end = end;
  state->grain = grain;
  state->num_chunks = num_chunks;
  state->fn = &fn;

  // One drain task per worker lane that could usefully help; the caller is
  // the remaining lane. A drain task that runs after the loop finished
  // exits immediately (cursor exhausted), keeping `state` alive via the
  // shared_ptr until the last straggler is gone.
  const uint64_t helpers =
      std::min<uint64_t>(workers_.size(), num_chunks - 1);
  for (uint64_t i = 0; i < helpers; ++i) {
    Submit([state] { state->Drain(); });
  }
  state->Drain();
  MutexLock lock(&state->mutex);
  state->mutex.Await([&state] {
    return state->done.load(std::memory_order_acquire) == state->num_chunks;
  });
}

namespace {

// The process-wide pool: a pointer swapped under a mutex. Pool() reads the
// pointer without the lock on its fast path; SetPoolParallelism requires
// the pool to be quiescent (no thread inside it, none about to enter), so
// every allowed schedule orders the swap before the next lock-free read.
std::atomic<ThreadPool*> g_pool{nullptr};
// Ranked above kPoolWake: SetPoolParallelism deletes the old pool while
// holding this lock, and ~ThreadPool takes the wake mutex to stop workers.
Mutex g_pool_mutex{LockRank::kPoolRegistry, "thread_pool.g_pool_mutex"};

}  // namespace

size_t DefaultPoolParallelism() {
  const char* env = std::getenv("ADICT_THREADS");
  if (env == nullptr || *env == '\0') {
    return std::max(1u, std::thread::hardware_concurrency());
  }
  const long value = std::strtol(env, nullptr, 10);
  if (value <= 0) return std::max(1u, std::thread::hardware_concurrency());
  return static_cast<size_t>(std::min<long>(value, 256));
}

ThreadPool& Pool() {
  ThreadPool* pool = g_pool.load(std::memory_order_acquire);
  if (pool != nullptr) return *pool;
  MutexLock lock(&g_pool_mutex);
  pool = g_pool.load(std::memory_order_relaxed);
  if (pool == nullptr) {
    pool = new ThreadPool(DefaultPoolParallelism());  // never destroyed
    g_pool.store(pool, std::memory_order_release);
  }
  return *pool;
}

size_t PoolParallelism() { return Pool().parallelism(); }

void SetPoolParallelism(size_t parallelism) {
  MutexLock lock(&g_pool_mutex);
  ThreadPool* old = g_pool.load(std::memory_order_relaxed);
  g_pool.store(new ThreadPool(parallelism == 0 ? DefaultPoolParallelism()
                                               : parallelism),
               std::memory_order_release);
  delete old;  // quiescence is the caller's contract (see thread_pool.h)
}

}  // namespace adict
