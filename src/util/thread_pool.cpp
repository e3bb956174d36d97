#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/input.hpp"

namespace mgba {

namespace {

std::size_t default_threads() {
  if (const char* env = std::getenv("MGBA_THREADS")) {
    if (const auto v = parse_count(env); v && *v > 0) return *v;
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<std::size_t>(hc);
}

/// One parallel_for invocation. Owned by shared_ptr so a worker that wakes
/// late (after the job completed and the pool moved on) still holds a
/// consistent job whose chunks are simply exhausted.
struct Job {
  const std::function<void(std::size_t, std::size_t)>* body = nullptr;
  std::size_t n = 0;
  std::size_t chunk_size = 0;
  std::size_t num_chunks = 0;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> pending{0};
};

/// True on pool worker threads; a parallel region entered from a worker
/// (nesting) runs inline instead of re-dispatching.
thread_local bool t_in_worker = false;

class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  std::size_t threads() const { return threads_; }

  void resize(std::size_t n) {
    if (n == 0) n = default_threads();
    if (n == threads_) return;
    shutdown();
    threads_ = n;
    spawn();
  }

  void run(std::size_t n, std::size_t grain,
           const std::function<void(std::size_t, std::size_t)>& fn) {
    if (n == 0) return;
    grain = std::max<std::size_t>(grain, 1);
    if (threads_ <= 1 || t_in_worker || n <= grain) {
      fn(0, n);
      return;
    }
    // Oversubscribe chunks 4x relative to threads so uneven per-index cost
    // (e.g. high-fanin nodes) load-balances, but never below the grain.
    const std::size_t chunk =
        std::max(grain, (n + threads_ * 4 - 1) / (threads_ * 4));
    const std::size_t chunks = (n + chunk - 1) / chunk;
    if (chunks <= 1) {
      fn(0, n);
      return;
    }
    auto job = std::make_shared<Job>();
    job->body = &fn;
    job->n = n;
    job->chunk_size = chunk;
    job->num_chunks = chunks;
    job->pending.store(chunks, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      job_ = job;
      ++epoch_;
    }
    wake_cv_.notify_all();
    execute(*job);  // the calling thread participates
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] {
      return job->pending.load(std::memory_order_acquire) == 0;
    });
  }

  ~Pool() { shutdown(); }

 private:
  Pool() : threads_(default_threads()) { spawn(); }

  void spawn() {
    for (std::size_t i = 1; i < threads_; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  void shutdown() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
      ++epoch_;
    }
    wake_cv_.notify_all();
    for (std::thread& t : workers_) t.join();
    workers_.clear();
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = false;
    job_.reset();
  }

  void worker_loop() {
    t_in_worker = true;
    std::uint64_t seen;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      seen = epoch_;
    }
    for (;;) {
      std::shared_ptr<Job> job;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        wake_cv_.wait(lock, [&] { return stop_ || epoch_ != seen; });
        if (stop_) return;
        seen = epoch_;
        job = job_;
      }
      if (job) execute(*job);
    }
  }

  void execute(Job& job) {
    for (;;) {
      const std::size_t c = job.next.fetch_add(1, std::memory_order_relaxed);
      if (c >= job.num_chunks) return;
      const std::size_t begin = c * job.chunk_size;
      const std::size_t end = std::min(job.n, begin + job.chunk_size);
      (*job.body)(begin, end);
      if (job.pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lock(mutex_);
        done_cv_.notify_all();
      }
    }
  }

  std::size_t threads_ = 1;
  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable wake_cv_;
  std::condition_variable done_cv_;
  std::shared_ptr<Job> job_;
  std::uint64_t epoch_ = 0;
  bool stop_ = false;
};

}  // namespace

std::size_t num_threads() { return Pool::instance().threads(); }

void set_num_threads(std::size_t n) { Pool::instance().resize(n); }

void parallel_for(std::size_t n, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& fn) {
  Pool::instance().run(n, grain, fn);
}

std::size_t reduction_blocks(std::size_t n) {
  if (n == 0) return 0;
  return std::min(Pool::instance().threads(), n);
}

void parallel_blocks(
    std::size_t n,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  const std::size_t blocks = reduction_blocks(n);
  if (blocks == 0) return;
  if (blocks == 1) {
    fn(0, 0, n);
    return;
  }
  const std::size_t base = n / blocks;
  const std::size_t rem = n % blocks;
  const auto block_begin = [base, rem](std::size_t b) {
    return b * base + std::min(b, rem);
  };
  parallel_for(blocks, 1, [&](std::size_t b0, std::size_t b1) {
    for (std::size_t b = b0; b < b1; ++b) {
      fn(b, block_begin(b), block_begin(b + 1));
    }
  });
}

}  // namespace mgba
