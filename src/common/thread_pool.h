// Fixed-size thread pool used by the Controller to stress-test cloned CDB
// instances concurrently (the paper's parallelization scheme, §2.2) and by
// the Random Forest trainer.

#ifndef HUNTER_COMMON_THREAD_POOL_H_
#define HUNTER_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <stdexcept>
#include <thread>
#include <vector>

namespace hunter::common {

class ThreadPool {
 public:
  // Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);

  // Drains outstanding work and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Drains outstanding work and joins all workers; idempotent. After
  // shutdown, Submit throws instead of enqueueing tasks nobody will run.
  void Shutdown();

  // Enqueues a task; the returned future yields the task's result. Throws
  // std::runtime_error if the pool has been shut down — without this, a
  // post-shutdown submission would sit in the queue forever and the caller's
  // future.get() would hang.
  template <typename F>
  auto Submit(F&& task) -> std::future<std::invoke_result_t<F>> {
    using Result = std::invoke_result_t<F>;
    auto packaged =
        std::make_shared<std::packaged_task<Result()>>(std::forward<F>(task));
    std::future<Result> future = packaged->get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) {
        throw std::runtime_error("ThreadPool::Submit called after shutdown");
      }
      queue_.emplace([packaged] { (*packaged)(); });
    }
    cv_.notify_one();
    return future;
  }

  size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop();

  // workers_ is written only in the constructor and joined after stopping_
  // flips, so it needs no guard; the queue and stop flag are shared with
  // every worker and must only be touched under mutex_.
  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;  // guarded by mutex_
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;  // guarded by mutex_
};

}  // namespace hunter::common

#endif  // HUNTER_COMMON_THREAD_POOL_H_
