#include "util/thread_pool.hpp"

namespace sna::util {

int resolveThreadCount(int requested) {
    if (requested > 0) return requested;
    if (requested == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        return hw > 0 ? static_cast<int>(hw) : 1;
    }
    return 1;
}

ThreadPool::ThreadPool(int threads) {
    if (threads < 1) threads = 1;
    workers_.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) {
        workers_.emplace_back([this] { workerLoop(); });
    }
}

ThreadPool::~ThreadPool() {
    {
        const std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    wake_.notify_all();
    for (auto& w : workers_) w.join();
}

void ThreadPool::runBatch(std::vector<std::function<void()>> jobs) {
    if (jobs.empty()) return;
    {
        const std::lock_guard<std::mutex> lock(mu_);
        for (auto& job : jobs) queue_.push(std::move(job));
    }
    wake_.notify_all();
}

void ThreadPool::wait() {
    std::unique_lock<std::mutex> lock(mu_);
    idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::workerLoop() {
    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lock(mu_);
            wake_.wait(lock, [this] { return stop_ || !queue_.empty(); });
            if (queue_.empty()) return;  // stop_ and drained
            job = std::move(queue_.front());
            queue_.pop();
            ++active_;
        }
        job();
        {
            const std::lock_guard<std::mutex> lock(mu_);
            --active_;
            if (queue_.empty() && active_ == 0) idle_.notify_all();
        }
    }
}

}  // namespace sna::util
