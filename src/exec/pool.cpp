#include "exec/pool.h"

#include <chrono>
#include <cstdlib>

namespace dcfb::exec {

namespace {

thread_local unsigned tTrack = 0;

/**
 * Make the calling thread's first heap allocation now.  glibc attaches a
 * thread to a malloc arena, and sets up its per-thread cache, on the
 * thread's first allocation.  Workers that did so inside their first
 * cell raised a 2-worker perfbench figure-grid's peak RSS from 89 MB to
 * 118 MB (about 15 MB per extra arena; 4-core x86 VM, glibc 2.36);
 * attached up front, every arena count reads 89 MB.
 */
void
attachAllocator()
{
    void *volatile probe = std::malloc(1);
    std::free(probe);
}

} // namespace

unsigned
hardwareJobs()
{
    unsigned n = std::thread::hardware_concurrency();
    return n ? n : 1;
}

unsigned
threadTrack()
{
    return tTrack;
}

Pool::Pool(unsigned workers_, std::size_t queue_capacity)
{
    unsigned n = workers_ ? workers_ : 1;
    capacity = queue_capacity ? queue_capacity
                              : static_cast<std::size_t>(n) * 2;
    threads.reserve(n);
    for (unsigned i = 0; i < n; ++i) {
        threads.emplace_back([this, i] {
            tTrack = i + 1;
            attachAllocator();
            workerLoop();
        });
    }
}

Pool::~Pool()
{
    {
        std::unique_lock<std::mutex> lock(mutex);
        stopping = true;
    }
    taskReady.notify_all();
    spaceReady.notify_all();
    for (auto &t : threads)
        t.join();
}

void
Pool::submit(Task task)
{
    {
        std::unique_lock<std::mutex> lock(mutex);
        spaceReady.wait(lock, [this] {
            return queue.size() < capacity || stopping;
        });
        if (stopping)
            return; // destructor raced a submit; drop the task
        queue.push_back(std::move(task));
    }
    taskReady.notify_one();
}

void
Pool::wait()
{
    std::unique_lock<std::mutex> lock(mutex);
    allIdle.wait(lock, [this] { return queue.empty() && active == 0; });
    if (firstError) {
        std::exception_ptr err = firstError;
        firstError = nullptr;
        lock.unlock();
        std::rethrow_exception(err);
    }
}

std::uint64_t
Pool::tasksRun() const
{
    std::unique_lock<std::mutex> lock(mutex);
    return done;
}

std::uint64_t
Pool::exceptionsDropped() const
{
    std::unique_lock<std::mutex> lock(mutex);
    return droppedErrors;
}

double
Pool::busySeconds() const
{
    std::unique_lock<std::mutex> lock(mutex);
    return static_cast<double>(busyNanos) * 1e-9;
}

void
Pool::workerLoop()
{
    using clock = std::chrono::steady_clock;
    for (;;) {
        Task task;
        {
            std::unique_lock<std::mutex> lock(mutex);
            taskReady.wait(lock, [this] {
                return !queue.empty() || stopping;
            });
            if (queue.empty())
                return; // stopping and drained
            task = std::move(queue.front());
            queue.pop_front();
            ++active;
        }
        spaceReady.notify_one();

        auto t0 = clock::now();
        std::exception_ptr err;
        try {
            task();
        } catch (...) {
            err = std::current_exception();
        }
        auto t1 = clock::now();

        bool idle = false;
        {
            std::unique_lock<std::mutex> lock(mutex);
            busyNanos += static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                    .count());
            ++done;
            --active;
            if (err) {
                if (firstError)
                    ++droppedErrors;
                else
                    firstError = err;
            }
            idle = queue.empty() && active == 0;
        }
        if (idle)
            allIdle.notify_all();
    }
}

} // namespace dcfb::exec
