/**
 * @file
 * Work-sharing thread pool: fixed worker threads over one bounded task
 * deque.
 *
 * The pool is the execution engine behind the grid runner
 * (exec::runGrid): every (workload x variant) cell of a sweep is an
 * independent, deterministically-seeded simulation, so a grid schedules
 * each cell as one task and reads the per-cell results after the
 * wait() barrier.
 *
 * Design points, in the order they matter:
 *
 *  - **Work-sharing, not work-stealing.**  Tasks here are multi-second
 *    simulations; one shared MPMC deque behind a mutex costs nanoseconds
 *    per pop and keeps the implementation dependency-free and easy to
 *    reason about.  Stealing only pays when tasks are microseconds.
 *  - **Bounded queue.**  submit() blocks once `queueCapacity` tasks are
 *    pending, so a producer enumerating a large sweep cannot balloon
 *    memory by materializing every closure up front.
 *  - **Exception propagation.**  A task that throws does not kill the
 *    worker: the first exception is captured and rethrown from wait()
 *    on the caller's thread; later exceptions are counted and dropped.
 *  - **Occupancy accounting.**  Per-task busy time is accumulated so
 *    callers can report pool occupancy (busy / (wall x workers)) in the
 *    `dcfb-bench-v1` JSON.
 *
 * Thread-ownership contract (see DESIGN.md "Execution model"): tasks
 * must not share mutable state with each other; everything a task
 * mutates is owned by that task (per-cell System, StatRegistry,
 * Watchdog, FaultInjector), and anything shared is immutable
 * (workload::ImageCache programs).
 */

#ifndef DCFB_EXEC_POOL_H
#define DCFB_EXEC_POOL_H

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dcfb::exec {

/** std::thread::hardware_concurrency() clamped to at least 1. */
unsigned hardwareJobs();

/**
 * Timeline track of the calling thread: 0 outside any pool, i+1 on
 * worker i of the pool that runs it.  Cell and profiler records stamp
 * it, so the `--trace-spans` timeline draws one track per worker.
 */
unsigned threadTrack();

/**
 * Fixed-size work-sharing pool with a bounded task deque.
 */
class Pool
{
  public:
    using Task = std::function<void()>;

    /**
     * Start @p workers_ threads.
     * @param workers_        worker-thread count (clamped to >= 1)
     * @param queue_capacity  bound on pending (not yet running) tasks;
     *                        0 picks 2 x workers
     */
    explicit Pool(unsigned workers_, std::size_t queue_capacity = 0);

    /** Waits for every submitted task, then joins the workers.  Any
     *  still-pending exception from an unchecked wait() is dropped. */
    ~Pool();

    Pool(const Pool &) = delete;
    Pool &operator=(const Pool &) = delete;

    /**
     * Enqueue @p task; blocks while the queue is at capacity.  Must not
     * be called from a worker thread (a full queue would deadlock).
     */
    void submit(Task task);

    /**
     * Barrier: block until every submitted task has finished, then
     * rethrow the first task exception (if any) on this thread.
     */
    void wait();

    unsigned workers() const { return static_cast<unsigned>(threads.size()); }
    std::size_t queueCapacity() const { return capacity; }

    /** Tasks completed so far (including ones that threw). */
    std::uint64_t tasksRun() const;

    /** Tasks whose exception was dropped because one was already held. */
    std::uint64_t exceptionsDropped() const;

    /** Summed wall time spent inside tasks, across all workers. */
    double busySeconds() const;

  private:
    void workerLoop();

    mutable std::mutex mutex;
    std::condition_variable taskReady;  //!< workers: queue non-empty / stop
    std::condition_variable spaceReady; //!< submitters: queue below capacity
    std::condition_variable allIdle;    //!< wait(): queue empty, none active

    std::deque<Task> queue;
    std::size_t capacity;
    unsigned active = 0;          //!< tasks currently executing
    bool stopping = false;
    std::uint64_t done = 0;
    std::uint64_t droppedErrors = 0;
    std::uint64_t busyNanos = 0;
    std::exception_ptr firstError;

    std::vector<std::thread> threads;
};

} // namespace dcfb::exec

#endif // DCFB_EXEC_POOL_H
