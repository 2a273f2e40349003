#include "exec/schedule.h"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

#include "obs/profiler.h"

namespace dcfb::exec {

namespace {

unsigned gDefaultJobs = 0; // 0 = auto; written once at CLI parse

std::mutex gLogMutex;
std::vector<ExecReport> gLog;

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

void
setDefaultJobs(unsigned jobs)
{
    gDefaultJobs = jobs;
}

unsigned
defaultJobs()
{
    return gDefaultJobs;
}

unsigned
resolveJobs(unsigned requested)
{
    if (requested)
        return requested;
    if (gDefaultJobs)
        return gDefaultJobs;
    return hardwareJobs();
}

double
ExecReport::occupancy() const
{
    double denom = wallSeconds * static_cast<double>(jobs ? jobs : 1);
    return denom > 0.0 ? busySeconds / denom : 0.0;
}

ExecReport
runIndexed(std::string label, std::size_t n, unsigned jobs,
           const std::function<void(std::size_t)> &body,
           const std::function<std::string(std::size_t)> &cell_label)
{
    ExecReport report;
    report.label = std::move(label);
    report.jobs = jobs ? jobs : 1;
    report.cells = n;
    report.cellTimes.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        if (cell_label)
            report.cellTimes[i].label = cell_label(i);
    }

    auto timed_body = [&](std::size_t i) {
        const double start = obs::profNow();
        body(i);
        report.cellTimes[i].seconds = obs::profNow() - start;
    };

    const double t0 = obs::profNow();
    if (report.jobs <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            timed_body(i);
    } else {
        // Each slot is written by the one worker that claimed its index;
        // the join publishes them to this thread.
        std::atomic<std::size_t> next{0};
        std::atomic<bool> failed{false};
        std::vector<std::exception_ptr> errors(n);
        auto worker = [&] {
            attachAllocator();
            while (!failed) {
                const std::size_t i = next++;
                if (i >= n)
                    break;
                try {
                    timed_body(i);
                } catch (...) {
                    errors[i] = std::current_exception();
                    failed = true;
                }
            }
        };
        {
            // jthread joins on destruction, also when starting a later
            // worker throws.
            std::vector<std::jthread> workers;
            for (unsigned w = 0; w < report.jobs; ++w)
                workers.emplace_back(worker);
        }
        for (const auto &err : errors) {
            if (err)
                std::rethrow_exception(err);
        }
    }
    report.wallSeconds = obs::profNow() - t0;
    for (const auto &cell : report.cellTimes)
        report.busySeconds += cell.seconds;
    return report;
}

void
ExecLog::push(ExecReport report)
{
    std::unique_lock<std::mutex> lock(gLogMutex);
    gLog.push_back(std::move(report));
}

std::vector<ExecReport>
ExecLog::drain()
{
    std::unique_lock<std::mutex> lock(gLogMutex);
    std::vector<ExecReport> out;
    out.swap(gLog);
    return out;
}

} // namespace dcfb::exec
