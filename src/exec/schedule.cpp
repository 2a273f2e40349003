#include "exec/schedule.h"

#include <mutex>

#include "exec/pool.h"
#include "obs/profiler.h"

namespace dcfb::exec {

namespace {

unsigned gDefaultJobs = 0; // 0 = auto; written once at CLI parse

std::mutex gLogMutex;
std::vector<ExecReport> gLog;

} // namespace

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

    // Every cell (serial and pooled paths alike) records its start and
    // track, so the span timeline shows every worker's occupancy.  Each
    // slot is written by exactly one task; the pool barrier publishes
    // them to the caller.
    auto timed_body = [&](std::size_t i) {
        CellTime &cell = report.cellTimes[i];
        cell.start = obs::profNow();
        cell.track = threadTrack();
        body(i);
        cell.seconds = obs::profNow() - cell.start;
    };

    const double t0 = obs::profNow();
    if (report.jobs <= 1) {
        for (std::size_t i = 0; i < n; ++i) {
            timed_body(i);
            report.busySeconds += report.cellTimes[i].seconds;
        }
        report.wallSeconds = obs::profNow() - t0;
        return report;
    }

    {
        Pool pool(report.jobs);
        for (std::size_t i = 0; i < n; ++i)
            pool.submit([&, i] { timed_body(i); });
        pool.wait(); // rethrows the first cell failure
        report.busySeconds = pool.busySeconds();
    }
    report.wallSeconds = obs::profNow() - t0;
    return report;
}

void
parallelFor(std::size_t n, unsigned jobs,
            const std::function<void(std::size_t)> &body)
{
    runIndexed("", n, jobs, body);
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
