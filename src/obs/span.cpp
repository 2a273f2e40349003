#include "obs/span.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/json.h"

namespace dcfb::obs {

namespace {

/**
 * One thread's bounded span buffer.  Single writer (the owning
 * thread): a span is stored then published with one release store of
 * the size counter; close() acquires the counter and reads exactly the
 * published prefix.  Owned by the sink via shared_ptr so a thread may
 * exit before close() without losing its spans.
 */
struct ThreadBuf
{
    explicit ThreadBuf(std::size_t capacity) : records(capacity) {}

    std::vector<SpanRecord> records; //!< fixed capacity, never resized
    std::atomic<std::size_t> size{0};
    std::atomic<std::uint64_t> droppedCount{0};
    std::string threadName;
    std::uint32_t track = 0;
};

/** Bumped on every open() so stale thread slots re-register. */
std::atomic<std::uint64_t> gEpoch{1};

struct ThreadSlot
{
    std::shared_ptr<ThreadBuf> buf;
    std::uint64_t epoch = 0;
    SpanIds current;
    std::string name; //!< set via setThreadName before first record
};

thread_local ThreadSlot tlSlot;

std::atomic<std::uint64_t> gNextId{1};

char *
hexId(char (&buf)[24], std::uint64_t id)
{
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(id));
    return buf;
}

} // namespace

struct Spans::State
{
    Config cfg;
    std::mutex mutex;
    std::vector<std::shared_ptr<ThreadBuf>> bufs; //!< registration order
};

Spans::State *Spans::state = nullptr;
std::atomic<bool> Spans::enabledFlag{false};

SpanIds &
Spans::threadCurrent()
{
    return tlSlot.current;
}

bool
Spans::open(const std::string &path)
{
    Config cfg;
    cfg.path = path;
    return open(cfg);
}

bool
Spans::open(const Config &config)
{
    close();
    // Probe writability now so a bad path fails at the CLI, not after
    // a full run.
    {
        std::ofstream probe(config.path,
                            std::ios::out | std::ios::trunc);
        if (!probe.is_open()) {
            std::fprintf(stderr, "[obs] cannot open span file %s\n",
                         config.path.c_str());
            return false;
        }
    }
    state = new State;
    state->cfg = config;
    if (state->cfg.maxPerThread == 0)
        state->cfg.maxPerThread = 1;
    gEpoch.fetch_add(1, std::memory_order_acq_rel);
    enabledFlag.store(true, std::memory_order_release);
    return true;
}

std::uint64_t
Spans::newTraceId()
{
    return gNextId.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t
Spans::newSpanId()
{
    return gNextId.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t
Spans::nowUs()
{
    static const auto base = std::chrono::steady_clock::now();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - base)
            .count());
}

SpanIds
Spans::current()
{
    return tlSlot.current;
}

void
Spans::setThreadName(std::string name)
{
    tlSlot.name = std::move(name);
    if (tlSlot.buf)
        tlSlot.buf->threadName = tlSlot.name;
}

void
Spans::record(const char *name, std::uint64_t traceId,
              std::uint64_t spanId, std::uint64_t parentId,
              std::uint64_t startUs, std::uint64_t endUs,
              std::string label)
{
    if (!enabled())
        return;
    ThreadSlot &slot = tlSlot;
    std::uint64_t epoch = gEpoch.load(std::memory_order_acquire);
    if (!slot.buf || slot.epoch != epoch) {
        State *s = state;
        if (!s)
            return; // raced a close(); drop the span
        auto buf = std::make_shared<ThreadBuf>(s->cfg.maxPerThread);
        std::lock_guard<std::mutex> lock(s->mutex);
        buf->track = static_cast<std::uint32_t>(s->bufs.size());
        buf->threadName = slot.name.empty()
            ? "thread-" + std::to_string(buf->track)
            : slot.name;
        s->bufs.push_back(buf);
        slot.buf = std::move(buf);
        slot.epoch = epoch;
    }
    ThreadBuf &buf = *slot.buf;
    std::size_t n = buf.size.load(std::memory_order_relaxed);
    if (n >= buf.records.size()) {
        buf.droppedCount.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    SpanRecord &rec = buf.records[n];
    rec.traceId = traceId;
    rec.spanId = spanId;
    rec.parentId = parentId;
    rec.startUs = startUs;
    rec.endUs = endUs;
    rec.name = name;
    rec.label = std::move(label);
    buf.size.store(n + 1, std::memory_order_release);
}

std::uint64_t
Spans::recorded()
{
    if (!state)
        return 0;
    std::lock_guard<std::mutex> lock(state->mutex);
    std::uint64_t total = 0;
    for (const auto &buf : state->bufs)
        total += buf->size.load(std::memory_order_acquire);
    return total;
}

std::uint64_t
Spans::dropped()
{
    if (!state)
        return 0;
    std::lock_guard<std::mutex> lock(state->mutex);
    std::uint64_t total = 0;
    for (const auto &buf : state->bufs)
        total += buf->droppedCount.load(std::memory_order_relaxed);
    return total;
}

void
Spans::close()
{
    if (!state)
        return;
    enabledFlag.store(false, std::memory_order_release);
    gEpoch.fetch_add(1, std::memory_order_acq_rel);
    State *s = state;
    state = nullptr;

    std::vector<std::shared_ptr<ThreadBuf>> bufs;
    {
        std::lock_guard<std::mutex> lock(s->mutex);
        bufs = std::move(s->bufs);
    }

    struct Entry
    {
        const SpanRecord *rec;
        std::uint32_t track;
    };
    std::vector<Entry> entries;
    std::uint64_t droppedTotal = 0;
    for (const auto &buf : bufs) {
        std::size_t n = buf->size.load(std::memory_order_acquire);
        for (std::size_t i = 0; i < n; ++i)
            entries.push_back(Entry{&buf->records[i], buf->track});
        droppedTotal += buf->droppedCount.load(std::memory_order_relaxed);
    }
    // Deterministic file order regardless of which thread recorded
    // what when: by start time, span ID as the tiebreak.
    std::sort(entries.begin(), entries.end(),
              [](const Entry &a, const Entry &b) {
                  if (a.rec->startUs != b.rec->startUs)
                      return a.rec->startUs < b.rec->startUs;
                  return a.rec->spanId < b.rec->spanId;
              });

    std::ofstream out(s->cfg.path, std::ios::out | std::ios::trunc);
    if (!out.is_open()) {
        std::fprintf(stderr, "[obs] cannot open span file %s\n",
                     s->cfg.path.c_str());
        delete s;
        return;
    }
    out << "[";
    bool first = true;
    auto emit = [&](const JsonValue &record) {
        out << (first ? "\n" : ",\n") << record.dump();
        first = false;
    };

    {
        JsonValue proc = JsonValue::object();
        proc["name"] = "process_name";
        proc["ph"] = "M";
        proc["pid"] = std::uint64_t{0};
        proc["tid"] = std::uint64_t{0};
        JsonValue args = JsonValue::object();
        args["name"] = "dcfb";
        proc["args"] = std::move(args);
        emit(proc);
    }
    for (const auto &buf : bufs) {
        JsonValue meta = JsonValue::object();
        meta["name"] = "thread_name";
        meta["ph"] = "M";
        meta["pid"] = std::uint64_t{0};
        meta["tid"] = std::uint64_t{buf->track};
        JsonValue args = JsonValue::object();
        args["name"] = buf->threadName;
        meta["args"] = std::move(args);
        emit(meta);
    }

    char idBuf[24];
    for (const Entry &entry : entries) {
        const SpanRecord &rec = *entry.rec;
        JsonValue ev = JsonValue::object();
        ev["name"] = rec.name;
        ev["cat"] = "dcfb";
        ev["ph"] = "X";
        ev["ts"] = rec.startUs;
        ev["dur"] = std::uint64_t{
            rec.endUs > rec.startUs ? rec.endUs - rec.startUs : 0};
        ev["pid"] = std::uint64_t{0};
        ev["tid"] = std::uint64_t{entry.track};
        JsonValue args = JsonValue::object();
        args["trace"] = hexId(idBuf, rec.traceId);
        args["span"] = hexId(idBuf, rec.spanId);
        if (rec.parentId)
            args["parent"] = hexId(idBuf, rec.parentId);
        if (!rec.label.empty())
            args["label"] = rec.label;
        ev["args"] = std::move(args);
        emit(ev);
    }

    {
        JsonValue summary = JsonValue::object();
        summary["name"] = "span_summary";
        summary["ph"] = "i";
        summary["ts"] = nowUs();
        summary["pid"] = std::uint64_t{0};
        summary["tid"] = std::uint64_t{0};
        summary["s"] = "g";
        JsonValue args = JsonValue::object();
        args["spans"] = std::uint64_t{entries.size()};
        args["dropped"] = droppedTotal;
        args["tracks"] = std::uint64_t{bufs.size()};
        summary["args"] = std::move(args);
        emit(summary);
    }
    out << "\n]\n";
    delete s;
}

// ------------------------------------------------------------- SpanScope

SpanScope::SpanScope(const char *name_, std::string label_)
    : name(name_), label(std::move(label_))
{
    if (!Spans::enabled())
        return;
    SpanIds &cur = Spans::threadCurrent();
    saved = cur;
    trace = cur.trace ? cur.trace : Spans::newTraceId();
    parent = cur.span;
    span = Spans::newSpanId();
    startUs = Spans::nowUs();
    cur = SpanIds{trace, span};
    active = true;
}

SpanScope::~SpanScope()
{
    if (!active)
        return;
    Spans::record(name, trace, span, parent, startUs, Spans::nowUs(),
                  std::move(label));
    Spans::threadCurrent() = saved;
}

} // namespace dcfb::obs
