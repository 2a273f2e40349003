#include "mem/l1i.h"

#include <algorithm>
#include <cassert>

#include "obs/trace.h"
#include "rt/faults.h"
#include "rt/invariants.h"

namespace dcfb::mem {

namespace {

inline obs::MissClass
missClassOf(bool sequential)
{
    return sequential ? obs::MissClass::Sequential
                      : obs::MissClass::Discontinuity;
}

} // namespace

L1iCache::L1iCache(const L1iConfig &config, Llc &llc_, exec::Arena *arena)
    : cfg(config), llc(llc_),
      array(SetAssocCache<L1iMeta>::fromBytes(config.capacityBytes,
                                              config.assoc, arena)),
      buffer(config.prefetchBufferEntries),
      mshrs(exec::ArenaAlloc<MshrEntry>(arena))
{
    // The MSHR file is bounded by cfg.mshrs; reserving it keeps the
    // entries inside the slab (growth would abandon the old block).
    mshrs.reserve(cfg.mshrs);
    cLookups = statReg.counter("l1i_lookups");
    cAccesses = statReg.counter("l1i_accesses");
    cWpAccesses = statReg.counter("l1i_wp_accesses");
    cHits = statReg.counter("l1i_hits");
    cPfBufferHits = statReg.counter("l1i_pf_buffer_hits");
    cMisses = statReg.counter("l1i_misses");
    cSeqMisses = statReg.counter("l1i_seq_misses");
    cDiscMisses = statReg.counter("l1i_disc_misses");
    cWpMisses = statReg.counter("l1i_wp_misses");
    cEvictions = statReg.counter("l1i_evictions");
    cExternalRequests = statReg.counter("l1i_external_requests");
    cPfAttempts = statReg.counter("pf_attempts");
    cPfIssued = statReg.counter("pf_issued");
    cPfUseful = statReg.counter("pf_useful");
    cPfLate = statReg.counter("pf_late");
    cPfUseless = statReg.counter("pf_useless");
    cPfDroppedMshr = statReg.counter("pf_dropped_mshr");
    cMshrPressure = statReg.counter("l1i_mshr_pressure");
    cCmalCovered = statReg.counter("cmal_covered_cycles");
    cCmalFull = statReg.counter("cmal_full_cycles");
    cDemandMissCycles = statReg.counter("demand_miss_cycles");
    hMissLatency = statReg.histogram("miss_latency");
    hPfToUse = statReg.histogram("pf_to_use_distance");
    hMshrOccupancy = statReg.histogram("mshr_occupancy");
}

L1iCache::MshrEntry *
L1iCache::findMshr(Addr block_addr)
{
    Addr key = blockAlign(block_addr);
    for (auto &e : mshrs) {
        if (e.blockAddr == key)
            return &e;
    }
    return nullptr;
}

const L1iCache::MshrEntry *
L1iCache::findMshr(Addr block_addr) const
{
    Addr key = blockAlign(block_addr);
    for (const auto &e : mshrs) {
        if (e.blockAddr == key)
            return &e;
    }
    return nullptr;
}

L1iCache::MshrEntry &
L1iCache::issueFill(Addr block_addr, Cycle now, bool is_prefetch)
{
    cExternalRequests.add();
    hMshrOccupancy.sample(mshrs.size());
    auto res = llc.access(blockAlign(block_addr), now, true,
                          cfg.fetchFootprints);
    MshrEntry entry;
    entry.blockAddr = blockAlign(block_addr);
    entry.issued = now;
    entry.ready = res.ready;
    if (injector)
        entry.ready += injector->responseDelay();
    entry.isPrefetch = is_prefetch;
    entry.bfValid = res.bfValid;
    entry.bf = res.bf;
    mshrs.push_back(std::move(entry));
    return mshrs.back();
}

void
L1iCache::notePrefetchedLineUse(Addr block_addr, L1iMeta &meta, Cycle now,
                                bool sequential)
{
    // First demand use of a prefetched line: the prefetch fully covered
    // the fill latency (CMAL numerator == denominator), the prefetch was
    // useful, and per Section V.A the prefetch flag is reset.
    cPfUseful.add();
    cCmalCovered.add(meta.fillLatency);
    cCmalFull.add(meta.fillLatency);
    hPfToUse.sample(now >= meta.filledAt ? now - meta.filledAt : 0);
    if (obs::Tracing::enabled()) {
        obs::Tracing::record("l1i", now, blockAlign(block_addr),
                             missClassOf(sequential),
                             obs::MissOutcome::Covered);
    }
    meta.prefetched = false;
    meta.demanded = true;
    if (listener)
        listener->onPrefetchUsed(blockAlign(block_addr));
    if (observer)
        observer->onPrefetchUsed(blockAlign(block_addr));
}

void
L1iCache::noteEviction(Addr block_addr, const L1iMeta &meta, Cycle now)
{
    cEvictions.add();
    if (meta.prefetched && !meta.demanded) {
        cPfUseless.add();
        if (obs::Tracing::enabled()) {
            obs::Tracing::record("l1i", now, block_addr,
                                 obs::MissClass::None,
                                 obs::MissOutcome::Wasted);
        }
    }
    if (listener)
        listener->onEvict(block_addr, meta.prefetched, meta.demanded);
    if (observer)
        observer->onEvict(block_addr, meta.prefetched, meta.demanded);
}

L1iCache::DemandResult
L1iCache::demandAccess(Addr addr, Cycle now, bool wrong_path)
{
    Addr block = blockAlign(addr);
    DemandResult res;
    cLookups.add();
    (wrong_path ? cWpAccesses : cAccesses).add();

    bool sequential = lastDemandBlock != kInvalidAddr &&
        blockNumber(block) == blockNumber(lastDemandBlock) + 1;

    if (auto *line = array.lookup(block)) {
        res.hit = true;
        res.ready = now;
        if (!wrong_path)
            cHits.add();
        if (line->meta.prefetched && !line->meta.demanded)
            notePrefetchedLineUse(block, line->meta, now, sequential);
        line->meta.demanded = true;
        if (listener)
            listener->onDemandAccess(block, true);
        if (observer)
            observer->onDemandAccess(block, true);
        if (!wrong_path)
            lastDemandBlock = block;
        return res;
    }

    if (cfg.usePrefetchBuffer && buffer.extract(block)) {
        // Move the block from the prefetch buffer into the cache proper.
        res.hit = true;
        res.fromPrefetchBuffer = true;
        res.ready = now;
        if (!wrong_path) {
            cHits.add();
            cPfBufferHits.add();
        }
        BufferFill fill;
        if (auto it = bufferFillLatency.find(block);
            it != bufferFillLatency.end()) {
            fill = it->second;
            bufferFillLatency.erase(it);
        }
        cPfUseful.add();
        cCmalCovered.add(fill.latency);
        cCmalFull.add(fill.latency);
        hPfToUse.sample(now >= fill.filledAt ? now - fill.filledAt : 0);
        if (obs::Tracing::enabled()) {
            obs::Tracing::record("l1i", now, block, missClassOf(sequential),
                                 obs::MissOutcome::Covered);
        }
        L1iMeta meta;
        meta.demanded = true;
        meta.fillLatency = fill.latency;
        meta.filledAt = fill.filledAt;
        auto ev = array.insert(block, meta);
        if (ev.valid)
            noteEviction(ev.blockAddr, ev.meta, now);
        if (listener) {
            listener->onPrefetchUsed(block);
            listener->onDemandAccess(block, true);
        }
        if (observer) {
            observer->onPrefetchUsed(block);
            observer->onDemandAccess(block, true);
        }
        if (!wrong_path)
            lastDemandBlock = block;
        return res;
    }

    // Miss path.
    if (!wrong_path) {
        cMisses.add();
        (sequential ? cSeqMisses : cDiscMisses).add();
    } else {
        cWpMisses.add();
    }
    if (listener) {
        listener->onDemandAccess(block, false);
        listener->onDemandMiss(block, sequential);
    }
    if (observer) {
        observer->onDemandAccess(block, false);
        observer->onDemandMiss(block, sequential);
    }

    if (MshrEntry *entry = findMshr(block)) {
        res.hitInFlight = true;
        res.ready = entry->ready;
        bool late_prefetch =
            entry->isPrefetch && !entry->demanded && !wrong_path;
        if (late_prefetch) {
            // Late prefetch: covers only the cycles elapsed since issue.
            cPfLate.add();
            cPfUseful.add();
            cCmalCovered.add(now - entry->issued);
            cCmalFull.add(entry->ready - entry->issued);
        }
        if (!wrong_path) {
            hMissLatency.sample(entry->ready > now ? entry->ready - now
                                                   : 0);
            if (obs::Tracing::enabled()) {
                obs::Tracing::record("l1i", now, block,
                                     missClassOf(sequential),
                                     late_prefetch
                                         ? obs::MissOutcome::Late
                                         : obs::MissOutcome::Uncovered);
            }
            entry->demanded = true;
            entry->demandCycle = now;
            lastDemandBlock = block;
        }
        return res;
    }

    if (mshrs.size() >= cfg.mshrs)
        cMshrPressure.add(); // demand always gets a slot
    MshrEntry &entry = issueFill(block, now, false);
    entry.demanded = !wrong_path;
    entry.demandCycle = now;
    res.ready = entry.ready;
    if (!wrong_path) {
        cDemandMissCycles.add(entry.ready - now);
        hMissLatency.sample(entry.ready - now);
        if (obs::Tracing::enabled()) {
            obs::Tracing::record("l1i", now, block, missClassOf(sequential),
                                 obs::MissOutcome::Uncovered);
        }
        lastDemandBlock = block;
    }
    return res;
}

L1iCache::PfOutcome
L1iCache::prefetch(Addr addr, Cycle now)
{
    Addr block = blockAlign(addr);
    cLookups.add();
    cPfAttempts.add();

    if (array.lookup(block, false))
        return PfOutcome::InCache;
    if (cfg.usePrefetchBuffer && buffer.contains(block))
        return PfOutcome::InBuffer;
    if (findMshr(block))
        return PfOutcome::InFlight;
    if (mshrs.size() >= cfg.mshrs) {
        cPfDroppedMshr.add();
        return PfOutcome::NoMshr;
    }
    issueFill(block, now, true);
    cPfIssued.add();
    return PfOutcome::Issued;
}

void
L1iCache::installFill(const MshrEntry &entry)
{
    if (entry.bfValid)
        footprints[entry.blockAddr] = entry.bf;

    if (cfg.usePrefetchBuffer && entry.isPrefetch && !entry.demanded) {
        buffer.insert(entry.blockAddr);
        bufferFillLatency[entry.blockAddr] =
            BufferFill{entry.ready - entry.issued, entry.ready};
        if (listener) {
            listener->onFill(entry.blockAddr, true,
                             entry.bfValid ? &entry.bf : nullptr);
        }
        if (observer) {
            observer->onFill(entry.blockAddr, true,
                             entry.bfValid ? &entry.bf : nullptr);
        }
        return;
    }

    L1iMeta meta;
    meta.prefetched = entry.isPrefetch && !entry.demanded;
    meta.demanded = entry.demanded;
    meta.fillLatency = entry.ready - entry.issued;
    meta.filledAt = entry.ready;
    auto ev = array.insert(entry.blockAddr, meta);
    if (ev.valid)
        noteEviction(ev.blockAddr, ev.meta, entry.ready);
    if (listener) {
        listener->onFill(entry.blockAddr, entry.isPrefetch,
                         entry.bfValid ? &entry.bf : nullptr);
    }
    if (observer) {
        observer->onFill(entry.blockAddr, entry.isPrefetch,
                         entry.bfValid ? &entry.bf : nullptr);
    }
}

void
L1iCache::tick(Cycle now)
{
    for (std::size_t i = 0; i < mshrs.size();) {
        if (mshrs[i].ready <= now) {
            MshrEntry done = std::move(mshrs[i]);
            mshrs.erase(mshrs.begin() + static_cast<std::ptrdiff_t>(i));
            // Drop faults discard completed prefetch responses: the MSHR
            // is freed but the block never arrives.  Demand responses
            // (including demand-merged prefetches) always deliver -- a
            // dropped demand would wedge fetch forever.
            if (injector && done.isPrefetch && !done.demanded &&
                injector->dropPrefetchResponse()) {
                continue;
            }
            installFill(done);
        } else {
            ++i;
        }
    }
}

void
L1iCache::warmInsert(Addr addr)
{
    Addr block = blockAlign(addr);
    L1iMeta meta;
    meta.demanded = true;
    auto t = array.touchOrInsert(block, meta);
    if (t.hit)
        t.line->meta.demanded = true;
    else
        lastDemandBlock = block;
}

bool
L1iCache::lookup(Addr addr)
{
    cLookups.add();
    return probe(addr);
}

bool
L1iCache::probe(Addr addr) const
{
    if (array.lookup(addr))
        return true;
    return cfg.usePrefetchBuffer && buffer.contains(addr);
}

bool
L1iCache::inFlight(Addr addr) const
{
    return findMshr(addr) != nullptr;
}

Cycle
L1iCache::fillReadyCycle(Addr addr) const
{
    const MshrEntry *entry = findMshr(addr);
    return entry ? entry->ready : 0;
}

L1iMeta *
L1iCache::lineMeta(Addr addr)
{
    auto *line = array.lookup(addr, false);
    return line ? &line->meta : nullptr;
}

const BranchFootprint *
L1iCache::footprintFor(Addr addr) const
{
    auto it = footprints.find(blockAlign(addr));
    return it == footprints.end() ? nullptr : &it->second;
}

std::vector<L1iCache::MshrView>
L1iCache::mshrState() const
{
    std::vector<MshrView> out;
    out.reserve(mshrs.size());
    for (const auto &e : mshrs) {
        out.push_back(
            {e.blockAddr, e.issued, e.ready, e.isPrefetch, e.demanded});
    }
    return out;
}

void
L1iCache::registerInvariants(rt::InvariantRegistry &reg,
                             Cycle miss_resolution_bound)
{
    // The MSHR walks are gated on occupancy: an idle file (the common
    // case between miss bursts) costs one size read per sweep instead
    // of a full -- for mshr_unique, quadratic -- walk.
    auto mshr_occupancy = [this] { return mshrs.size(); };

    reg.add("l1i.mshr_unique", mshr_occupancy,
            [this](Cycle) -> std::optional<std::string> {
        for (std::size_t i = 0; i < mshrs.size(); ++i) {
            for (std::size_t j = i + 1; j < mshrs.size(); ++j) {
                if (mshrs[i].blockAddr == mshrs[j].blockAddr) {
                    return "two MSHRs track block " +
                        std::to_string(mshrs[i].blockAddr);
                }
            }
        }
        return std::nullopt;
    });

    // Prefetches are only granted an MSHR while the file has a free
    // slot, so at most cfg.mshrs prefetch entries can ever be live
    // (demand misses may overcommit the file by design).
    reg.add("l1i.mshr_prefetch_bound", mshr_occupancy,
            [this](Cycle) -> std::optional<std::string> {
        std::size_t pf = 0;
        for (const auto &e : mshrs)
            pf += e.isPrefetch;
        if (pf > cfg.mshrs) {
            return std::to_string(pf) + " prefetch MSHRs live, file has " +
                std::to_string(cfg.mshrs) + " entries";
        }
        return std::nullopt;
    });

    reg.add("l1i.miss_resolution", mshr_occupancy,
            [this, miss_resolution_bound](
                Cycle now) -> std::optional<std::string> {
        if (miss_resolution_bound == 0)
            return std::nullopt;
        for (const auto &e : mshrs) {
            if (now > e.issued && now - e.issued > miss_resolution_bound) {
                return "block " + std::to_string(e.blockAddr) +
                    " unresolved for " + std::to_string(now - e.issued) +
                    " cycles (issued " + std::to_string(e.issued) +
                    ", ready " + std::to_string(e.ready) + ")";
            }
        }
        return std::nullopt;
    });

    // SN4L metadata consistency: the prefetch flag clears on first
    // demand use, so prefetched && demanded can never coexist, and the
    // local prefetch status is a 4-bit field.
    reg.add("l1i.line_meta",
            [this](Cycle) -> std::optional<std::string> {
        for (unsigned s = 0; s < array.sets(); ++s) {
            for (const auto &line : array.set(s)) {
                if (!line.valid)
                    continue;
                if (line.meta.prefetched && line.meta.demanded) {
                    return "block " + std::to_string(line.blockAddr) +
                        " is both prefetched and demanded";
                }
                if (line.meta.localStatus > 0xf) {
                    return "block " + std::to_string(line.blockAddr) +
                        " local status 0x" +
                        std::to_string(line.meta.localStatus) +
                        " exceeds 4 bits";
                }
            }
        }
        return std::nullopt;
    });

    // Demand-access conservation: every correct-path access is either a
    // hit or a miss, with nothing double-counted or lost.
    reg.add("l1i.access_conservation",
            [this](Cycle) -> std::optional<std::string> {
        std::uint64_t accesses = statReg.get("l1i_accesses");
        std::uint64_t hits = statReg.get("l1i_hits");
        std::uint64_t misses = statReg.get("l1i_misses");
        if (accesses != hits + misses) {
            return std::to_string(accesses) + " accesses != " +
                std::to_string(hits) + " hits + " +
                std::to_string(misses) + " misses";
        }
        return std::nullopt;
    });
}

} // namespace dcfb::mem
