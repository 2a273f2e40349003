#include "sim/system.h"

#include <sys/mman.h>

#include <iterator>
#include <new>
#include <type_traits>

#include "prefetch/confluence.h"
#include "prefetch/fdip.h"
#include "prefetch/nextline.h"
#include "prefetch/sn4l_dis_btb.h"
#include "sim/simulator.h"

namespace dcfb::sim {

namespace {

/** The kinds of warm touch (MruFilter). */
constexpr std::uint32_t kInstrTouch = 1;
constexpr std::uint32_t kDataTouch = 2;

/**
 * The functional warmup's touch filter for one cache: per set, the
 * block the set's last warm touch left most recently used (MRU), and
 * which kinds of touch of it would change nothing.  Such a touch only
 * renumbers the LRU clock, and every LRU decision compares stamps
 * within one set, so skipping it is exact (DESIGN.md §7).  The set
 * comes from the cache's own setIndex() and an entry holds the whole
 * block number, shifted past the two kind bits, so the filter is exact
 * however the cache maps blocks to sets.  0 records nothing, and
 * neither does a block number of 2^30 or more (addresses from 64 GiB),
 * so its set's next touch just runs.
 */
template <typename Cache>
class MruFilter
{
  public:
    /** @p entries_: one zeroed entry per set of @p cache_. */
    MruFilter(const Cache &cache_, std::uint32_t *entries_)
        : cache(cache_), entries(entries_)
    {
    }

    /** True when a @p kind touch of @p addr's block changes nothing. */
    bool
    skip(Addr addr, std::uint32_t kind) const
    {
        std::uint32_t e = entries[cache.setIndex(addr)];
        return (e & kind) != 0 && (e >> 2) == blockNumber(addr);
    }

    /** @p addr's block was just touched: until its set changes again,
     *  a repeat touch of a kind in @p noops changes nothing. */
    void
    record(Addr addr, std::uint32_t noops)
    {
        Addr b = blockNumber(addr);
        entries[cache.setIndex(addr)] =
            b < (Addr{1} << 30) ? static_cast<std::uint32_t>(b << 2) | noops
                                : 0;
    }

    /** Something other than a touch changed @p addr's set. */
    void clear(Addr addr) { entries[cache.setIndex(addr)] = 0; }

  private:
    const Cache &cache;
    std::uint32_t *entries;
};

/**
 * Zeroed entries for one walk's filters, mapped for the walk and
 * unmapped after it.  Neither heap form paid: allocated and freed per
 * walk, the entries left heap holes that raised seed-sweep's peak RSS
 * by 0.4-0.5 MB; kept in one buffer per thread, they raised
 * figure-grid's by 0.5 MB, whose runner starts new threads every round.
 */
class FilterEntries
{
  public:
    explicit FilterEntries(std::size_t n)
        : count(n), entries(static_cast<std::uint32_t *>(
                        mmap(nullptr, bytes(), PROT_READ | PROT_WRITE,
                             MAP_PRIVATE | MAP_ANONYMOUS, -1, 0)))
    {
        if (entries == MAP_FAILED)
            throw std::bad_alloc();
    }

    FilterEntries(const FilterEntries &) = delete;
    FilterEntries &operator=(const FilterEntries &) = delete;
    ~FilterEntries() { munmap(entries, bytes()); }

    std::uint32_t *data() const { return entries; }

  private:
    std::size_t bytes() const { return count * sizeof(std::uint32_t); }

    std::size_t count;
    std::uint32_t *entries;
};

} // namespace

System::System(const SystemConfig &config)
    : cfg(config),
      program(config.program
                  ? config.program
                  : std::make_shared<const workload::Program>(
                        workload::buildProgram(config.profile))),
      injector(config.faults, config.runSeed)
{
    cDispatchActive = simStats.counter("dispatch_active_cycles");
    cStallBackend = simStats.counter("stall_backend");
    cStallIcache = simStats.counter("stall_icache");
    cStallBtb = simStats.counter("stall_btb");
    cStallEmptyFtq = simStats.counter("stall_empty_ftq");
    cStallMispredict = simStats.counter("stall_mispredict");
    cStallFrontend = simStats.counter("stall_frontend");
    cStallOther = simStats.counter("stall_other");
    addStats("sim", simStats);

    walker = std::make_unique<workload::TraceWalker>(*program, cfg.runSeed);
    predecoder = std::make_unique<isa::Predecoder>(
        program->image, cfg.profile.variableLength);

    mesh = std::make_unique<noc::MeshModel>(cfg.mesh);
    memory = std::make_unique<mem::MemoryModel>(cfg.memory);
    llc = std::make_unique<mem::Llc>(cfg.llc, *mesh, *memory, cfg.coreTile);
    l1i = std::make_unique<mem::L1iCache>(cfg.l1i, *llc);
    l1d = std::make_unique<mem::L1dCache>(cfg.l1d, *llc);

    tage = std::make_unique<frontend::Tage>();
    btb = std::make_unique<frontend::Btb>(cfg.btbEntries, cfg.btbAssoc);
    if (cfg.preset == Preset::MicroBtb)
        microBtb = std::make_unique<frontend::MicroBtb>(cfg.microBtb);
    backend = std::make_unique<core::Backend>(cfg.backend);
    addStats("noc", mesh->stats());
    addStats("mem", memory->stats());
    addStats("llc", llc->stats());
    addStats("l1i", l1i->stats());
    addStats("l1d", l1d->stats());
    addStats("tage", tage->stats());
    addStats("btb", btb->stats());
    if (microBtb)
        addStats("mbtb", microBtb->stats());
    addStats("be", backend->stats());
    // Fault counters only exist under --inject, keeping uninjected
    // reports bit-identical to the pre-integrity format.
    if (injector.active())
        addStats("rt", injector.stats());

    // The one preset table: each case builds the preset's prefetcher
    // and names its fetch engine; wire() builds that engine, runs the
    // functional warmup and binds stepFn to stepImpl over exactly these
    // two types (DESIGN.md §11).
    switch (cfg.preset) {
      case Preset::NL:
      case Preset::N2L:
      case Preset::N4L:
      case Preset::N8L: {
        const unsigned degree = cfg.preset == Preset::NL    ? 1
                                : cfg.preset == Preset::N2L ? 2
                                : cfg.preset == Preset::N4L ? 4
                                                            : 8;
        wire<CoupledFetchEngineT<prefetch::NextLinePrefetcher>>(
            std::make_unique<prefetch::NextLinePrefetcher>(*l1i, degree));
        break;
      }
      case Preset::N4LPlain:
      case Preset::SN4L:
      case Preset::DisOnly:
      case Preset::SN4LDis:
      case Preset::SN4LDisBtb: {
        auto pf = std::make_unique<prefetch::Sn4lDisBtb>(
            *l1i, *predecoder, btb.get(), cfg.sn4l);
        sn4l = pf.get();
        addStats("pf", sn4l->stats());
        addStats("pf", sn4l->seqTable().stats(), WarmReset::Gap6Keep);
        addStats("pf", sn4l->disTable().stats(), WarmReset::Gap6Keep);
        addStats("pf", sn4l->rlu().stats(), WarmReset::Gap6Keep);
        wire<CoupledFetchEngineT<prefetch::Sn4lDisBtb>>(std::move(pf));
        break;
      }
      case Preset::Confluence: {
        auto pf = std::make_unique<prefetch::ConfluencePrefetcher>(
            *l1i, cfg.confluence);
        addStats("pf", pf->stats(), WarmReset::Gap6Keep);
        wire<CoupledFetchEngineT<prefetch::ConfluencePrefetcher>>(
            std::move(pf));
        break;
      }
      case Preset::Shotgun:
        wire<DecoupledFetchEngine>(
            std::make_unique<prefetch::NullPrefetcher>());
        break;
      case Preset::Fdip: {
        auto pf = std::make_unique<prefetch::Fdip>(*l1i, cfg.fdip);
        fdip = pf.get();
        addStats("pf", fdip->stats());
        wire<DecoupledFetchEngine>(std::move(pf));
        break;
      }
      default:
        wire<CoupledFetchEngineT<prefetch::NullPrefetcher>>(
            std::make_unique<prefetch::NullPrefetcher>());
        break;
    }

    if (microBtb)
        fetch->setMicroBtb(microBtb.get());
    addStats("fe", fetch->stats());

    registerIntegrity();
}

template <typename Fe, typename Pf>
void
System::wire(std::unique_ptr<Pf> pf)
{
    Pf &typed = *pf;
    prefetcher = std::move(pf);
    if constexpr (std::is_same_v<Fe, DecoupledFetchEngine>) {
        auto engine = std::make_unique<DecoupledFetchEngine>(
            cfg.fetch,
            cfg.preset == Preset::Shotgun
                ? DecoupledFetchEngine::Kind::Shotgun
                : DecoupledFetchEngine::Kind::Fdip,
            *walker, *l1i, *tage, *predecoder, cfg.shotgunBtb, btb.get(),
            fdip);
        decoupled = engine.get();
        addStats("sg", decoupled->shotgunBtb().stats());
        // FDIP's fills/usefulness land in the prefetcher's accounting;
        // Shotgun does its own prefill on fills.
        l1i->setListener(fdip ? static_cast<mem::L1iListener *>(fdip)
                              : decoupled);
        fetch = std::move(engine);
    } else {
        l1i->setListener(prefetcher.get());
        fetch = std::make_unique<Fe>(cfg.fetch, *walker, *l1i, *btb, *tage,
                                     program->image, typed);
    }
    // No engine reads the walker before its first cycle, so the warmup
    // follows every engine (primeBranch() fills Shotgun's split BTB).
    functionalWarmup();
    stepFn = obs::Profiler::enabled() ? &System::stepImpl<Pf, Fe, true>
                                      : &System::stepImpl<Pf, Fe, false>;
}

void
System::functionalWarmup()
{
    // Replay the retired stream into the long-term structures (LLC,
    // L1s, TAGE, BTB-side) without timing, mirroring the checkpoint
    // state of the paper's SimFlex methodology.
    if (cfg.functionalWarmInstrs == 0)
        return;
    WarmCache::Lease lease =
        WarmCache::global().acquire(WarmKey::of(cfg, program));
    warmSource = lease.source();

    if (const WarmCheckpoint *cp = lease.checkpoint()) {
        walker->restoreWarm(cp->walker);
        llc->restoreWarm(cp->llc);
        l1i->restoreWarm(cp->l1i);
        l1d->restoreWarm(cp->l1d);
        tage->restoreWarm(cp->tage);
        cp->branches.forEach([this](const WarmBranchRecord &r) {
            primeBranch(r.decode(*program));
        });
        return;
    }

    // The walk reports a run of instructions in one cache block once,
    // and the filters drop every touch that finds its block MRU in its
    // set with nothing to change (MruFilter).  Under DV-LLC an
    // instruction touch refreshes the set's BF-slot blocks after the
    // block itself, so only another instruction touch of the block
    // changes nothing, and a branch offset recorded into the set may
    // change its slot list, so it clears the set's entry.
    const bool store = warmSource == WarmSource::Stored;
    WarmBranchList branches;
    {
        struct Sink
        {
            System &sys;
            WarmBranchList *branches; //!< nullptr unless storing
            MruFilter<mem::Llc> llc;
            MruFilter<mem::L1iCache> l1i;
            MruFilter<mem::L1dCache> l1d;

            void
            instrBlock(Addr pc)
            {
                // Without DV-LLC the touch leaves the line MRU and
                // instruction-tagged, so a repeat of either kind is a
                // no-op.
                if (!llc.skip(pc, kInstrTouch)) {
                    sys.llc->warmTouch(pc, true);
                    llc.record(pc, sys.cfg.llc.dvllc
                                       ? kInstrTouch
                                       : kInstrTouch | kDataTouch);
                }
                if (!l1i.skip(pc, kInstrTouch)) {
                    sys.l1i->warmInsert(pc);
                    l1i.record(pc, kInstrTouch);
                }
            }

            void
            data(Addr addr)
            {
                // Whether the line is instruction-tagged is unknown
                // here, so only another data touch is a no-op.
                if (!llc.skip(addr, kDataTouch)) {
                    sys.llc->warmTouch(addr, false);
                    llc.record(addr, kDataTouch);
                }
                if (!l1d.skip(addr, kDataTouch)) {
                    sys.l1d->warmInsert(addr);
                    l1d.record(addr, kDataTouch);
                }
            }

            void
            branch(const workload::TraceEntry &e, std::uint32_t blk,
                   std::uint32_t to)
            {
                if (e.kind == isa::InstrKind::CondBranch) {
                    sys.tage->predict(e.pc);
                    sys.tage->update(e.pc, e.taken);
                } else {
                    sys.tage->updateHistoryUnconditional(e.pc);
                }
                sys.primeBranch({e.pc, e.target, e.kind, e.taken});
                if (branches)
                    branches->push({blk, to, e.taken});
                if (sys.cfg.llc.dvllc) {
                    sys.recordRetiredFootprints(e);
                    llc.clear(e.pc);
                }
            }
        };
        FilterEntries filters(llc->sets() + l1i->sets() + l1d->sets());
        std::uint32_t *entries = filters.data();
        Sink sink{*this, store ? &branches : nullptr,
                  {*llc, entries},
                  {*l1i, entries + llc->sets()},
                  {*l1d, entries + llc->sets() + l1i->sets()}};
        walker->warmWalk(cfg.functionalWarmInstrs, sink);
    }

    if (store) {
        auto cp = std::make_shared<WarmCheckpoint>();
        cp->walker = walker->saveWarm();
        cp->llc = llc->saveWarm();
        cp->l1i = l1i->saveWarm();
        cp->l1d = l1d->saveWarm();
        cp->tage = tage->saveWarm();
        cp->branches = std::move(branches);
        lease.publish(std::move(cp));
    }
}

void
System::primeBranch(const WarmBranch &b)
{
    if (b.taken) {
        btb->update(b.pc, b.target, b.kind);
        if (microBtb)
            microBtb->fill(b.pc, b.target, b.kind);
    }
    // Shotgun's split BTB learns targets only; its footprints still
    // build during the timed warm window, because only the retired
    // stream can construct them (Section III).
    if (cfg.preset != Preset::Shotgun)
        return;
    auto &sg = decoupled->shotgunBtb();
    switch (b.kind) {
      case isa::InstrKind::CondBranch:
        sg.updateC(b.pc, b.target);
        break;
      case isa::InstrKind::Return:
        sg.updateRib(b.pc);
        break;
      default:
        sg.updateU(b.pc, b.target, b.kind, false);
        break;
    }
}

void
System::registerIntegrity()
{
    // Fault hooks only attach when a plan is active, so the uninjected
    // hot paths keep their exact pre-integrity behaviour (and results
    // stay bit-identical with injection off).
    if (injector.active()) {
        l1i->setFaultInjector(&injector);
        predecoder->setFaultInjector(&injector);
        if (sn4l)
            sn4l->setFaultInjector(&injector);
    }

    invariants.setEnabled(cfg.integrity.invariants);

    // Delay faults legitimately stretch miss lifetimes; widen the
    // resolution bound so the leak detector doesn't flag injected
    // latency as a lost response.
    Cycle miss_bound = cfg.integrity.missResolutionBound;
    if (miss_bound && cfg.faults.kind == rt::FaultKind::Delay)
        miss_bound += cfg.faults.delayCycles;
    l1i->registerInvariants(invariants, miss_bound);
    if (sn4l)
        sn4l->registerInvariants(invariants);
    if (decoupled)
        decoupled->registerInvariants(invariants);

    invariants.add("sim.rob_occupancy",
                   [this](Cycle) -> std::optional<std::string> {
        if (backend->robOccupancy() > cfg.backend.robEntries) {
            return std::to_string(backend->robOccupancy()) +
                " ROB entries exceed the " +
                std::to_string(cfg.backend.robEntries) + "-entry bound";
        }
        return std::nullopt;
    });

    // Cycle accounting: every cycle since the last resetStats lands in
    // exactly one dispatch bucket, and stall_frontend is the sum of its
    // three causes.
    invariants.add("sim.cycle_buckets",
                   [this](Cycle) -> std::optional<std::string> {
        std::uint64_t frontend = cStallIcache.value() + cStallBtb.value() +
            cStallEmptyFtq.value();
        std::uint64_t bucketed = cDispatchActive.value() +
            cStallBackend.value() + frontend + cStallMispredict.value() +
            cStallOther.value();
        if (bucketed != cycleCount - statsEpoch) {
            return std::to_string(bucketed) + " bucketed cycles, but " +
                std::to_string(cycleCount - statsEpoch) +
                " simulated since the last resetStats";
        }
        if (cStallFrontend.value() != frontend) {
            return "stall_frontend " +
                std::to_string(cStallFrontend.value()) +
                " != icache + btb + empty_ftq " + std::to_string(frontend);
        }
        return std::nullopt;
    });
}

obs::JsonValue
System::snapshot() const
{
    obs::JsonValue doc = obs::JsonValue::object();
    doc["schema"] = "dcfb-snapshot-v1";
    doc["cycle"] = cycleCount;
    doc["workload"] = cfg.profile.name;
    doc["design"] = presetName(cfg.preset);
    doc["retired"] = backend->retired();
    doc["fetched"] = fetch->stats().get("fe_fetched");
    doc["rob_occupancy"] =
        static_cast<std::uint64_t>(backend->robOccupancy());
    doc["fetch_buffer"] =
        static_cast<std::uint64_t>(fetch->buffer().size());

    obs::JsonValue mshrs = obs::JsonValue::array();
    std::uint64_t inflight_prefetches = 0;
    for (const auto &m : l1i->mshrState()) {
        obs::JsonValue e = obs::JsonValue::object();
        e["block"] = m.blockAddr;
        e["issued"] = m.issued;
        e["ready"] = m.ready;
        e["prefetch"] = m.isPrefetch;
        e["demanded"] = m.demanded;
        mshrs.push(std::move(e));
        inflight_prefetches += m.isPrefetch && !m.demanded;
    }
    doc["inflight_prefetches"] = inflight_prefetches;
    doc["mshrs"] = std::move(mshrs);

    if (sn4l) {
        auto depths = sn4l->queueDepths();
        obs::JsonValue q = obs::JsonValue::object();
        q["seq"] = static_cast<std::uint64_t>(depths.seq);
        q["dis"] = static_cast<std::uint64_t>(depths.dis);
        q["rlu"] = static_cast<std::uint64_t>(depths.rlu);
        doc["pf_queues"] = std::move(q);
    }
    if (fdip) {
        obs::JsonValue q = obs::JsonValue::object();
        q["queue"] = static_cast<std::uint64_t>(fdip->queueDepth());
        doc["fdip"] = std::move(q);
    }
    if (decoupled) {
        obs::JsonValue f = obs::JsonValue::object();
        f["size"] = static_cast<std::uint64_t>(decoupled->ftqSize());
        f["fetch_idx"] = decoupled->fetchIndex();
        f["bpu_idx"] = decoupled->bpuIndex();
        doc["ftq"] = std::move(f);
    }
    if (injector.active())
        doc["fault_plan"] = rt::faultPlanSpec(injector.planRef());
    return doc;
}

void
System::resetStats()
{
    for (const StatRow &row : statTable) {
        if (row.reset == WarmReset::Zero)
            row.stats->reset();
    }
    statsEpoch = cycleCount;
}

void
System::collectStats(RunResult &out) const
{
    for (const StatRow &row : statTable) {
        const std::string prefix = std::string(row.prefix) + ".";
        for (const auto &[name, value] : row.stats->counters())
            out.stats[prefix + name] += value;
        for (const auto &[name, hist] : row.stats->histograms()) {
            if (hist.count != 0)
                out.hists[prefix + name].merge(hist);
        }
    }
}

void
System::recordRetiredFootprints(const workload::TraceEntry &e)
{
    if (!cfg.llc.dvllc)
        return;
    if (e.isBranch()) {
        llc->recordBranchOffset(blockAlign(e.pc),
                                static_cast<std::uint8_t>(blockOffset(e.pc)));
    }
}

template <typename Fe>
void
System::dispatchStageImpl(Fe &fe)
{
    auto &buffer = fe.buffer();
    unsigned dispatched = 0;
    while (backend->canDispatch() && !buffer.empty() &&
           buffer.front().ready <= cycleCount) {
        const workload::TraceEntry &e = buffer.front().entry;
        Cycle data_ready = 0;
        if (e.kind == isa::InstrKind::Load ||
            e.kind == isa::InstrKind::Store) {
            data_ready = l1d->access(e.dataAddr, cycleCount,
                                     e.kind == isa::InstrKind::Store);
        }
        backend->dispatch(e.kind, cycleCount, data_ready);
        recordRetiredFootprints(e);
        buffer.pop();
        ++dispatched;
    }

    if (dispatched > 0) {
        cDispatchActive.add();
        return;
    }
    if (backend->robFull()) {
        cStallBackend.add();
        return;
    }
    switch (fe.stallReason(cycleCount)) {
      case StallReason::ICacheMiss:
        cStallIcache.add();
        cStallFrontend.add();
        break;
      case StallReason::BtbMissRedirect:
        cStallBtb.add();
        cStallFrontend.add();
        break;
      case StallReason::EmptyFtq:
        cStallEmptyFtq.add();
        cStallFrontend.add();
        break;
      case StallReason::MispredictRedirect:
        cStallMispredict.add();
        break;
      default:
        cStallOther.add();
        break;
    }
}

template <typename Pf, typename Fe, bool Timed>
void
System::stepImpl()
{
    if constexpr (Timed) {
        if (cycleCount % obs::kProfSampleStride != 0) {
            stepImpl<Pf, Fe, false>();
            return;
        }
    }
    auto &pf = static_cast<Pf &>(*prefetcher);
    auto &fe = static_cast<Fe &>(*fetch);
    // A timed cycle chains boundary timestamps: each read ends one phase
    // and starts the next, so five phases cost six clock reads.
    [[maybe_unused]] double t[6] = {};
    auto stamp = [&]([[maybe_unused]] unsigned i) {
        if constexpr (Timed)
            t[i] = obs::profNow();
    };
    stamp(0);
    backend->beginCycle(cycleCount);
    stamp(1);
    l1i->tick(cycleCount);
    stamp(2);
    pf.tick(cycleCount);
    stamp(3);
    dispatchStageImpl(fe);
    stamp(4);
    fe.cycle(cycleCount);
    stamp(5);
    if constexpr (Timed) {
        // Phase i (obs::ProfPhase order) spans stamps i and i + 1.
        for (unsigned i = 0; i + 1 < std::size(t); ++i)
            profPhases[i] += t[i + 1] - t[i];
    }
    ++cycleCount;
}

} // namespace dcfb::sim
