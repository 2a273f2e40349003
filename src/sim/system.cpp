#include "sim/system.h"

#include "prefetch/classic_discontinuity.h"
#include "prefetch/confluence.h"
#include "prefetch/fdip.h"
#include "prefetch/nextline.h"
#include "prefetch/sn4l_dis_btb.h"
#include "sim/simulator.h"

namespace dcfb::sim {

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

    switch (cfg.preset) {
      case Preset::NL:
        prefetcher =
            std::make_unique<prefetch::NextLinePrefetcher>(*l1i, 1);
        break;
      case Preset::N2L:
        prefetcher =
            std::make_unique<prefetch::NextLinePrefetcher>(*l1i, 2);
        break;
      case Preset::N4L:
        prefetcher =
            std::make_unique<prefetch::NextLinePrefetcher>(*l1i, 4);
        break;
      case Preset::N8L:
        prefetcher =
            std::make_unique<prefetch::NextLinePrefetcher>(*l1i, 8);
        break;
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
        prefetcher = std::move(pf);
        break;
      }
      case Preset::ClassicDis:
        // No stat row: its cdis_* counters have never been reported,
        // and adding them would change every ClassicDis RunResult.
        prefetcher = std::make_unique<prefetch::ClassicDiscontinuity>(*l1i);
        break;
      case Preset::Confluence: {
        auto pf = std::make_unique<prefetch::ConfluencePrefetcher>(
            *l1i, cfg.confluence);
        addStats("pf", pf->stats(), WarmReset::Gap6Keep);
        prefetcher = std::move(pf);
        break;
      }
      case Preset::Fdip: {
        auto pf = std::make_unique<prefetch::Fdip>(*l1i, cfg.fdip);
        fdip = pf.get();
        addStats("pf", fdip->stats());
        prefetcher = std::move(pf);
        break;
      }
      default:
        prefetcher = std::make_unique<prefetch::NullPrefetcher>();
        break;
    }

    // BTB-directed engines exist before the warmup so primeBranch() can
    // fill Shotgun's split BTB; they read no trace until their first
    // cycle.  Coupled engines fill their lookahead from the walker when
    // constructed, so they must follow the warmup.
    if (cfg.preset == Preset::Boomerang || cfg.preset == Preset::Shotgun ||
        cfg.preset == Preset::Fdip) {
        makeDecoupledFetch();
    }

    functionalWarmup();

    if (!decoupled) {
        l1i->setListener(prefetcher.get());
        if (cfg.genericStep) {
            makeCoupledFetch<prefetch::InstrPrefetcher>();
        } else {
            switch (cfg.preset) {
              case Preset::NL:
              case Preset::N2L:
              case Preset::N4L:
              case Preset::N8L:
                makeCoupledFetch<prefetch::NextLinePrefetcher>();
                break;
              case Preset::N4LPlain:
              case Preset::SN4L:
              case Preset::DisOnly:
              case Preset::SN4LDis:
              case Preset::SN4LDisBtb:
                makeCoupledFetch<prefetch::Sn4lDisBtb>();
                break;
              case Preset::ClassicDis:
                makeCoupledFetch<prefetch::ClassicDiscontinuity>();
                break;
              case Preset::Confluence:
                makeCoupledFetch<prefetch::ConfluencePrefetcher>();
                break;
              default:
                makeCoupledFetch<prefetch::NullPrefetcher>();
                break;
            }
        }
    }

    if (microBtb)
        fetch->setMicroBtb(microBtb.get());
    addStats("fe", fetch->stats());

    selectStepFns();
    registerIntegrity();
}

void
System::makeDecoupledFetch()
{
    auto engine = std::make_unique<DecoupledFetchEngine>(
        cfg.fetch,
        cfg.preset == Preset::Boomerang
            ? DecoupledFetchEngine::Kind::Boomerang
            : cfg.preset == Preset::Shotgun
                  ? DecoupledFetchEngine::Kind::Shotgun
                  : DecoupledFetchEngine::Kind::Fdip,
        *walker, *l1i, *tage, *predecoder, cfg.boomerangBtbEntries,
        cfg.shotgunBtb, btb.get(), fdip);
    decoupled = engine.get();
    addStats("sg", decoupled->shotgunBtb().stats());
    addStats("bb", decoupled->bbBtb().stats(), WarmReset::Gap6Keep);
    // FDIP's fills/usefulness land in the prefetcher's accounting;
    // the BTB-directed engines do their own prefill on fills.
    l1i->setListener(fdip ? static_cast<mem::L1iListener *>(fdip)
                          : decoupled);
    fetch = std::move(engine);
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
        for (const WarmBranch &b : cp->branches)
            primeBranch(b);
        return;
    }

    const bool store = warmSource == WarmSource::Stored;
    std::vector<WarmBranch> branches;
    // Block runs: consecutive PCs in one block touch the LLC and the L1i
    // once, and consecutive data accesses to one block touch the LLC and
    // the L1d once.  A repeat touch would find the block MRU in its set
    // and only renumber LRU stamps, and every LRU decision compares
    // stamps within one set, so skipping it is exact until something
    // else lands in the block's LLC set: a touch from the other stream
    // there, or, for instructions under DV-LLC, a branch offset recorded
    // into the set's BF slots (an instruction touch refreshes the slots'
    // blocks, so a changed slot list changes it).
    Addr run_block = kInvalidAddr, data_block = kInvalidAddr;
    unsigned run_set = 0, data_set = 0;
    for (std::uint64_t i = 0; i < cfg.functionalWarmInstrs; ++i) {
        workload::TraceEntry e = walker->next();
        if (blockAlign(e.pc) != run_block) {
            llc->warmTouch(e.pc, true);
            l1i->warmInsert(e.pc);
            run_block = blockAlign(e.pc);
            run_set = llc->setIndex(e.pc);
            if (run_set == data_set)
                data_block = kInvalidAddr;
        }
        if (e.dataAddr != kInvalidAddr &&
            blockAlign(e.dataAddr) != data_block) {
            llc->warmTouch(e.dataAddr, false);
            l1d->warmInsert(e.dataAddr);
            data_block = blockAlign(e.dataAddr);
            data_set = llc->setIndex(e.dataAddr);
            if (data_set == run_set)
                run_block = kInvalidAddr;
        }
        if (e.isBranch()) {
            if (cfg.llc.dvllc)
                run_block = kInvalidAddr;
            if (e.kind == isa::InstrKind::CondBranch) {
                tage->predict(e.pc);
                tage->update(e.pc, e.taken);
            } else {
                tage->updateHistoryUnconditional(e.pc);
            }
            WarmBranch b{e.pc, e.target, e.kind, e.taken};
            primeBranch(b);
            if (store)
                branches.push_back(b);
        }
        recordRetiredFootprints(e);
    }

    if (store) {
        auto cp = std::make_shared<WarmCheckpoint>();
        cp->walker = walker->saveWarm();
        cp->llc = llc->saveWarm();
        cp->l1i = l1i->saveWarm();
        cp->l1d = l1d->saveWarm();
        cp->tage = tage->saveWarm();
        branches.shrink_to_fit();
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

template <typename Pf>
void
System::makeCoupledFetch()
{
    fetch = std::make_unique<CoupledFetchEngineT<Pf>>(
        cfg.fetch, *walker, *l1i, *btb, *tage, program->image,
        static_cast<Pf &>(*prefetcher));
}

template <typename Pf, typename Fe>
void
System::bindStep()
{
    stepFn = obs::Profiler::enabled() ? &System::stepProfiledImpl<Pf, Fe>
                                      : &System::stepImpl<Pf, Fe>;
}

void
System::selectStepFns()
{
    // Which concrete (Pf, Fe) pair a preset steps with.  Must mirror the
    // fetch-engine construction above: stepImpl static_casts to these
    // types.  DESIGN.md §12 documents the family table.
    if (cfg.genericStep) {
        bindStep<prefetch::InstrPrefetcher, FetchEngine>();
        return;
    }
    switch (cfg.preset) {
      case Preset::Boomerang:
      case Preset::Shotgun:
        bindStep<prefetch::NullPrefetcher, DecoupledFetchEngine>();
        break;
      case Preset::Fdip:
        bindStep<prefetch::Fdip, DecoupledFetchEngine>();
        break;
      case Preset::NL:
      case Preset::N2L:
      case Preset::N4L:
      case Preset::N8L:
        bindStep<prefetch::NextLinePrefetcher,
                 CoupledFetchEngineT<prefetch::NextLinePrefetcher>>();
        break;
      case Preset::N4LPlain:
      case Preset::SN4L:
      case Preset::DisOnly:
      case Preset::SN4LDis:
      case Preset::SN4LDisBtb:
        bindStep<prefetch::Sn4lDisBtb,
                 CoupledFetchEngineT<prefetch::Sn4lDisBtb>>();
        break;
      case Preset::ClassicDis:
        bindStep<prefetch::ClassicDiscontinuity,
                 CoupledFetchEngineT<prefetch::ClassicDiscontinuity>>();
        break;
      case Preset::Confluence:
        bindStep<prefetch::ConfluencePrefetcher,
                 CoupledFetchEngineT<prefetch::ConfluencePrefetcher>>();
        break;
      default:
        bindStep<prefetch::NullPrefetcher,
                 CoupledFetchEngineT<prefetch::NullPrefetcher>>();
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

template <typename Pf, typename Fe>
void
System::stepImpl()
{
    auto &pf = static_cast<Pf &>(*prefetcher);
    auto &fe = static_cast<Fe &>(*fetch);
    backend->beginCycle(cycleCount);
    l1i->tick(cycleCount);
    pf.tick(cycleCount);
    dispatchStageImpl(fe);
    fe.cycle(cycleCount);
    ++cycleCount;
}

template <typename Pf, typename Fe>
void
System::stepProfiledImpl()
{
    if (cycleCount % obs::kProfSampleStride != 0) {
        stepImpl<Pf, Fe>();
        return;
    }
    using obs::ProfPhase;
    auto &pf = static_cast<Pf &>(*prefetcher);
    auto &fe = static_cast<Fe &>(*fetch);
    // Chained boundary timestamps: each read ends one phase and starts
    // the next, so five phases cost six clock reads per sampled cycle.
    double t0 = obs::profNow();
    backend->beginCycle(cycleCount);
    double t1 = obs::profNow();
    l1i->tick(cycleCount);
    double t2 = obs::profNow();
    pf.tick(cycleCount);
    double t3 = obs::profNow();
    dispatchStageImpl(fe);
    double t4 = obs::profNow();
    fe.cycle(cycleCount);
    double t5 = obs::profNow();
    profPhases[static_cast<unsigned>(ProfPhase::Backend)] += t1 - t0;
    profPhases[static_cast<unsigned>(ProfPhase::L1iTick)] += t2 - t1;
    profPhases[static_cast<unsigned>(ProfPhase::Prefetcher)] += t3 - t2;
    profPhases[static_cast<unsigned>(ProfPhase::Dispatch)] += t4 - t3;
    profPhases[static_cast<unsigned>(ProfPhase::Fetch)] += t5 - t4;
    ++cycleCount;
}

} // namespace dcfb::sim
