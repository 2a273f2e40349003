/**
 * @file
 * Microbenchmarks (google-benchmark) of the hot data structures: the
 * prefetcher's metadata tables, the TAGE predictor, the generic cache,
 * and the pre-decoder, plus one cell's whole functional warmup.  These
 * bound the simulator's own throughput and document the cost of each
 * lookup the paper's Table II argues about.
 */

#include <benchmark/benchmark.h>

#include <memory>

#include "common/rng.h"
#include "frontend/btb.h"
#include "frontend/tage.h"
#include "isa/encoding.h"
#include "isa/predecoder.h"
#include "mem/cache.h"
#include "prefetch/dis_table.h"
#include "prefetch/rlu.h"
#include "prefetch/seq_table.h"
#include "sim/system.h"
#include "sim/warm_cache.h"
#include "workload/image.h"
#include "workload/profiles.h"

namespace {

using namespace dcfb;

void
BM_SeqTableLookup(benchmark::State &state)
{
    prefetch::SeqTable table(16 * 1024);
    Rng rng(1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            table.statusOfNextFour(rng.below(1 << 20) * kBlockBytes));
    }
}
BENCHMARK(BM_SeqTableLookup);

void
BM_DisTableLookup(benchmark::State &state)
{
    prefetch::DisTable table;
    Rng rng(2);
    for (unsigned i = 0; i < 4096; ++i)
        table.record(rng.below(1 << 20) * kBlockBytes, 9);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            table.lookup(rng.below(1 << 20) * kBlockBytes));
    }
}
BENCHMARK(BM_DisTableLookup);

void
BM_RluCheck(benchmark::State &state)
{
    prefetch::Rlu rlu(static_cast<std::size_t>(state.range(0)));
    Rng rng(3);
    for (unsigned i = 0; i < 8; ++i)
        rlu.touch(rng.below(256) * kBlockBytes);
    for (auto _ : state)
        benchmark::DoNotOptimize(rlu.contains(rng.below(256) * kBlockBytes));
}
BENCHMARK(BM_RluCheck)->Arg(8)->Arg(16);

void
BM_TagePredictUpdate(benchmark::State &state)
{
    frontend::Tage tage;
    Rng rng(4);
    Addr pc = 0x40000;
    for (auto _ : state) {
        bool taken = rng.chance(0.7);
        benchmark::DoNotOptimize(tage.predict(pc));
        tage.update(pc, taken);
        pc = 0x40000 + (rng.below(1024) << 2);
    }
}
BENCHMARK(BM_TagePredictUpdate);

void
BM_CacheLookup(benchmark::State &state)
{
    auto cache = mem::SetAssocCache<int>::fromBytes(32 * 1024, 8);
    Rng rng(5);
    for (unsigned i = 0; i < 512; ++i)
        cache.insert(rng.below(4096) * kBlockBytes, 0);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.peek(rng.below(4096) * kBlockBytes));
    }
}
BENCHMARK(BM_CacheLookup);

void
BM_CacheTouchOrAllocate(benchmark::State &state)
{
    // The warm-walk kernel: mostly hits on a 32 KB, 8-way array, with
    // enough distinct blocks to keep filling and evicting.
    auto cache = mem::SetAssocCache<int>::fromBytes(32 * 1024, 8);
    Rng rng(7);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.touchOrAllocate(rng.below(1024) * kBlockBytes).hit);
    }
}
BENCHMARK(BM_CacheTouchOrAllocate);

void
BM_BtbLookup(benchmark::State &state)
{
    frontend::Btb btb(static_cast<unsigned>(state.range(0)), 4);
    Rng rng(6);
    for (unsigned i = 0; i < 2048; ++i) {
        btb.update(0x40000 + rng.below(1 << 16) * 4, 0x50000,
                   isa::InstrKind::Jump);
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(btb.lookup(0x40000 + rng.below(1 << 16) * 4));
}
BENCHMARK(BM_BtbLookup)->Arg(2048)->Arg(16384);

void
BM_PredecodeBlock(benchmark::State &state)
{
    workload::ProgramImage image;
    for (unsigned slot = 0; slot < kInstrPerBlock; ++slot) {
        Addr pc = 0x40000 + slot * kInstrBytes;
        isa::DecodedInstr di{slot % 5 == 4 ? isa::InstrKind::CondBranch
                                           : isa::InstrKind::Alu,
                             slot % 5 == 4, 0x41000};
        std::uint8_t buf[kInstrBytes];
        isa::writeWord(buf, isa::encodeInstr(pc, di));
        image.write(pc, buf, kInstrBytes);
    }
    isa::Predecoder pd(image, false);
    for (auto _ : state)
        benchmark::DoNotOptimize(pd.predecodeBlock(0x40000));
}
BENCHMARK(BM_PredecodeBlock);

void
BM_FunctionalWarmup(benchmark::State &state)
{
    // One seed-sweep cell's System construction: the 2 M-instruction
    // functional warmup walk.  Clearing the warm-checkpoint cache each
    // iteration keeps every construction a walk, never a restore.
    sim::SystemConfig cfg = sim::makeConfig(
        workload::serverProfile("OLTP (DB A)"), sim::Preset::SN4LDisBtb);
    cfg.program = std::make_shared<const workload::Program>(
        workload::buildProgram(cfg.profile));
    cfg.runSeed = 1;
    for (auto _ : state) {
        sim::WarmCache::global().clear();
        sim::System system(cfg);
        benchmark::DoNotOptimize(system.llc->bfHolderSets());
    }
}
BENCHMARK(BM_FunctionalWarmup)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
