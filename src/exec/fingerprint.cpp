#include "exec/fingerprint.h"

#include <cstdint>

#include "rt/faults.h"
#include "workload/profiles.h"

namespace dcfb::exec {

namespace {

obs::JsonValue
u(std::uint64_t v)
{
    return obs::JsonValue(v);
}

std::uint64_t
fnv1a64(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char ch : text) {
        h ^= ch;
        h *= 0x100000001b3ull;
    }
    return h;
}

} // namespace

obs::JsonValue
fingerprint(const sim::SystemConfig &c, const sim::RunWindows &w)
{
    obs::JsonValue fp = obs::JsonValue::object();
    fp["schema"] = kCacheSchema;
    // The profile key already covers every program-shaping knob
    // (including the VL-ISA flavour and the build seed).
    fp["profile"] = workload::profileKey(c.profile);
    fp["preset"] = sim::presetName(c.preset);

    obs::JsonValue btb = obs::JsonValue::object();
    btb["entries"] = u(c.btbEntries);
    btb["assoc"] = u(c.btbAssoc);
    btb["boomerang_entries"] = u(c.boomerangBtbEntries);
    btb["ubtb_entries"] = u(c.shotgunBtb.ubtbEntries);
    btb["ubtb_assoc"] = u(c.shotgunBtb.ubtbAssoc);
    btb["cbtb_entries"] = u(c.shotgunBtb.cbtbEntries);
    btb["cbtb_assoc"] = u(c.shotgunBtb.cbtbAssoc);
    btb["rib_entries"] = u(c.shotgunBtb.ribEntries);
    btb["rib_assoc"] = u(c.shotgunBtb.ribAssoc);
    fp["btb"] = std::move(btb);

    obs::JsonValue sn4l = obs::JsonValue::object();
    sn4l["selective"] = c.sn4l.selective;
    sn4l["dis"] = c.sn4l.enableDis;
    sn4l["btb_prefetch"] = c.sn4l.enableBtbPrefetch;
    sn4l["proactive"] = c.sn4l.proactive;
    sn4l["seq_depth"] = u(c.sn4l.seqDepth);
    sn4l["chain_depth"] = u(c.sn4l.chainDepthLimit);
    sn4l["sn1l_tails"] = c.sn4l.sn1lTails;
    sn4l["seq_entries"] = u(c.sn4l.seqTableEntries);
    sn4l["dis_entries"] = u(c.sn4l.disTable.entries);
    sn4l["dis_tag_policy"] = u(static_cast<unsigned>(c.sn4l.disTable.tagPolicy));
    sn4l["dis_byte_offsets"] = c.sn4l.disTable.byteOffsets;
    sn4l["queue_entries"] = u(c.sn4l.queueEntries);
    sn4l["rlu_entries"] = u(c.sn4l.rluEntries);
    sn4l["btb_pb_entries"] = u(c.sn4l.btbPbEntries);
    sn4l["btb_pb_assoc"] = u(c.sn4l.btbPbAssoc);
    sn4l["drain_per_cycle"] = u(c.sn4l.drainPerCycle);
    fp["sn4l"] = std::move(sn4l);

    obs::JsonValue conf = obs::JsonValue::object();
    conf["history"] = u(c.confluence.historyEntries);
    conf["index"] = u(c.confluence.indexEntries);
    conf["degree"] = u(c.confluence.streamDegree);
    conf["lookahead"] = u(c.confluence.lookahead);
    fp["confluence"] = std::move(conf);

    obs::JsonValue fdip = obs::JsonValue::object();
    fdip["ftq_depth"] = u(c.fdip.ftqDepth);
    fdip["ahead"] = u(c.fdip.prefetchAhead);
    fdip["queue_entries"] = u(c.fdip.queueEntries);
    fdip["issues_per_cycle"] = u(c.fdip.issuesPerCycle);
    fdip["recent_entries"] = u(c.fdip.recentEntries);
    fp["fdip"] = std::move(fdip);

    obs::JsonValue mbtb = obs::JsonValue::object();
    mbtb["entries"] = u(c.microBtb.entries);
    mbtb["assoc"] = u(c.microBtb.assoc);
    mbtb["fill_latency"] = u(c.microBtb.fillLatency);
    fp["micro_btb"] = std::move(mbtb);

    obs::JsonValue l1i = obs::JsonValue::object();
    l1i["bytes"] = u(c.l1i.capacityBytes);
    l1i["assoc"] = u(c.l1i.assoc);
    l1i["hit_latency"] = u(c.l1i.hitLatency);
    l1i["mshrs"] = u(c.l1i.mshrs);
    l1i["pf_buffer"] = c.l1i.usePrefetchBuffer;
    l1i["pf_buffer_entries"] = u(c.l1i.prefetchBufferEntries);
    l1i["fetch_footprints"] = c.l1i.fetchFootprints;
    fp["l1i"] = std::move(l1i);

    obs::JsonValue l1d = obs::JsonValue::object();
    l1d["bytes"] = u(c.l1d.capacityBytes);
    l1d["assoc"] = u(c.l1d.assoc);
    l1d["hit_latency"] = u(c.l1d.hitLatency);
    fp["l1d"] = std::move(l1d);

    obs::JsonValue llc = obs::JsonValue::object();
    llc["bytes"] = u(c.llc.capacityBytes);
    llc["assoc"] = u(c.llc.assoc);
    llc["banks"] = u(c.llc.banks);
    llc["latency"] = u(c.llc.accessLatency);
    llc["reply_flits"] = u(c.llc.replyFlits);
    llc["request_flits"] = u(c.llc.requestFlits);
    llc["dvllc"] = c.llc.dvllc;
    llc["bf_slots"] = u(c.llc.bfSlotsPerSet);
    llc["branches_per_bf"] = u(c.llc.branchesPerBf);
    fp["llc"] = std::move(llc);

    obs::JsonValue memory = obs::JsonValue::object();
    memory["latency"] = u(c.memory.accessLatency);
    memory["channels"] = u(c.memory.channels);
    memory["busy_per_block"] = u(c.memory.channelBusyPerBlock);
    fp["memory"] = std::move(memory);

    obs::JsonValue mesh = obs::JsonValue::object();
    mesh["dim"] = u(c.mesh.dim);
    mesh["router_cycles"] = u(c.mesh.routerCycles);
    mesh["link_cycles"] = u(c.mesh.linkCycles);
    mesh["bg_utilization"] = c.mesh.bgUtilization;
    mesh["seed"] = u(c.mesh.seed);
    fp["mesh"] = std::move(mesh);

    obs::JsonValue backend = obs::JsonValue::object();
    backend["dispatch"] = u(c.backend.dispatchWidth);
    backend["retire"] = u(c.backend.retireWidth);
    backend["rob"] = u(c.backend.robEntries);
    backend["depth"] = u(c.backend.pipelineDepth);
    backend["alu_latency"] = u(c.backend.aluLatency);
    fp["backend"] = std::move(backend);

    obs::JsonValue fetch = obs::JsonValue::object();
    fetch["width"] = u(c.fetch.fetchWidth);
    fetch["buffer"] = u(c.fetch.fetchBufferEntries);
    fetch["stages"] = u(c.fetch.frontendStages);
    fetch["decode_redirect"] = u(c.fetch.decodeRedirectPenalty);
    fetch["exec_redirect"] = u(c.fetch.execRedirectPenalty);
    fetch["predecode_latency"] = u(c.fetch.predecodeLatency);
    fetch["ftq"] = u(c.fetch.ftqEntries);
    fetch["perfect_l1i"] = c.fetch.perfectL1i;
    fetch["perfect_btb"] = c.fetch.perfectBtb;
    fp["fetch"] = std::move(fetch);

    fp["core_tile"] = u(c.coreTile);
    fp["run_seed"] = u(c.runSeed);
    fp["functional_warm"] = u(c.functionalWarmInstrs);
    // The canonical spec string covers kind/rate/cycles/seed; an
    // inactive plan renders as "none" so injection-off runs share keys.
    fp["faults"] = rt::faultPlanSpec(c.faults);

    obs::JsonValue windows = obs::JsonValue::object();
    windows["warm"] = u(w.warm);
    windows["measure"] = u(w.measure);
    fp["windows"] = std::move(windows);
    return fp;
}

std::string
fnv1aHex(const std::string &text)
{
    std::uint64_t h = fnv1a64(text);
    char buf[17];
    static const char *digits = "0123456789abcdef";
    for (int i = 15; i >= 0; --i) {
        buf[i] = digits[h & 0xf];
        h >>= 4;
    }
    buf[16] = '\0';
    return std::string(buf, 16);
}

std::string
cacheKey(const sim::SystemConfig &config, const sim::RunWindows &windows)
{
    return fnv1aHex(fingerprint(config, windows).dump());
}

} // namespace dcfb::exec
