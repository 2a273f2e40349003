#include "sim/warm_cache.h"

namespace dcfb::sim {

const char *
warmSourceName(WarmSource source)
{
    switch (source) {
      case WarmSource::Cold:
        return "cold";
      case WarmSource::Stored:
        return "stored";
      case WarmSource::Restored:
        return "restored";
    }
    return "unknown";
}

WarmBranch
WarmBranchRecord::decode(const workload::Program &program) const
{
    const workload::BasicBlock &bb = program.blocks[blk];
    WarmBranch b;
    b.pc = bb.termPc();
    b.target = program.blocks[toTaken >> 1].start;
    b.kind = program.instrs[bb.termInstr()].kind;
    b.taken = (toTaken & 1) != 0;
    return b;
}

WarmKey
WarmKey::of(const SystemConfig &cfg,
            const std::shared_ptr<const workload::Program> &program)
{
    WarmKey key;
    key.image = program;
    key.runSeed = cfg.runSeed;
    key.warmInstrs = cfg.functionalWarmInstrs;
    key.llc = cfg.llc;
    key.l1iBytes = cfg.l1i.capacityBytes;
    key.l1iAssoc = cfg.l1i.assoc;
    key.l1dBytes = cfg.l1d.capacityBytes;
    key.l1dAssoc = cfg.l1d.assoc;
    return key;
}

bool
WarmKey::matches(const WarmKey &other) const
{
    // Owner comparison: a live image never shares a control block with
    // another, and our weak reference keeps a dead one's block from
    // being reused.
    bool same_image =
        !image.owner_before(other.image) && !other.image.owner_before(image);
    return same_image && runSeed == other.runSeed &&
        warmInstrs == other.warmInstrs && llc == other.llc &&
        l1iBytes == other.l1iBytes && l1iAssoc == other.l1iAssoc &&
        l1dBytes == other.l1dBytes && l1dAssoc == other.l1dAssoc;
}

std::size_t
WarmCheckpoint::bytes() const
{
    auto vec = [](const auto &v) { return v.size() * sizeof(v[0]); };
    auto lines = [&](const auto &s) {
        return vec(s.index) + vec(s.tags) + vec(s.stamps) + vec(s.payloads);
    };
    std::size_t n = lines(llc.lines) + vec(llc.bfSets) + lines(l1i.lines) +
        lines(l1d) + branches.bytes() + vec(tage.base);
    for (const auto &entry : llc.bfSets)
        n += vec(entry.second.slots);
    for (const auto &table : tage.tables)
        n += vec(table);
    return n;
}

WarmCache::Lease::~Lease()
{
    if (owner)
        owner->abandon(key);
}

void
WarmCache::Lease::publish(std::shared_ptr<const WarmCheckpoint> cp)
{
    if (!owner)
        return;
    owner->publish(key, std::move(cp));
    owner = nullptr;
}

WarmCache::Lease
WarmCache::acquire(const WarmKey &key)
{
    std::unique_lock<std::mutex> lock(mutex);
    changed.wait(lock, [&] {
        return slot != Slot::Pending || !slotKey.matches(key);
    });
    if (slot != Slot::Empty && slotKey.matches(key)) {
        if (slot == Slot::Ready) {
            ++counters.hits;
            return Lease(nullptr, key, WarmSource::Restored, held);
        }
        // Seen: the second consecutive request walks and stores.
        slot = Slot::Pending;
        return Lease(this, key, WarmSource::Stored, nullptr);
    }
    // A new key releases the slot (cells still restoring from the old
    // checkpoint keep their own reference until they finish).
    held.reset();
    counters.bytesHeld = 0;
    slotKey = key;
    slot = Slot::Seen;
    ++counters.misses;
    changed.notify_all();
    return Lease(nullptr, key, WarmSource::Cold, nullptr);
}

void
WarmCache::publish(const WarmKey &key,
                   std::shared_ptr<const WarmCheckpoint> cp)
{
    std::lock_guard<std::mutex> lock(mutex);
    // The slot may have moved on to another key while this cell walked;
    // then the checkpoint is simply dropped.
    if (slot == Slot::Pending && slotKey.matches(key)) {
        counters.bytesHeld = cp->bytes();
        counters.bytesStored += counters.bytesHeld;
        ++counters.stores;
        held = std::move(cp);
        slot = Slot::Ready;
    }
    changed.notify_all();
}

void
WarmCache::abandon(const WarmKey &key)
{
    std::lock_guard<std::mutex> lock(mutex);
    if (slot == Slot::Pending && slotKey.matches(key))
        slot = Slot::Seen;
    changed.notify_all();
}

WarmCacheStats
WarmCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return counters;
}

void
WarmCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex);
    held.reset();
    slotKey = WarmKey{};
    slot = Slot::Empty;
    counters = WarmCacheStats{};
    changed.notify_all();
}

WarmCache &
WarmCache::global()
{
    static WarmCache instance;
    return instance;
}

} // namespace dcfb::sim
