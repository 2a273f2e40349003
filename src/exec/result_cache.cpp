#include "exec/result_cache.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <memory>
#include <sstream>
#include <sys/stat.h>
#include <unistd.h>

#include "sim/report.h"

namespace dcfb::exec {

namespace {

rt::Error
ioError(const std::string &message, const std::string &path)
{
    return rt::Error(rt::ErrorKind::Result, message)
        .with("path", path)
        .with("errno", std::strerror(errno));
}

/** Entry-invalid error (schema/fingerprint/parse problems). */
rt::Error
badEntry(const std::string &message, const std::string &path)
{
    return rt::Error(rt::ErrorKind::Result, message)
        .with("path", path)
        .with("reject", "1");
}

} // namespace

ResultCache::ResultCache(std::string dir) : directory(std::move(dir)) {}

rt::Expected<void>
ResultCache::open()
{
    if (directory.empty())
        return rt::Error(rt::ErrorKind::Config, "empty result-cache path");
    if (::mkdir(directory.c_str(), 0755) != 0 && errno != EEXIST)
        return ioError("cannot create result-cache directory", directory);
    struct stat st{};
    if (::stat(directory.c_str(), &st) != 0 || !S_ISDIR(st.st_mode))
        return ioError("result-cache path is not a directory", directory);
    // Reap temp files stranded by a crash mid-put(): lookups already
    // ignore them, but without collection they accumulate forever.
    // Only put()'s own `<key>.json.tmp.<pid>` pattern is touched.
    if (DIR *handle = ::opendir(directory.c_str())) {
        std::uint64_t reaped = 0;
        while (struct dirent *entry = ::readdir(handle)) {
            std::string name = entry->d_name;
            if (name.find(".json.tmp.") != std::string::npos &&
                ::unlink((directory + "/" + name).c_str()) == 0) {
                ++reaped;
            }
        }
        ::closedir(handle);
        std::lock_guard<std::mutex> lock(mutex);
        counters.tmpReaped += reaped;
    }
    return {};
}

std::string
ResultCache::entryPath(const std::string &key) const
{
    return directory + "/" + key + ".json";
}

rt::Expected<sim::RunResult>
ResultCache::load(const std::string &key,
                  const obs::JsonValue &expect_fp) const
{
    std::string path = entryPath(key);
    std::ifstream in(path, std::ios::in | std::ios::binary);
    if (!in.is_open()) {
        return rt::Error(rt::ErrorKind::Result, "no cache entry")
            .with("path", path)
            .with("miss", "1");
    }
    std::ostringstream text;
    text << in.rdbuf();
    if (!in.good() && !in.eof())
        return badEntry("cache entry unreadable", path);

    auto doc = obs::JsonValue::parse(text.str());
    if (!doc)
        return badEntry("cache entry is not valid JSON", path);
    const obs::JsonValue *schema = doc->find("schema");
    if (!schema || schema->asString() != kCacheSchema) {
        return badEntry("cache entry schema mismatch", path)
            .with("expected", kCacheSchema);
    }
    const obs::JsonValue *stored_key = doc->find("key");
    if (!stored_key || stored_key->asString() != key)
        return badEntry("cache entry key mismatch", path);
    // Full-fingerprint comparison: rejects both corruption and FNV
    // collisions (two configs that hash alike differ here).
    const obs::JsonValue *fp = doc->find("fingerprint");
    if (!fp || !(*fp == expect_fp))
        return badEntry("cache entry fingerprint mismatch", path);
    const obs::JsonValue *result = doc->find("result");
    if (!result)
        return badEntry("cache entry has no result", path);
    auto run = sim::runResultFromJson(*result);
    if (!run)
        return badEntry("cache entry result malformed", path);
    return std::move(*run);
}

std::optional<sim::RunResult>
ResultCache::get(const std::string &key, const obs::JsonValue &fp)
{
    auto loaded = load(key, fp);
    if (loaded.ok()) {
        std::lock_guard<std::mutex> lock(mutex);
        ++counters.hits;
        return std::move(loaded.value());
    }
    bool reject = false;
    for (const auto &kv : loaded.error().context)
        if (kv.first == "reject")
            reject = true;
    if (reject)
        ::unlink(entryPath(key).c_str());
    std::lock_guard<std::mutex> lock(mutex);
    ++counters.misses;
    if (reject)
        ++counters.rejects;
    return std::nullopt;
}

rt::Expected<void>
ResultCache::put(const std::string &key, const obs::JsonValue &fp,
                 const sim::RunResult &result)
{
    obs::JsonValue doc = obs::JsonValue::object();
    doc["schema"] = kCacheSchema;
    doc["key"] = key;
    doc["fingerprint"] = fp;
    doc["result"] = sim::toJson(result);

    std::string path = entryPath(key);
    // Same-directory temp file so the rename is atomic (same fs).  The
    // pid suffix keeps concurrent writers of the same key from racing
    // on one temp name; last rename wins with identical content.
    std::string tmp =
        path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
    {
        std::ofstream out(tmp, std::ios::out | std::ios::trunc |
                                   std::ios::binary);
        if (!out.is_open())
            return ioError("cannot create cache temp file", tmp);
        out << doc.dump(2) << '\n';
        out.flush();
        if (!out.good())
            return ioError("cache temp write failed", tmp);
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        rt::Error err = ioError("cache entry rename failed", path);
        ::unlink(tmp.c_str());
        return err;
    }
    std::lock_guard<std::mutex> lock(mutex);
    ++counters.stores;
    return {};
}

ResultCacheStats
ResultCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return counters;
}

namespace {
std::unique_ptr<ResultCache> globalCache;
} // namespace

rt::Expected<void>
ResultCache::openGlobal(const std::string &dir)
{
    auto cache = std::make_unique<ResultCache>(dir);
    if (auto opened = cache->open(); !opened.ok())
        return opened.error();
    globalCache = std::move(cache);
    return {};
}

ResultCache *
ResultCache::global()
{
    return globalCache.get();
}

void
ResultCache::closeGlobal()
{
    globalCache.reset();
}

sim::RunResult
simulateCached(const sim::SystemConfig &config,
               const sim::RunWindows &windows)
{
    ResultCache *cache = ResultCache::global();
    if (!cache)
        return sim::simulate(config, windows);
    obs::JsonValue fp = fingerprint(config, windows);
    std::string key = fnv1aHex(fp.dump());
    if (auto hit = cache->get(key, fp))
        return std::move(*hit);
    sim::RunResult result = sim::simulate(config, windows);
    // A failed store degrades to "no cache", never fails the run.
    if (auto stored = cache->put(key, fp, result); !stored.ok())
        std::fprintf(stderr, "[cache] %s\n",
                     stored.error().render().c_str());
    return result;
}

} // namespace dcfb::exec
