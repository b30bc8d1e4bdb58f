#include "cache/result_cache.hh"

#include <cstdio>
#include <utility>

#include "guard/checkpoint.hh"
#include "obs/obs.hh"
#include "util/error.hh"

namespace tts {
namespace cache {

namespace {

/** Lowercase-hex codec for byte-exact canonical text in the
 *  whitespace-free token slots of the checkpoint format. */
std::string
toHex(const std::string &bytes)
{
    static const char digits[] = "0123456789abcdef";
    std::string out;
    out.reserve(bytes.size() * 2);
    for (unsigned char c : bytes) {
        out += digits[c >> 4];
        out += digits[c & 0xf];
    }
    return out;
}

std::string
fromHex(const std::string &hex)
{
    require(hex.size() % 2 == 0,
            "result cache: odd-length hex field");
    auto nibble = [](char c) -> int {
        if (c >= '0' && c <= '9')
            return c - '0';
        if (c >= 'a' && c <= 'f')
            return c - 'a' + 10;
        fatal(std::string("result cache: bad hex digit '") + c +
              "'");
    };
    std::string out;
    out.reserve(hex.size() / 2);
    for (std::size_t i = 0; i < hex.size(); i += 2)
        out += static_cast<char>((nibble(hex[i]) << 4) |
                                 nibble(hex[i + 1]));
    return out;
}

} // namespace

ResultCache::ResultCache(CacheConfig config)
    : config_(std::move(config)),
      lru_(config_.capacity)
{
    require(config_.capacity >= 1,
            "result cache: capacity must be >= 1");
}

CacheLoadOutcome
ResultCache::load()
{
    if (config_.path.empty() || !guard::checkpointExists(config_.path))
        return CacheLoadOutcome::Fresh;
    std::lock_guard<std::mutex> lock(mu_);
    try {
        guard::CheckpointReader r(
            guard::readCheckpointFile(config_.path), config_.path);
        r.expectSection("serve_cache");
        const std::uint64_t format = r.expectU64("format");
        require(format == 1, config_.path +
                                 ": unsupported serve-cache format " +
                                 std::to_string(format));
        const std::uint64_t entries = r.expectU64("entries");
        for (std::uint64_t i = 0; i < entries; ++i) {
            r.expectSection("entry");
            const std::uint64_t fp = r.expectU64("fp");
            const std::string canonical =
                fromHex(r.expectToken("canonical_hex"));
            const std::uint64_t keys = r.expectU64("keys");
            Result result;
            for (std::uint64_t k = 0; k < keys; ++k) {
                const std::string key = r.expectToken("key");
                result[key] = r.expect("value");
            }
            // Snapshots store LRU order (oldest first); replaying
            // inserts reproduces it, truncated to capacity.  Replay
            // evictions are not counted - they are a capacity
            // downgrade, not cache pressure.
            lru_.insert(fp, Entry{canonical, std::move(result)});
        }
        r.expectEnd();
        return CacheLoadOutcome::Loaded;
    } catch (const Error &e) {
        // A damaged snapshot must cost a warm-up, not an outage:
        // move it aside for post-mortem and serve from empty.
        lru_.clear();
        const std::string quarantine = config_.path + ".corrupt";
        std::remove(quarantine.c_str());
        if (std::rename(config_.path.c_str(),
                        quarantine.c_str()) != 0)
            std::remove(config_.path.c_str());
        if (obs::enabled()) {
            static obs::Counter &quarantines =
                obs::registry().counter(
                    "serve.cache.quarantines");
            quarantines.add(1);
        }
        return CacheLoadOutcome::Quarantined;
    }
}

bool
ResultCache::find(std::uint64_t fp, const std::string &canonical,
                  Result *out)
{
    std::lock_guard<std::mutex> lock(mu_);
    Entry *e = lru_.touch(fp);
    if (e == nullptr) {
        ++counters_.misses;
        return false;
    }
    if (e->canonical != canonical) {
        // A 64-bit collision: answering would serve another
        // request's numbers.  Degrade to a miss; the insert after
        // evaluation will overwrite with the newer canonical text.
        ++counters_.collisions;
        ++counters_.misses;
        return false;
    }
    ++counters_.hits;
    *out = e->result;
    return true;
}

void
ResultCache::insert(std::uint64_t fp, const std::string &canonical,
                    const Result &result)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (lru_.insert(fp, Entry{canonical, result}))
        ++counters_.evictions;
    ++counters_.inserts;
    if (config_.persistEveryInserts > 0 &&
        ++insertsSincePersist_ >= config_.persistEveryInserts) {
        persistLocked();
        insertsSincePersist_ = 0;
    }
}

void
ResultCache::persist()
{
    std::lock_guard<std::mutex> lock(mu_);
    persistLocked();
}

void
ResultCache::persistLocked()
{
    if (config_.path.empty())
        return;
    guard::CheckpointWriter w;
    w.section("serve_cache");
    w.putU64("format", 1);
    w.putU64("entries", lru_.size());
    lru_.forEachLru([&](std::uint64_t fp, const Entry &e) {
        w.section("entry");
        w.putU64("fp", fp);
        w.putToken("canonical_hex", toHex(e.canonical));
        w.putU64("keys", e.result.size());
        for (const auto &[key, value] : e.result) {
            w.putToken("key", key);
            w.put("value", value);
        }
    });
    guard::writeCheckpointFile(config_.path, w.finish());
    ++counters_.persists;
}

std::size_t
ResultCache::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return lru_.size();
}

ResultCache::Counters
ResultCache::counters() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return counters_;
}

} // namespace cache
} // namespace tts
