#include "serve/manifest.hh"

#include <condition_variable>
#include <fstream>
#include <istream>
#include <memory>
#include <mutex>
#include <sstream>
#include <utility>

#include "obs/obs.hh"
#include "util/error.hh"

namespace tts {
namespace serve {

namespace {

constexpr const char *kHeader = "tts-serve-manifest v1";

/** Trim ASCII whitespace from both ends. */
std::string
trimmed(const std::string &s)
{
    std::size_t b = 0, e = s.size();
    while (b < e && (s[b] == ' ' || s[b] == '\t' || s[b] == '\r'))
        ++b;
    while (e > b &&
           (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\r'))
        --e;
    return s.substr(b, e - b);
}

/** Rendezvous for the submit-all-then-wait warming pass. */
struct Gather
{
    std::mutex mu;
    std::condition_variable cv;
    std::size_t pending = 0;
    WarmStats stats;
};

} // namespace

WarmStats
warmFromManifest(std::istream &in, Daemon &daemon,
                 const std::string &name)
{
    std::string line;
    std::size_t lineNo = 0;
    bool sawHeader = false;
    // Entries are collected first so the header check happens
    // before any evaluation is paid for.
    std::vector<std::pair<std::size_t, std::string>> entries;
    while (std::getline(in, line)) {
        ++lineNo;
        const std::string body = trimmed(line);
        if (!sawHeader) {
            require(body == kHeader,
                    name + ":" + std::to_string(lineNo) +
                        ": expected manifest header \"" +
                        std::string(kHeader) + "\", got \"" + body +
                        "\"");
            sawHeader = true;
            continue;
        }
        if (body.empty() || body[0] == '#')
            continue;
        entries.emplace_back(lineNo, body);
    }
    require(sawHeader,
            name + ": empty manifest (missing the \"" +
                std::string(kHeader) + "\" header)");

    auto gather = std::make_shared<Gather>();
    gather->stats.entries = entries.size();
    gather->pending = entries.size();

    // Submit everything before waiting on anything, so the entries
    // evaluate concurrently on the daemon's workers.
    for (auto &entry : entries) {
        const std::size_t entryLine = entry.first;
        daemon.submitAsync(
            std::move(entry.second),
            [gather, entryLine](Reply reply) {
                std::lock_guard<std::mutex> lock(gather->mu);
                WarmStats &ws = gather->stats;
                if (reply.ok && reply.cacheHit) {
                    ++ws.alreadyCached;
                } else if (reply.ok) {
                    ++ws.warmed;
                } else {
                    ++ws.failed;
                    ws.failures.push_back(
                        "line " + std::to_string(entryLine) + ": " +
                        toString(reply.error) + ": " +
                        reply.detail);
                }
                if (--gather->pending == 0)
                    gather->cv.notify_all();
            });
    }
    std::unique_lock<std::mutex> lock(gather->mu);
    gather->cv.wait(lock, [&] { return gather->pending == 0; });

    TTS_OBS_COUNT(obs::registry().counter("serve.warm.entries"),
                  static_cast<std::int64_t>(gather->stats.entries));
    TTS_OBS_COUNT(obs::registry().counter("serve.warm.failed"),
                  static_cast<std::int64_t>(gather->stats.failed));
    return gather->stats;
}

WarmStats
warmManifestFile(const std::string &path, Daemon &daemon)
{
    std::ifstream in(path);
    require(in.good(),
            "manifest: cannot open \"" + path + "\" for reading");
    return warmFromManifest(in, daemon, path);
}

} // namespace serve
} // namespace tts
