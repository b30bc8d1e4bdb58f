/**
 * @file
 * Manifest-driven cache warming for the scenario daemon.
 *
 * A scenario manifest is a plain-text file naming the requests a
 * deployment expects to serve, so a fresh daemon can pre-evaluate
 * them *before* its socket opens and the first real client sees a
 * warm cache:
 *
 *     tts-serve-manifest v1
 *     # The morning dashboard's fleet panels.
 *     {"study": "fleet", "servers": 100, "days": 1}
 *     {"study": "fleet", "servers": 200, "days": 1}
 *     {"study": "cooling", "melt_c": 52}
 *
 * Line 1 must be the `tts-serve-manifest v1` header; after that,
 * blank lines and `#` comments are skipped and every other line is
 * one request document (the flat kv_json dialect, on a single
 * line - the parser takes any whitespace, so hand-writing these is
 * painless).
 *
 * Warming submits every entry through Daemon::submitAsync *first*
 * and only then waits, so the entries evaluate concurrently on the
 * daemon's workers instead of one round-trip at a time.
 *
 * Failure posture: a manifest that cannot be read or lacks the
 * header is a deployment error and throws (with the offending line
 * number); an individual entry that evaluates to a typed error is
 * counted and reported, never fatal - a stale manifest entry must
 * not keep the daemon from starting.
 */

#ifndef TTS_SERVE_MANIFEST_HH
#define TTS_SERVE_MANIFEST_HH

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "serve/daemon.hh"

namespace tts {
namespace serve {

/** What one warming pass did. */
struct WarmStats
{
    /** Request entries found in the manifest. */
    std::size_t entries = 0;
    /** Entries freshly evaluated into the cache. */
    std::size_t warmed = 0;
    /** Entries already resident (snapshot or duplicate). */
    std::size_t alreadyCached = 0;
    /** Entries answered with a typed error (diagnostics below). */
    std::size_t failed = 0;
    /** One "line N: kind: detail" string per failed entry. */
    std::vector<std::string> failures;
};

/**
 * Parse a manifest and warm `daemon`'s cache with every entry.
 * Blocks until all entries are answered.
 *
 * @param in     The manifest text.
 * @param daemon The daemon to warm (normally before its socket
 *        opens; safe any time).
 * @param name   Manifest name for diagnostics.
 * @throws FatalError when the header is missing/wrong.
 */
WarmStats warmFromManifest(std::istream &in, Daemon &daemon,
                           const std::string &name = "<manifest>");

/** warmFromManifest() on a file. @throws FatalError on I/O error. */
WarmStats warmManifestFile(const std::string &path, Daemon &daemon);

} // namespace serve
} // namespace tts

#endif // TTS_SERVE_MANIFEST_HH
