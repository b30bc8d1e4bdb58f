/**
 * @file
 * The serving daemon's oracle: one validated Request in, one flat
 * Result out.
 *
 * Evaluation delegates to the existing core studies (cooling,
 * outage, resilience) and the plant runner (tts::plant) with the
 * request's RunConfig deltas applied,
 * so a served result is *by construction* the same computation a
 * batch `tts_sim` run performs - the cache bit-identity contract
 * reduces to the studies' own determinism contract (bit-identical
 * at any thread count, tts::exec §8).  Results carry only dotted
 * scalar keys, golden-file style, so they serialize losslessly
 * through kv_json and compare bit-exactly.
 */

#ifndef TTS_SERVE_EVAL_HH
#define TTS_SERVE_EVAL_HH

#include "serve/protocol.hh"

namespace tts {
namespace serve {

/**
 * Evaluate one request.  Deterministic: equal canonicalText() means
 * bit-identical Results, at any thread count.
 *
 * @throws FatalError on semantic errors parsing reveals only here
 *         (an unknown resilience scenario, a bad inline fault
 *         schedule); callers map it to ErrorKind::Malformed.
 */
Result evaluate(const Request &req);

} // namespace serve
} // namespace tts

#endif // TTS_SERVE_EVAL_HH
