/**
 * @file
 * Versioned, CRC-protected text checkpoints (tts::guard).
 *
 * A checkpoint is a line-oriented text document:
 *
 *     tts-checkpoint v1
 *     section <name>
 *     <key> = <value ...>
 *     ...
 *     crc32 <8-hex-digits>
 *
 * Doubles are printed with "%.17g" so they round-trip bit-for-bit;
 * integers in decimal; vectors as space-separated scalars on one
 * line.  The trailing crc32 line covers every preceding byte, so a
 * truncated or corrupted file is rejected up front (FatalError)
 * instead of resuming a run from garbage.  Files are written to a
 * temporary sibling and renamed into place, so a checkpoint path
 * never holds a half-written document even if the writer is killed.
 *
 * Readers are sequential and strict: each expect*() names the key it
 * wants, and a mismatch (missing key, wrong section order, trailing
 * junk) is a FatalError naming the offender.  Strictness is the
 * point — a resumed run must be bit-identical, so "close enough"
 * parsing is a bug factory.
 *
 * State shared by several runners has one codec: TimeSeries and
 * GuardCounters here (putSeries/expectSeries, putCounters/
 * expectCounters), a server's thermal state in server::ServerModel,
 * the fault-replay cursor in fault::FaultInjector.  The run loop that
 * decides when to restore, save and pause lives in guard/resume.hh.
 */

#ifndef TTS_GUARD_CHECKPOINT_HH
#define TTS_GUARD_CHECKPOINT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "guard/numerics.hh"
#include "util/time_series.hh"

namespace tts {
namespace guard {

/** @return CRC-32 (IEEE 802.3, reflected) of @p data. */
std::uint32_t crc32(const std::string &data);

/** Current checkpoint format version (see DESIGN.md §11). */
inline constexpr int kCheckpointVersion = 1;

/** Accumulates a checkpoint document in memory. */
class CheckpointWriter
{
  public:
    CheckpointWriter();

    /** Start a named section. */
    void section(const std::string &name);

    /** Write a double with full round-trip precision. */
    void put(const std::string &key, double value);
    /** Write an unsigned integer. */
    void putU64(const std::string &key, std::uint64_t value);
    /** Write a signed integer. */
    void putI64(const std::string &key, std::int64_t value);
    /** Write a boolean (as 0/1). */
    void putBool(const std::string &key, bool value);
    /** Write a string token (must contain no whitespace/newline). */
    void putToken(const std::string &key, const std::string &value);
    /** Write a vector of doubles on one line. */
    void putVector(const std::string &key,
                   const std::vector<double> &values);
    /** Write a vector of unsigned integers on one line. */
    void putU64Vector(const std::string &key,
                      const std::vector<std::uint64_t> &values);
    /** Write a series as "<key>.times" and "<key>.values". */
    void putSeries(const std::string &key, const TimeSeries &series);
    /**
     * Write guard counters: the seven counts as "<key>", then
     * "<key>.worst_residual_j" and "<key>.worst_residual_t".
     */
    void putCounters(const std::string &key, const GuardCounters &c);

    /** @return The complete document, CRC trailer included. */
    std::string finish() const;

  private:
    std::string body_;
};

/** Sequential strict reader for a checkpoint document. */
class CheckpointReader
{
  public:
    /**
     * Parse and CRC-check @p document.
     *
     * @param document Full checkpoint text.
     * @param origin   Name used in error messages (e.g. file path).
     * @throws FatalError on bad header, version, or CRC mismatch.
     */
    explicit CheckpointReader(const std::string &document,
                              const std::string &origin = "checkpoint");

    /** Consume a "section <name>" line; FatalError on mismatch. */
    void expectSection(const std::string &name);

    /** Consume "<key> = <double>". */
    double expect(const std::string &key);
    /** Consume "<key> = <u64>". */
    std::uint64_t expectU64(const std::string &key);
    /** Consume "<key> = <i64>". */
    std::int64_t expectI64(const std::string &key);
    /** Consume "<key> = <0|1>". */
    bool expectBool(const std::string &key);
    /** Consume "<key> = <token>". */
    std::string expectToken(const std::string &key);
    /** Consume "<key> = <n> v0 v1 ...". */
    std::vector<double> expectVector(const std::string &key);
    /** Consume "<key> = <n> v0 v1 ..." of unsigned integers. */
    std::vector<std::uint64_t> expectU64Vector(const std::string &key);
    /**
     * Consume a series written by putSeries(); @p name names the
     * result.  FatalError when times and values differ in length.
     */
    TimeSeries expectSeries(const std::string &key,
                            const std::string &name);
    /** Consume counters written by putCounters(). */
    GuardCounters expectCounters(const std::string &key);

    /**
     * FatalError "<origin>: key '<key>': <what>" unless @p ok - the
     * one message shape every state codec uses to reject a value
     * that parsed but does not fit the model being restored.
     */
    void check(bool ok, const std::string &key,
               const std::string &what) const;

    /** @return True if the next line is "section <name>". */
    bool peekSection(const std::string &name) const;

    /** FatalError unless every line has been consumed. */
    void expectEnd() const;

  private:
    std::string takeValue(const std::string &key);

    /**
     * Consume "<key> = <n> w0 w1 ..." and parse each word whole with
     * @p parse; FatalError naming the key on a bad length or word, or
     * when the line holds more or fewer than n words.
     */
    template <typename T, typename Parse>
    std::vector<T> expectWords(const std::string &key, const char *type,
                               Parse parse);

    std::vector<std::string> lines_;
    std::size_t pos_ = 0;
    std::string origin_;
};

/**
 * Atomically write @p document to @p path (tmp file + rename).
 * @throws FatalError on IO failure.
 */
void writeCheckpointFile(const std::string &path,
                         const std::string &document);

/**
 * Read a whole checkpoint file.
 * @throws FatalError if the file cannot be read.
 */
std::string readCheckpointFile(const std::string &path);

/** @return True when a checkpoint file exists at @p path. */
bool checkpointExists(const std::string &path);

} // namespace guard
} // namespace tts

#endif // TTS_GUARD_CHECKPOINT_HH
