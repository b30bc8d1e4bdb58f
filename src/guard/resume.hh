/**
 * @file
 * The one checkpoint/resume loop for long runs (tts::guard).
 *
 * The fleet simulator, the resilience runner and the cooling-plant
 * runner all checkpoint the same way: restore from the policy's file
 * when it exists, write a snapshot every checkpointEveryS simulated
 * seconds, and pause (snapshot first) once stopAfterS seconds have
 * passed in this call.  Each of them is a Resumable - a step machine
 * that serializes its own state - and runResumable() is the loop.
 */

#ifndef TTS_GUARD_RESUME_HH
#define TTS_GUARD_RESUME_HH

#include <string>

#include "guard/checkpoint.hh"

namespace tts {
namespace guard {

/** Checkpoint/resume policy for long runs. */
struct CheckpointPolicy
{
    /**
     * Checkpoint file path; empty disables checkpointing.  When the
     * file exists, the run restores from it and continues instead of
     * starting over.
     */
    std::string path;
    /**
     * Simulated seconds between checkpoint writes; must be > 0 when
     * path is set.  Runs that advance in bounded slices (the
     * resilience cluster phase) also use it as the slice length.
     */
    double checkpointEveryS = 900.0;
    /**
     * Pause the run after advancing this much simulated time in this
     * call (a final checkpoint is written first when path is set);
     * < 0 runs to completion.  Test hook simulating a killed process.
     */
    double stopAfterS = -1.0;

    /**
     * @throws FatalError naming the value when path is set and
     *         checkpointEveryS is not > 0.
     */
    void validate() const;
};

/** A step machine runResumable() can drive and checkpoint. */
class Resumable
{
  public:
    virtual ~Resumable() = default;

    /** @return True once the run reached its end. */
    virtual bool done() const = 0;

    /**
     * Advance by about one slice.  @p sliceS is the checkpoint
     * interval: runResumable() saves once the seconds returned since
     * the last save reach it.  A run may take one step of its own
     * clock and ignore it (the resilience arms, the plant), advance
     * exactly sliceS (the resilience cluster phase), or take whole
     * control steps until they cover it (the fleet, in one shard
     * region per call).
     * @return Simulated seconds advanced.
     */
    virtual double advance(double sliceS) = 0;

    /** Serialize every evolving quantity. */
    virtual void save(CheckpointWriter &w) const = 0;

    /** Restore state written by save() (same configuration). */
    virtual void restore(CheckpointReader &r) = 0;
};

/** Write @p run's state to @p path (atomic, CRC-protected). */
void saveCheckpoint(const Resumable &run, const std::string &path);

/**
 * Restore @p run from @p path; the file must hold nothing else.
 * @throws FatalError on a corrupt file or a foreign state.
 */
void restoreCheckpoint(Resumable &run, const std::string &path);

/**
 * Run to completion under @p policy: restore when policy.path exists,
 * save every policy.checkpointEveryS simulated seconds, and pause
 * after policy.stopAfterS.  Emits checkpoint.save/.restore trace
 * events named @p label.
 *
 * @return True when the run finished; false when paused (state saved
 *         to policy.path when set).
 * @throws FatalError on a bad policy (see validate()) or checkpoint.
 */
bool runResumable(Resumable &run, const CheckpointPolicy &policy,
                  const std::string &label);

} // namespace guard
} // namespace tts

#endif // TTS_GUARD_RESUME_HH
