#include "guard/resume.hh"

#include <cstdio>

#include "obs/obs.hh"
#include "util/error.hh"

namespace tts {
namespace guard {

void
CheckpointPolicy::validate() const
{
    if (path.empty() || checkpointEveryS > 0.0)
        return;
    char value[32];
    std::snprintf(value, sizeof(value), "%g", checkpointEveryS);
    fatal("checkpoint policy: checkpointEveryS must be > 0 when a "
          "checkpoint path is set (got " + std::string(value) + ")");
}

void
saveCheckpoint(const Resumable &run, const std::string &path)
{
    CheckpointWriter w;
    run.save(w);
    writeCheckpointFile(path, w.finish());
}

void
restoreCheckpoint(Resumable &run, const std::string &path)
{
    CheckpointReader r(readCheckpointFile(path), path);
    run.restore(r);
    r.expectEnd();
}

bool
runResumable(Resumable &run, const CheckpointPolicy &policy,
             const std::string &label)
{
    policy.validate();
    const bool journaled = !policy.path.empty();
    if (journaled && checkpointExists(policy.path)) {
        restoreCheckpoint(run, policy.path);
        TTS_OBS_EVENT(obs::EventKind::CheckpointRestore, 0.0, label,
                      0.0, -1);
    }
    // Without a file the interval only sets the slice length, so a
    // non-positive one falls back to the default.
    const double slice = policy.checkpointEveryS > 0.0
        ? policy.checkpointEveryS
        : CheckpointPolicy{}.checkpointEveryS;
    double advanced = 0.0;
    double since_save = 0.0;
    while (!run.done()) {
        const double d = run.advance(slice);
        advanced += d;
        since_save += d;
        if (run.done())
            break;
        const bool pause =
            policy.stopAfterS >= 0.0 && advanced >= policy.stopAfterS;
        if (journaled && (pause || since_save >= slice)) {
            saveCheckpoint(run, policy.path);
            TTS_OBS_EVENT(obs::EventKind::CheckpointSave, advanced,
                          label, since_save, -1);
            since_save = 0.0;
        }
        if (pause)
            return false;
    }
    return true;
}

} // namespace guard
} // namespace tts
