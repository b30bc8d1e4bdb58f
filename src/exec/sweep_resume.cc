#include "exec/sweep_resume.hh"

#include <algorithm>
#include <mutex>

#include "exec/parallel.hh"
#include "guard/checkpoint.hh"
#include "util/error.hh"

namespace tts {
namespace exec {

namespace {

/** Serialize the journal: task count + every completed row. */
std::string
journalDocument(std::size_t n, const SweepResult &state)
{
    guard::CheckpointWriter w;
    w.section("sweep");
    w.putU64("tasks", n);
    std::uint64_t done_count = 0;
    for (bool d : state.done)
        done_count += d ? 1 : 0;
    w.putU64("completed", done_count);
    for (std::size_t i = 0; i < n; ++i) {
        if (!state.done[i])
            continue;
        w.section("task." + std::to_string(i));
        w.putU64("nkeys", state.rows[i].size());
        for (const auto &[key, value] : state.rows[i]) {
            w.putToken("key", key);
            w.put("val", value);
        }
    }
    return w.finish();
}

/** Load a journal written by journalDocument(). */
void
loadJournal(const std::string &path, std::size_t n, SweepResult &state)
{
    guard::CheckpointReader r(guard::readCheckpointFile(path), path);
    r.expectSection("sweep");
    std::uint64_t tasks = r.expectU64("tasks");
    require(tasks == n,
            path + ": journal describes " + std::to_string(tasks) +
                " tasks, sweep has " + std::to_string(n));
    r.expectU64("completed");
    for (std::size_t i = 0; i < n; ++i) {
        if (!r.peekSection("task." + std::to_string(i)))
            continue;
        r.expectSection("task." + std::to_string(i));
        std::uint64_t nkeys = r.expectU64("nkeys");
        std::map<std::string, double> row;
        for (std::uint64_t k = 0; k < nkeys; ++k) {
            std::string key = r.expectToken("key");
            row[key] = r.expect("val");
        }
        state.rows[i] = std::move(row);
        state.done[i] = true;
    }
    r.expectEnd();
}

} // namespace

SweepResult
checkpointedMap(
    std::size_t n,
    const std::function<std::map<std::string, double>(std::size_t)> &task,
    const SweepCheckpointOptions &options)
{
    SweepResult state;
    state.rows.resize(n);
    state.done.assign(n, false);

    const bool journaled = !options.path.empty();
    if (journaled && guard::checkpointExists(options.path))
        loadJournal(options.path, n, state);

    // Pending tasks in ascending index order, so a capped (killed)
    // run completes a deterministic prefix of the remaining work at
    // any pool width.
    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < n; ++i) {
        if (!state.done[i])
            pending.push_back(i);
    }
    if (options.maxTasks > 0 && pending.size() > options.maxTasks)
        pending.resize(options.maxTasks);

    std::mutex store_mutex;
    parallel_for_index(pending.size(), [&](std::size_t j) {
        std::size_t i = pending[j];
        std::map<std::string, double> row = task(i);
        std::lock_guard<std::mutex> lock(store_mutex);
        state.rows[i] = std::move(row);
        state.done[i] = true;
        if (journaled) {
            guard::writeCheckpointFile(options.path,
                                       journalDocument(n, state));
        }
    });

    state.complete =
        std::all_of(state.done.begin(), state.done.end(),
                    [](bool d) { return d; });
    return state;
}

} // namespace exec
} // namespace tts
