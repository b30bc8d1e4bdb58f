#include "fault.hh"

#include <string>

#include "util/error.hh"
#include "util/random.hh"

namespace tts {
namespace servetest {

ServeFaultPlan
ServeFaultPlan::generate(const ServeFaultProfile &profile,
                         std::size_t request_count,
                         std::size_t session_count)
{
    auto probability = [](double p, const char *name) {
        require(p >= 0.0 && p <= 1.0,
                std::string("serve fault profile: ") + name +
                    " must be in [0, 1]");
    };
    probability(profile.malformedPerRequest, "malformedPerRequest");
    probability(profile.oversizedPerRequest, "oversizedPerRequest");
    probability(profile.truncatedPerRequest, "truncatedPerRequest");
    probability(profile.slowClientPerRequest, "slowClientPerRequest");
    probability(profile.disconnectPerRequest, "disconnectPerRequest");
    probability(profile.slowSessionPerSession,
                "slowSessionPerSession");
    const double client_total = profile.malformedPerRequest +
        profile.oversizedPerRequest + profile.truncatedPerRequest +
        profile.slowClientPerRequest + profile.disconnectPerRequest;
    require(client_total <= 1.0,
            "serve fault profile: client-side probabilities sum past "
            "1");
    require(profile.slowClientStallMs >= 0.0,
            "serve fault profile: slowClientStallMs must be >= 0");

    ServeFaultPlan plan;
    plan.stallMs_ = profile.slowClientStallMs;
    plan.requestFaults_.resize(request_count, RequestFault::None);
    for (std::size_t i = 0; i < request_count; ++i) {
        Rng client = Rng::forStream(profile.seed, 2 * i);
        const double u = client.uniform();
        double edge = profile.malformedPerRequest;
        if (u < edge) {
            plan.requestFaults_[i] = RequestFault::Malformed;
        } else if (u < (edge += profile.oversizedPerRequest)) {
            plan.requestFaults_[i] = RequestFault::Oversized;
        } else if (u < (edge += profile.truncatedPerRequest)) {
            plan.requestFaults_[i] = RequestFault::Truncated;
        } else if (u < (edge += profile.slowClientPerRequest)) {
            plan.requestFaults_[i] = RequestFault::SlowClient;
        } else if (u < (edge += profile.disconnectPerRequest)) {
            // Appended to the cascade's tail so enabling it never
            // reshuffles which requests drew the older faults.
            plan.requestFaults_[i] = RequestFault::Disconnect;
        }
    }
    // Session-level draws live at a disjoint stream offset so
    // adding sessions never perturbs the per-request streams above.
    constexpr std::uint64_t kSessionStreamBase =
        std::uint64_t{1} << 32;
    plan.slowSessions_.resize(session_count, 0);
    for (std::size_t s = 0; s < session_count; ++s) {
        Rng session =
            Rng::forStream(profile.seed, kSessionStreamBase + s);
        if (session.uniform() < profile.slowSessionPerSession)
            plan.slowSessions_[s] = 1;
    }
    return plan;
}

RequestFault
ServeFaultPlan::requestFault(std::size_t i) const
{
    return i < requestFaults_.size() ? requestFaults_[i]
                                     : RequestFault::None;
}

std::size_t
ServeFaultPlan::countOf(RequestFault kind) const
{
    std::size_t n = 0;
    for (RequestFault f : requestFaults_)
        if (f == kind)
            ++n;
    return n;
}

bool
ServeFaultPlan::slowSession(std::size_t s) const
{
    return s < slowSessions_.size() && slowSessions_[s] != 0;
}

std::size_t
ServeFaultPlan::slowSessions() const
{
    std::size_t n = 0;
    for (char c : slowSessions_)
        if (c != 0)
            ++n;
    return n;
}

} // namespace servetest
} // namespace tts
