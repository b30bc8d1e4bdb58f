#include "serve/protocol.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <ostream>
#include <set>
#include <sstream>

#include "cache/fingerprint.hh"
#include "plant/options.hh"
#include "util/error.hh"
#include "util/kv_json.hh"
#include "workload/placement.hh"

namespace tts {
namespace serve {

namespace {

/** A default-built Request: the values optional fields are omitted
 *  at when a request is written or fingerprinted. */
const Request &
defaults()
{
    static const Request def;
    return def;
}

std::string
formatDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Typed field extraction over the parsed KvAnyMap. */
class Fields
{
  public:
    explicit Fields(KvAnyMap kv) : kv_(std::move(kv)) {}

    double number(const std::string &key, double fallback)
    {
        auto it = kv_.find(key);
        if (it == kv_.end())
            return fallback;
        require(it->second.isNumber(),
                "request: key \"" + key + "\" must be a number");
        taken_.insert(key);
        return it->second.num;
    }

    std::string text(const std::string &key,
                     const std::string &fallback)
    {
        auto it = kv_.find(key);
        if (it == kv_.end())
            return fallback;
        require(it->second.isString(),
                "request: key \"" + key + "\" must be a string");
        taken_.insert(key);
        return it->second.str;
    }

    /** Reject any key no extractor consumed (typo defense). */
    void expectAllTaken() const
    {
        for (const auto &[key, value] : kv_) {
            (void)value;
            require(taken_.count(key) != 0,
                    "request: unknown key \"" + key + "\"");
        }
    }

  private:
    KvAnyMap kv_;
    std::set<std::string> taken_;
};

void
validate(const Request &r)
{
    require(r.study == "cooling" || r.study == "outage" ||
                r.study == "resilience" || r.study == "plant" ||
                r.study == "fleet" || r.study == "optimize",
            "request: unknown study \"" + r.study +
                "\" (try cooling, outage, resilience, plant, "
                "fleet, optimize)");
    // Throws its own FatalError on an unknown backend name.
    plant::backendKindFromString(r.plantBackend);
    require(r.platform >= 0 && r.platform <= 2,
            "request: platform must be 0, 1, or 2");
    require(r.servers >= 1 && r.servers <= 1000000,
            "request: servers must be in [1, 1000000]");
    require(std::isfinite(r.days) && r.days > 0.0 && r.days <= 32.0,
            "request: days must be in (0, 32]");
    require(std::isfinite(r.meltC) && r.meltC >= 0.0 &&
                r.meltC <= 120.0,
            "request: melt_c must be in [0, 120]");
    require(std::isfinite(r.waxLiters) && r.waxLiters >= 0.0 &&
                r.waxLiters <= 64.0,
            "request: wax_l must be in [0, 64]");
    require(std::isfinite(r.utilization) && r.utilization >= 0.0 &&
                r.utilization <= 1.0,
            "request: util must be in [0, 1]");
    require(std::isfinite(r.horizonS) && r.horizonS >= 0.0 &&
                r.horizonS <= 32.0 * 86400.0,
            "request: horizon_s must be in [0, 32 days]");
    // Throws its own FatalError on an unknown policy name.
    workload::placementPolicyFromName(r.placement);
    require(r.objective == "peak" || r.objective == "tco",
            "request: objective must be peak or tco");
    require(r.budget >= 1 && r.budget <= 4096,
            "request: budget must be in [1, 4096]");
    require(r.restarts >= 1 && r.restarts <= 64,
            "request: restarts must be in [1, 64]");
    require(std::isfinite(r.deadlineMs) && r.deadlineMs >= 0.0,
            "request: deadline_ms must be >= 0");
}

} // namespace

const char *
toString(ErrorKind kind)
{
    switch (kind) {
      case ErrorKind::Malformed: return "malformed";
      case ErrorKind::UnsupportedVersion:
        return "unsupported_version";
      case ErrorKind::Overloaded: return "overloaded";
      case ErrorKind::DeadlineExceeded: return "deadline_exceeded";
      case ErrorKind::WorkerFailed: return "worker_failed";
      case ErrorKind::Shutdown: return "shutdown";
    }
    panic("unreachable ErrorKind");
}

ErrorKind
errorKindFromString(const std::string &name)
{
    for (ErrorKind k :
         {ErrorKind::Malformed, ErrorKind::UnsupportedVersion,
          ErrorKind::Overloaded, ErrorKind::DeadlineExceeded,
          ErrorKind::WorkerFailed, ErrorKind::Shutdown}) {
        if (name == toString(k))
            return k;
    }
    fatal("unknown serve error kind '" + name + "'");
}

Request
parseRequest(const std::string &json, std::size_t max_bytes)
{
    Fields f(parseKvAnyJson(json, max_bytes));
    Request r;
    // Version gate first, before any other key is touched: a
    // future-version request may carry keys this build has never
    // heard of, and the client should learn "speak proto 1", not
    // "unknown key".
    double proto = f.number("proto", 1.0);
    require(std::isfinite(proto) && proto >= 1.0 &&
                proto == std::floor(proto) && proto <= 1e9,
            "request: proto must be a positive integer");
    r.proto = static_cast<int>(proto);
    if (r.proto != 1)
        throw UnsupportedVersionError(
            "request: proto " + std::to_string(r.proto) +
            " is not supported (this daemon speaks proto 1)");
    r.study = f.text("study", r.study);
    r.platform = static_cast<int>(
        f.number("platform", static_cast<double>(r.platform)));
    double servers =
        f.number("servers", static_cast<double>(r.servers));
    require(std::isfinite(servers) && servers >= 0.0 &&
                servers == std::floor(servers),
            "request: servers must be a non-negative integer");
    r.servers = static_cast<std::size_t>(servers);
    r.days = f.number("days", r.days);
    r.meltC = f.number("melt_c", r.meltC);
    r.waxLiters = f.number("wax_l", r.waxLiters);
    r.utilization = f.number("util", r.utilization);
    r.horizonS = f.number("horizon_s", r.horizonS);
    r.scenario = f.text("scenario", r.scenario);
    // The escape-free string dialect cannot carry newlines, so a
    // multi-line fault schedule travels with ';' line breaks (the
    // schedule grammar never uses ';'); restore them here so the
    // Request always holds the real `tts-fault-schedule v1` text.
    r.faults = f.text("faults", r.faults);
    for (char &c : r.faults)
        if (c == ';')
            c = '\n';
    r.plantBackend = f.text("plant_backend", r.plantBackend);
    r.weather = f.text("weather", r.weather);
    for (char &c : r.weather)
        if (c == ';')
            c = '\n';
    r.placement = f.text("placement", r.placement);
    r.objective = f.text("objective", r.objective);
    double budget =
        f.number("budget", static_cast<double>(r.budget));
    require(std::isfinite(budget) && budget >= 0.0 &&
                budget == std::floor(budget),
            "request: budget must be a non-negative integer");
    r.budget = static_cast<std::size_t>(budget);
    double restarts =
        f.number("restarts", static_cast<double>(r.restarts));
    require(std::isfinite(restarts) && restarts >= 0.0 &&
                restarts == std::floor(restarts),
            "request: restarts must be a non-negative integer");
    r.restarts = static_cast<std::size_t>(restarts);
    double opt_seed =
        f.number("opt_seed", static_cast<double>(r.optSeed));
    require(std::isfinite(opt_seed) && opt_seed >= 0.0 &&
                opt_seed == std::floor(opt_seed) &&
                opt_seed <= 9007199254740992.0,
            "request: opt_seed must be an integer in [0, 2^53]");
    r.optSeed = static_cast<std::uint64_t>(opt_seed);
    r.deadlineMs = f.number("deadline_ms", r.deadlineMs);
    f.expectAllTaken();
    validate(r);
    return r;
}

std::string
writeRequest(const Request &req)
{
    KvAnyMap kv;
    kv["study"] = KvValue::string(req.study);
    kv["platform"] =
        KvValue::number(static_cast<double>(req.platform));
    kv["servers"] = KvValue::number(static_cast<double>(req.servers));
    kv["days"] = KvValue::number(req.days);
    kv["melt_c"] = KvValue::number(req.meltC);
    kv["wax_l"] = KvValue::number(req.waxLiters);
    kv["util"] = KvValue::number(req.utilization);
    kv["horizon_s"] = KvValue::number(req.horizonS);
    kv["scenario"] = KvValue::string(req.scenario);
    kv["deadline_ms"] = KvValue::number(req.deadlineMs);
    if (!req.faults.empty()) {
        // Multi-line schedule text travels with ';' line breaks
        // (see parseRequest); everything else must already be
        // representable in the escape-free dialect.
        for (char c : req.faults)
            require(c != '"' && c != '\\' && c != ';',
                    "request: fault schedule text contains an "
                    "unencodable character");
        std::string flat = req.faults;
        for (char &c : flat)
            if (c == '\n')
                c = ';';
        kv["faults"] = KvValue::string(flat);
    }
    // Post-v1 fields are omitted at their defaults so older request
    // documents round-trip byte-identically.
    const Request &def = defaults();
    if (req.proto != def.proto)
        kv["proto"] =
            KvValue::number(static_cast<double>(req.proto));
    if (req.placement != def.placement)
        kv["placement"] = KvValue::string(req.placement);
    if (req.objective != def.objective)
        kv["objective"] = KvValue::string(req.objective);
    if (req.budget != def.budget)
        kv["budget"] =
            KvValue::number(static_cast<double>(req.budget));
    if (req.restarts != def.restarts)
        kv["restarts"] =
            KvValue::number(static_cast<double>(req.restarts));
    if (req.optSeed != def.optSeed)
        kv["opt_seed"] =
            KvValue::number(static_cast<double>(req.optSeed));
    if (req.plantBackend != def.plantBackend)
        kv["plant_backend"] = KvValue::string(req.plantBackend);
    if (!req.weather.empty()) {
        for (char c : req.weather)
            require(c != '"' && c != '\\' && c != ';',
                    "request: weather trace text contains an "
                    "unencodable character");
        std::string flat = req.weather;
        for (char &c : flat)
            if (c == '\n')
                c = ';';
        kv["weather"] = KvValue::string(flat);
    }
    return writeKvAnyJson(kv);
}

std::string
canonicalText(const Request &req)
{
    // Fixed field order, every field spelled out, deadline excluded:
    // the deadline shapes scheduling, never the result bits.
    std::ostringstream out;
    out << "tts-serve-request v1\n"
        << "study " << req.study << "\n"
        << "platform " << req.platform << "\n"
        << "servers " << req.servers << "\n"
        << "days " << formatDouble(req.days) << "\n"
        << "melt_c " << formatDouble(req.meltC) << "\n"
        << "wax_l " << formatDouble(req.waxLiters) << "\n"
        << "util " << formatDouble(req.utilization) << "\n"
        << "horizon_s " << formatDouble(req.horizonS) << "\n"
        << "scenario " << req.scenario << "\n"
        << "faults " << req.faults.size() << ":" << req.faults
        << "\n";
    // Later fields append only when non-default: a pre-plant or
    // pre-fleet request keeps its pinned fingerprint, and "omitted"
    // and "spelled-out default" still hash identically.  `proto`
    // never appears at all - like the deadline, it shapes whether
    // the answer arrives, never the answer's bits.
    const Request &def = defaults();
    if (req.plantBackend != def.plantBackend)
        out << "plant_backend " << req.plantBackend << "\n";
    if (!req.weather.empty())
        out << "weather " << req.weather.size() << ":"
            << req.weather << "\n";
    if (req.placement != def.placement)
        out << "placement " << req.placement << "\n";
    if (req.objective != def.objective)
        out << "objective " << req.objective << "\n";
    if (req.budget != def.budget)
        out << "budget " << req.budget << "\n";
    if (req.restarts != def.restarts)
        out << "restarts " << req.restarts << "\n";
    if (req.optSeed != def.optSeed)
        out << "opt_seed " << req.optSeed << "\n";
    return out.str();
}

std::uint64_t
fingerprint(const Request &req)
{
    return cache::fnv1a(canonicalText(req));
}

Reply
Reply::okReply(std::uint64_t fp, bool cache_hit, double eval_ms,
               Result result)
{
    Reply r;
    r.ok = true;
    r.cacheHit = cache_hit;
    r.fingerprintValue = fp;
    r.evalMs = eval_ms;
    r.result = std::move(result);
    return r;
}

Reply
Reply::errorReply(ErrorKind kind, const std::string &detail,
                  std::uint64_t fp)
{
    Reply r;
    r.ok = false;
    r.error = kind;
    r.detail = detail;
    r.fingerprintValue = fp;
    return r;
}

std::string
Reply::toJson() const
{
    KvAnyMap kv;
    char fp_hex[24];
    std::snprintf(fp_hex, sizeof(fp_hex), "%016llx",
                  static_cast<unsigned long long>(fingerprintValue));
    kv["fingerprint"] = KvValue::string(fp_hex);
    if (ok) {
        kv["status"] = KvValue::string("ok");
        kv["cache_hit"] = KvValue::number(cacheHit ? 1.0 : 0.0);
        kv["eval_ms"] = KvValue::number(evalMs);
        for (const auto &[key, value] : result) {
            invariant(key.find('.') != std::string::npos,
                      "serve result key '" + key +
                          "' is not dotted (would collide with the "
                          "reply envelope)");
            kv[key] = KvValue::number(value);
        }
    } else {
        kv["status"] = KvValue::string("error");
        kv["error"] = KvValue::string(toString(error));
        // The detail repeats hostile request bytes; strip anything
        // the escape-free writer would reject.
        std::string safe = detail;
        for (char &c : safe) {
            const auto u = static_cast<unsigned char>(c);
            if (c == '"' || c == '\\' || u < 0x20)
                c = '?';
        }
        kv["detail"] = KvValue::string(safe);
    }
    return writeKvAnyJson(kv);
}

Reply
Reply::fromJson(const std::string &json)
{
    KvAnyMap kv = parseKvAnyJson(json);
    Reply r;
    auto text = [&](const std::string &key) {
        auto it = kv.find(key);
        require(it != kv.end() && it->second.isString(),
                "reply: missing string key \"" + key + "\"");
        return it->second.str;
    };
    const std::string status = text("status");
    r.fingerprintValue = static_cast<std::uint64_t>(
        std::strtoull(text("fingerprint").c_str(), nullptr, 16));
    if (status == "ok") {
        r.ok = true;
        auto hit = kv.find("cache_hit");
        require(hit != kv.end() && hit->second.isNumber(),
                "reply: missing cache_hit");
        r.cacheHit = hit->second.num != 0.0;
        auto ms = kv.find("eval_ms");
        require(ms != kv.end() && ms->second.isNumber(),
                "reply: missing eval_ms");
        r.evalMs = ms->second.num;
        for (const auto &[key, value] : kv) {
            if (key.find('.') == std::string::npos)
                continue;
            require(value.isNumber(),
                    "reply: result key \"" + key +
                        "\" must be a number");
            r.result[key] = value.num;
        }
        return r;
    }
    require(status == "error",
            "reply: bad status \"" + status + "\"");
    r.ok = false;
    r.error = errorKindFromString(text("error"));
    r.detail = text("detail");
    return r;
}

namespace {

/** Longest frame header line the decoder accepts (bytes). */
constexpr std::size_t kMaxHeaderBytes = 64;

/**
 * The frame-header grammar: exactly "tts-frame " followed by one or
 * more ASCII decimal digits, at most kMaxHeaderBytes in all, the
 * value within 64 bits.  No sign, no spaces.
 *
 * @return True with *len set; false with *err filled in as an
 *         unrecoverable malformed frame.
 */
bool
parseFrameHeader(const std::string &header, unsigned long long *len,
                 FrameResult *err)
{
    auto reject = [err](std::string diagnostic) {
        err->status = FrameStatus::Malformed;
        err->payload.clear();
        err->diagnostic = std::move(diagnostic);
        err->recoverable = false;
        return false;
    };
    if (header.size() > kMaxHeaderBytes)
        return reject("frame: header line exceeds " +
                      std::to_string(kMaxHeaderBytes) + " bytes");
    const std::string tag = "tts-frame ";
    if (header.compare(0, tag.size(), tag) != 0)
        return reject("frame: bad header (expected 'tts-frame "
                      "<length>')");
    const std::string digits = header.substr(tag.size());
    const unsigned long long max =
        std::numeric_limits<unsigned long long>::max();
    unsigned long long value = 0;
    bool ok = !digits.empty();
    for (char ch : digits) {
        const auto d = static_cast<unsigned char>(ch - '0');
        if (d > 9 || value > (max - d) / 10) {
            ok = false;
            break;
        }
        value = value * 10 + d;
    }
    if (!ok)
        return reject("frame: bad length '" + digits +
                      "' in header");
    *len = value;
    return true;
}

std::string
oversizedDiagnostic(std::size_t len, std::size_t limit)
{
    return "frame: payload of " + std::to_string(len) +
        " bytes exceeds the " + std::to_string(limit) +
        "-byte frame limit";
}

} // namespace

std::string
encodeFrame(const std::string &payload)
{
    return "tts-frame " + std::to_string(payload.size()) + "\n" +
        payload;
}

void
writeFrame(std::ostream &out, const std::string &payload,
           const FrameLimits &limits)
{
    require(payload.size() <= limits.maxPayloadBytes,
            "frame: payload of " + std::to_string(payload.size()) +
                " bytes exceeds the " +
                std::to_string(limits.maxPayloadBytes) +
                "-byte frame limit");
    out << encodeFrame(payload);
    out.flush();
}

void
FrameDecoder::feed(const char *data, std::size_t n)
{
    if (state_ == State::Poisoned)
        return; // Nothing past an unrecoverable error is read.
    buf_.append(data, n);
}

void
FrameDecoder::compact()
{
    // Drop the consumed prefix once it dominates the buffer, so a
    // long-lived session doesn't accumulate every frame it ever
    // received.
    if (pos_ > 4096 && pos_ * 2 >= buf_.size()) {
        buf_.erase(0, pos_);
        pos_ = 0;
    }
}

bool
FrameDecoder::next(FrameResult *out)
{
    for (;;) {
        switch (state_) {
        case State::Poisoned:
            *out = poison_;
            return true;
        case State::Header: {
            const std::size_t nl = buf_.find('\n', pos_);
            const std::size_t line =
                (nl == std::string::npos ? buf_.size() : nl) - pos_;
            if (nl == std::string::npos && line <= kMaxHeaderBytes)
                return false; // The header line is still arriving.
            unsigned long long len = 0;
            if (!parseFrameHeader(
                    buf_.substr(pos_,
                                std::min(line, kMaxHeaderBytes + 1)),
                    &len, &poison_)) {
                state_ = State::Poisoned;
                continue;
            }
            pos_ = nl + 1;
            compact();
            want_ = declared_ = static_cast<std::size_t>(len);
            state_ = len > limits_.maxPayloadBytes ? State::Drain
                                                   : State::Payload;
            continue;
        }
        case State::Payload:
            if (buf_.size() - pos_ < want_)
                return false;
            out->status = FrameStatus::Ok;
            out->payload = buf_.substr(pos_, want_);
            out->diagnostic.clear();
            out->recoverable = false;
            pos_ += want_;
            want_ = 0;
            state_ = State::Header;
            compact();
            return true;
        case State::Drain: {
            const std::size_t have = buf_.size() - pos_;
            const std::size_t drop =
                have < want_ ? have : want_;
            pos_ += drop;
            want_ -= drop;
            compact();
            if (want_ > 0)
                return false;
            out->status = FrameStatus::Malformed;
            out->payload.clear();
            out->diagnostic = oversizedDiagnostic(
                declared_, limits_.maxPayloadBytes);
            out->recoverable = true;
            state_ = State::Header;
            return true;
        }
        }
    }
}

FrameResult
FrameDecoder::finish() const
{
    FrameResult r;
    if (state_ == State::Poisoned) {
        r = poison_;
        return r;
    }
    if (state_ == State::Header && buf_.size() == pos_) {
        r.status = FrameStatus::Eof;
        return r;
    }
    r.status = FrameStatus::Malformed;
    if (state_ == State::Header)
        r.diagnostic = "frame: stream ended inside a header line";
    else if (state_ == State::Drain)
        r.diagnostic =
            oversizedDiagnostic(declared_, limits_.maxPayloadBytes);
    else
        r.diagnostic = "frame: truncated payload (" +
            std::to_string(buf_.size() - pos_) + " of " +
            std::to_string(declared_) + " declared bytes)";
    r.recoverable = false;
    return r;
}

} // namespace serve
} // namespace tts
