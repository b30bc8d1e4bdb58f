#include "guard/checkpoint.hh"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/obs.hh"
#include "util/error.hh"

namespace tts {
namespace guard {

namespace {

std::array<std::uint32_t, 256>
makeCrcTable()
{
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t n = 0; n < 256; ++n) {
        std::uint32_t c = n;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        table[n] = c;
    }
    return table;
}

std::string
formatDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/**
 * Parse @p word whole as a number: no leading whitespace or '+', no
 * junk, no overflow.  Unsigned words take no sign at all; doubles
 * read everything the writer's %.17g emits, subnormals, inf and nan
 * included.  @return False when it is anything else.
 */
template <typename T>
bool
parseWhole(const std::string &word, T &out)
{
    const char *end = word.data() + word.size();
    auto [ptr, ec] = std::from_chars(word.data(), end, out);
    return !word.empty() && ec == std::errc() && ptr == end;
}

} // namespace

std::uint32_t
crc32(const std::string &data)
{
    static const std::array<std::uint32_t, 256> table = makeCrcTable();
    std::uint32_t c = 0xffffffffu;
    for (unsigned char byte : data)
        c = table[(c ^ byte) & 0xffu] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

CheckpointWriter::CheckpointWriter()
{
    body_ = "tts-checkpoint v" + std::to_string(kCheckpointVersion) + "\n";
}

void
CheckpointWriter::section(const std::string &name)
{
    body_ += "section " + name + "\n";
}

void
CheckpointWriter::put(const std::string &key, double value)
{
    body_ += key + " = " + formatDouble(value) + "\n";
}

void
CheckpointWriter::putU64(const std::string &key, std::uint64_t value)
{
    body_ += key + " = " + std::to_string(value) + "\n";
}

void
CheckpointWriter::putI64(const std::string &key, std::int64_t value)
{
    body_ += key + " = " + std::to_string(value) + "\n";
}

void
CheckpointWriter::putBool(const std::string &key, bool value)
{
    body_ += key + " = " + (value ? "1" : "0") + "\n";
}

void
CheckpointWriter::putToken(const std::string &key, const std::string &value)
{
    require(value.find_first_of(" \t\n") == std::string::npos,
            "checkpoint token '" + key + "' contains whitespace");
    body_ += key + " = " + value + "\n";
}

void
CheckpointWriter::putVector(const std::string &key,
                            const std::vector<double> &values)
{
    body_ += key + " = " + std::to_string(values.size());
    for (double v : values)
        body_ += " " + formatDouble(v);
    body_ += "\n";
}

void
CheckpointWriter::putU64Vector(const std::string &key,
                               const std::vector<std::uint64_t> &values)
{
    body_ += key + " = " + std::to_string(values.size());
    for (std::uint64_t v : values)
        body_ += " " + std::to_string(v);
    body_ += "\n";
}

void
CheckpointWriter::putSeries(const std::string &key,
                            const TimeSeries &series)
{
    putVector(key + ".times", series.times());
    putVector(key + ".values", series.values());
}

void
CheckpointWriter::putCounters(const std::string &key,
                              const GuardCounters &c)
{
    putU64Vector(key, {c.advances, c.steps, c.audits, c.sentinelTrips,
                       c.auditTrips, c.retries, c.fallbacks});
    put(key + ".worst_residual_j", c.worstResidualJ);
    put(key + ".worst_residual_t", c.worstResidualTimeS);
}

std::string
CheckpointWriter::finish() const
{
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%08x", crc32(body_));
    return body_ + "crc32 " + buf + "\n";
}

CheckpointReader::CheckpointReader(const std::string &document,
                                   const std::string &origin)
    : origin_(origin)
{
    // Split off the CRC trailer and check it before parsing anything.
    std::size_t trailer = document.rfind("crc32 ");
    require(trailer != std::string::npos,
            origin_ + ": missing crc32 trailer");
    std::string body = document.substr(0, trailer);
    std::string crc_line = document.substr(trailer);

    std::istringstream crc_stream(crc_line);
    std::string tag, hex;
    crc_stream >> tag >> hex;
    std::uint32_t stored = 0;
    try {
        stored = static_cast<std::uint32_t>(std::stoul(hex, nullptr, 16));
    } catch (const std::exception &) {
        fatal(origin_ + ": malformed crc32 trailer '" + hex + "'");
    }
    std::uint32_t actual = crc32(body);
    if (stored != actual) {
        char want[16], got[16];
        std::snprintf(want, sizeof(want), "%08x", stored);
        std::snprintf(got, sizeof(got), "%08x", actual);
        fatal(origin_ + ": crc32 mismatch: expected " + want +
              " (stored trailer), actual " + got + " (computed over " +
              std::to_string(body.size()) +
              " bytes) - checkpoint is corrupt or truncated");
    }

    std::istringstream in(body);
    std::string line;
    while (std::getline(in, line))
        lines_.push_back(line);

    require(!lines_.empty(), origin_ + ": empty checkpoint");
    const std::string header =
        "tts-checkpoint v" + std::to_string(kCheckpointVersion);
    if (lines_[0] != header)
        fatal(origin_ + ": unsupported checkpoint header '" + lines_[0] +
              "' (expected '" + header + "')");
    pos_ = 1;
}

std::string
CheckpointReader::takeValue(const std::string &key)
{
    require(pos_ < lines_.size(),
            origin_ + ": unexpected end of checkpoint wanting key '" +
                key + "'");
    const std::string &line = lines_[pos_];
    const std::string prefix = key + " = ";
    if (line.rfind(prefix, 0) != 0)
        fatal(origin_ + ": expected key '" + key + "', found '" + line +
              "'");
    ++pos_;
    return line.substr(prefix.size());
}

void
CheckpointReader::expectSection(const std::string &name)
{
    require(pos_ < lines_.size(),
            origin_ + ": unexpected end of checkpoint wanting section '" +
                name + "'");
    const std::string want = "section " + name;
    if (lines_[pos_] != want)
        fatal(origin_ + ": expected '" + want + "', found '" +
              lines_[pos_] + "'");
    ++pos_;
}

bool
CheckpointReader::peekSection(const std::string &name) const
{
    return pos_ < lines_.size() && lines_[pos_] == "section " + name;
}

double
CheckpointReader::expect(const std::string &key)
{
    std::string value = takeValue(key);
    double v = 0.0;
    if (!parseWhole(value, v))
        fatal(origin_ + ": bad double for key '" + key + "': '" + value +
              "'");
    return v;
}

std::uint64_t
CheckpointReader::expectU64(const std::string &key)
{
    std::string value = takeValue(key);
    std::uint64_t v = 0;
    if (!parseWhole(value, v))
        fatal(origin_ + ": bad u64 for key '" + key + "': '" + value +
              "'");
    return v;
}

std::int64_t
CheckpointReader::expectI64(const std::string &key)
{
    std::string value = takeValue(key);
    std::int64_t v = 0;
    if (!parseWhole(value, v))
        fatal(origin_ + ": bad i64 for key '" + key + "': '" + value +
              "'");
    return v;
}

bool
CheckpointReader::expectBool(const std::string &key)
{
    std::string value = takeValue(key);
    if (value == "1")
        return true;
    if (value == "0")
        return false;
    fatal(origin_ + ": bad bool for key '" + key + "': '" + value + "'");
}

std::string
CheckpointReader::expectToken(const std::string &key)
{
    return takeValue(key);
}

template <typename T, typename Parse>
std::vector<T>
CheckpointReader::expectWords(const std::string &key, const char *type,
                              Parse parse)
{
    std::istringstream in(takeValue(key));
    std::string word;
    std::uint64_t n = 0;
    if (!(in >> word) || !parseWhole(word, n))
        fatal(origin_ + ": bad vector length for key '" + key + "': '" +
              word + "'");
    // The stated length only bounds the loop: the words on the line
    // size the vector, so a lying length allocates nothing.
    std::vector<T> out;
    while (in >> word) {
        if (out.size() == n)
            fatal(origin_ + ": vector '" + key + "' longer than stated");
        T v{};
        if (!parse(word, v))
            fatal(origin_ + ": bad " + type + " in vector '" + key +
                  "': '" + word + "'");
        out.push_back(v);
    }
    if (out.size() != n)
        fatal(origin_ + ": vector '" + key + "' shorter than stated");
    return out;
}

std::vector<double>
CheckpointReader::expectVector(const std::string &key)
{
    return expectWords<double>(key, "double", parseWhole<double>);
}

std::vector<std::uint64_t>
CheckpointReader::expectU64Vector(const std::string &key)
{
    return expectWords<std::uint64_t>(key, "u64",
                                      parseWhole<std::uint64_t>);
}

TimeSeries
CheckpointReader::expectSeries(const std::string &key,
                               const std::string &name)
{
    std::vector<double> times = expectVector(key + ".times");
    std::vector<double> values = expectVector(key + ".values");
    check(times.size() == values.size(), key,
          "ragged series (" + std::to_string(times.size()) +
              " times, " + std::to_string(values.size()) + " values)");
    auto not_after = [](double a, double b) { return !(b > a); };
    check(std::adjacent_find(times.begin(), times.end(), not_after) ==
              times.end(),
          key, "times not strictly increasing");
    TimeSeries s(name);
    for (std::size_t i = 0; i < times.size(); ++i)
        s.append(times[i], values[i]);
    return s;
}

GuardCounters
CheckpointReader::expectCounters(const std::string &key)
{
    std::vector<std::uint64_t> v = expectU64Vector(key);
    check(v.size() == 7, key,
          "guard counters need 7 entries, found " +
              std::to_string(v.size()));
    GuardCounters c;
    c.advances = v[0];
    c.steps = v[1];
    c.audits = v[2];
    c.sentinelTrips = v[3];
    c.auditTrips = v[4];
    c.retries = v[5];
    c.fallbacks = v[6];
    c.worstResidualJ = expect(key + ".worst_residual_j");
    c.worstResidualTimeS = expect(key + ".worst_residual_t");
    return c;
}

void
CheckpointReader::check(bool ok, const std::string &key,
                        const std::string &what) const
{
    if (!ok)
        fatal(origin_ + ": key '" + key + "': " + what);
}

void
CheckpointReader::expectEnd() const
{
    if (pos_ != lines_.size())
        fatal(origin_ + ": trailing content in checkpoint starting at '" +
              lines_[pos_] + "'");
}

void
writeCheckpointFile(const std::string &path, const std::string &document)
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        require(out.good(),
                "cannot open checkpoint temp file '" + tmp + "'");
        out << document;
        out.flush();
        require(out.good(), "failed writing checkpoint '" + tmp + "'");
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        fatal("cannot rename checkpoint '" + tmp + "' to '" + path + "'");
    if (obs::enabled()) {
        static obs::Counter &saves =
            obs::registry().counter("guard.checkpoint.saves");
        static obs::Counter &bytes =
            obs::registry().counter("guard.checkpoint.bytes_written");
        saves.add(1);
        bytes.add(document.size());
    }
}

std::string
readCheckpointFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    require(in.good(), "cannot open checkpoint file '" + path + "'");
    std::ostringstream buf;
    buf << in.rdbuf();
    require(!in.bad(), "failed reading checkpoint file '" + path + "'");
    if (obs::enabled()) {
        static obs::Counter &restores =
            obs::registry().counter("guard.checkpoint.restores");
        restores.add(1);
    }
    return buf.str();
}

bool
checkpointExists(const std::string &path)
{
    return std::ifstream(path).good();
}

} // namespace guard
} // namespace tts
