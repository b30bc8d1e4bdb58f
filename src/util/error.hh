/**
 * @file
 * Error handling primitives for the tts library.
 *
 * Follows the gem5 convention: fatal() is for user error (bad
 * configuration, invalid arguments) and panic() is for internal
 * invariant violations (a library bug).  Both throw exceptions rather
 * than aborting so that embedding applications and tests can recover.
 */

#ifndef TTS_UTIL_ERROR_HH
#define TTS_UTIL_ERROR_HH

#include <sstream>
#include <stdexcept>
#include <string>

namespace tts {

/** Base class for all errors raised by the tts library. */
class Error : public std::runtime_error
{
  public:
    explicit Error(const std::string &what) : std::runtime_error(what) {}
};

/** Raised by fatal(): the caller supplied an invalid configuration. */
class FatalError : public Error
{
  public:
    explicit FatalError(const std::string &what) : Error(what) {}
};

/** Raised by panic(): an internal invariant was violated. */
class PanicError : public Error
{
  public:
    explicit PanicError(const std::string &what) : Error(what) {}
};

/**
 * Report an unrecoverable user/configuration error.
 *
 * @param msg Description of the bad input.
 * @throws FatalError always.
 */
[[noreturn]] void fatal(const std::string &msg);

/**
 * Report an internal library bug (invariant violation).
 *
 * @param msg Description of the violated invariant.
 * @throws PanicError always.
 */
[[noreturn]] void panic(const std::string &msg);

/**
 * Validate a user-supplied condition; calls fatal() on failure.
 *
 * @param cond Condition that must hold.
 * @param msg Message used when the condition is false.
 */
inline void
require(bool cond, const std::string &msg)
{
    if (!cond)
        fatal(msg);
}

/**
 * require() for a literal message: the std::string is built only when
 * the condition fails, so a passing check on a hot path allocates
 * nothing.
 */
inline void
require(bool cond, const char *msg)
{
    if (!cond)
        fatal(msg);
}

/**
 * Validate an internal invariant; calls panic() on failure.
 *
 * @param cond Condition that must hold.
 * @param msg Message used when the condition is false.
 */
inline void
invariant(bool cond, const std::string &msg)
{
    if (!cond)
        panic(msg);
}

/** invariant() for a literal message; allocates only on failure. */
inline void
invariant(bool cond, const char *msg)
{
    if (!cond)
        panic(msg);
}

} // namespace tts

#endif // TTS_UTIL_ERROR_HH
