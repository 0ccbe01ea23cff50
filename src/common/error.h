// Error handling for the indexmac library.
//
// Library-level misuse (bad configuration, malformed programs, illegal
// instructions reaching a simulator) raises SimError; internal invariant
// violations use IMAC_ASSERT which also throws so tests can observe them.
#pragma once

#include <stdexcept>
#include <string>

namespace indexmac {

/// Exception thrown for all user-visible error conditions in the library.
class SimError : public std::runtime_error {
 public:
  explicit SimError(const std::string& what) : std::runtime_error(what) {}
};

/// A malformed command-line value: tools report it and exit with their
/// usage status (2) rather than as a simulation failure.
class UsageError : public SimError {
 public:
  using SimError::SimError;
};

[[noreturn]] inline void raise(const std::string& what) { throw SimError(what); }

}  // namespace indexmac

/// Check a condition that guards against API misuse; throws SimError.
#define IMAC_CHECK(cond, msg)                                            \
  do {                                                                   \
    if (!(cond)) ::indexmac::raise(std::string("check failed: ") + msg); \
  } while (0)

/// Internal invariant; failure indicates a library bug.
#define IMAC_ASSERT(cond, msg)                                                    \
  do {                                                                            \
    if (!(cond)) ::indexmac::raise(std::string("internal invariant: ") + (msg)); \
  } while (0)
