// Strict value parsing for command-line flag values (conf/options.cpp)
// and the machine enum names (conf/scenario.cpp). Every parser throws
// UsageError instead of exiting: main() catches it, prints the message,
// and exits 2 — the usage-error contract the strict-exit-2 tests pin.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "core/config.hpp"
#include "sim/invariants.hpp"

namespace bcsim::conf {

/// A malformed flag or config value: the CLI prints the message and
/// exits 2 (the usage-error status the test suite pins).
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Strict decimal parse: rejects empty strings, signs, non-digits,
/// trailing garbage ("4x"), and out-of-range values. `what` names the
/// flag or key for the diagnostic.
[[nodiscard]] std::uint64_t parse_u64(const std::string& what, const std::string& s);

// Closed-name-set parsers for the machine enums. Unknown names throw
// UsageError listing the alternatives.
[[nodiscard]] core::LockImpl parse_lock(const std::string& s);
[[nodiscard]] core::BarrierImpl parse_barrier(const std::string& s);
[[nodiscard]] sim::InvariantLevel parse_invariants(const std::string& s);
[[nodiscard]] core::NetworkKind parse_network(const std::string& s);
[[nodiscard]] core::DirOverflow parse_dir_overflow(const std::string& s);

}  // namespace bcsim::conf
