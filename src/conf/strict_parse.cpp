#include "conf/strict_parse.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>

namespace bcsim::conf {

std::uint64_t parse_u64(const std::string& what, const std::string& s) {
  const bool looks_numeric =
      !s.empty() && std::isdigit(static_cast<unsigned char>(s[0])) != 0;
  if (looks_numeric) {
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (*end == '\0' && errno != ERANGE) return v;
  }
  throw UsageError(what + " expects a non-negative integer, got '" + s + "'");
}

core::LockImpl parse_lock(const std::string& s) {
  if (s == "cbl") return core::LockImpl::kCbl;
  if (s == "tts") return core::LockImpl::kTts;
  if (s == "tts-backoff") return core::LockImpl::kTtsBackoff;
  if (s == "ticket") return core::LockImpl::kTicket;
  if (s == "mcs") return core::LockImpl::kMcs;
  throw UsageError("unknown lock '" + s + "'");
}

core::BarrierImpl parse_barrier(const std::string& s) {
  if (s == "cbl") return core::BarrierImpl::kCbl;
  if (s == "central") return core::BarrierImpl::kCentral;
  if (s == "tree") return core::BarrierImpl::kTree;
  throw UsageError("unknown barrier '" + s + "'");
}

sim::InvariantLevel parse_invariants(const std::string& s) {
  if (s == "off") return sim::InvariantLevel::kOff;
  if (s == "quiesce") return sim::InvariantLevel::kQuiesce;
  if (s == "full") return sim::InvariantLevel::kFull;
  throw UsageError("unknown invariant level '" + s + "'");
}

core::NetworkKind parse_network(const std::string& s) {
  if (s == "omega") return core::NetworkKind::kOmega;
  if (s == "crossbar") return core::NetworkKind::kCrossbar;
  if (s == "mesh") return core::NetworkKind::kMesh;
  if (s == "ideal") return core::NetworkKind::kIdeal;
  throw UsageError("unknown network '" + s + "'");
}

core::DirOverflow parse_dir_overflow(const std::string& s) {
  if (s == "broadcast") return core::DirOverflow::kBroadcast;
  if (s == "coarse") return core::DirOverflow::kCoarse;
  throw UsageError("unknown --dir-overflow '" + s + "' (broadcast, coarse)");
}

}  // namespace bcsim::conf
