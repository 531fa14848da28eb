// Cold paths of the trace recorder: name resolution and the three export
// formats (Chrome trace-event JSON, CSV, human-readable tail dump). The
// upper-layer includes are confined to this translation unit; the header
// stays dependency-free so sim::Simulator can own the recorder by value.
#include "sim/trace_recorder.hpp"

#include <ostream>
#include <string>

#include "cache/cache_line.hpp"
#include "mem/directory_entry.hpp"
#include "net/message.hpp"

namespace bcsim::sim {

namespace {

const char* kind_name(TraceKind k) {
  switch (k) {
    case TraceKind::kMsgSend: return "msg-send";
    case TraceKind::kMsgDeliver: return "msg-deliver";
    case TraceKind::kCacheState: return "cache-state";
    case TraceKind::kDirState: return "dir-state";
    case TraceKind::kSyncOp: return "sync";
    case TraceKind::kWbEnter: return "wb-enter";
    case TraceKind::kWbRetire: return "wb-retire";
    case TraceKind::kWbFlushReq: return "wb-flush-req";
    case TraceKind::kWbFlushDone: return "wb-flush-done";
  }
  return "?";
}

const char* msi_name(std::uint8_t s) {
  switch (static_cast<cache::MsiState>(s)) {
    case cache::MsiState::kInvalid: return "I";
    case cache::MsiState::kShared: return "S";
    case cache::MsiState::kModified: return "M";
  }
  return "?";
}

const char* lock_state_name(std::uint8_t s) {
  switch (static_cast<cache::LockState>(s)) {
    case cache::LockState::kNone: return "None";
    case cache::LockState::kWaitRead: return "WaitRead";
    case cache::LockState::kWaitWrite: return "WaitWrite";
    case cache::LockState::kHeldRead: return "HeldRead";
    case cache::LockState::kHeldWrite: return "HeldWrite";
    case cache::LockState::kDraining: return "Draining";
    case cache::LockState::kReleasing: return "Releasing";
    case cache::LockState::kQuerying: return "Querying";
  }
  return "?";
}

const char* dir_state_name(std::uint8_t s) {
  switch (static_cast<mem::DirState>(s)) {
    case mem::DirState::kUncached: return "Uncached";
    case mem::DirState::kShared: return "Shared";
    case mem::DirState::kModified: return "Modified";
    case mem::DirState::kBusyRecall: return "BusyRecall";
    case mem::DirState::kBusyRmw: return "BusyRmw";
  }
  return "?";
}

const char* sync_op_name(std::uint8_t s) {
  switch (static_cast<SyncTraceOp>(s)) {
    case SyncTraceOp::kLockReq: return "lock-req";
    case SyncTraceOp::kLockGrant: return "lock-grant";
    case SyncTraceOp::kUnlock: return "unlock";
    case SyncTraceOp::kBarrierArrive: return "barrier-arrive";
    case SyncTraceOp::kBarrierRelease: return "barrier-release";
    case SyncTraceOp::kRmw: return "rmw";
  }
  return "?";
}

/// Short display name of a record (the Chrome event name / CSV `name`).
std::string record_name(const TraceRecord& r) {
  switch (r.kind) {
    case TraceKind::kMsgSend:
    case TraceKind::kMsgDeliver:
      return std::string(net::to_string(static_cast<net::MsgType>(r.code)));
    case TraceKind::kCacheState:
      switch (static_cast<CacheTraceOp>(r.code)) {
        case CacheTraceOp::kMsi:
          return std::string("msi:") + msi_name(r.detail) + "->" + msi_name(r.detail2);
        case CacheTraceOp::kLock:
          return std::string("lock:") + lock_state_name(r.detail) + "->" +
                 lock_state_name(r.detail2);
        case CacheTraceOp::kUpdateBit:
          return r.detail2 != 0 ? "subscribe" : "unsubscribe";
        case CacheTraceOp::kUpdateApplied:
          return "update-applied";
      }
      return "?";
    case TraceKind::kDirState:
      return std::string("dir:") + dir_state_name(r.detail) + "->" + dir_state_name(r.detail2);
    case TraceKind::kSyncOp:
      return sync_op_name(r.code);
    case TraceKind::kWbEnter:
    case TraceKind::kWbRetire:
    case TraceKind::kWbFlushReq:
    case TraceKind::kWbFlushDone:
      return kind_name(r.kind);
  }
  return "?";
}

/// Chrome thread id: one track per unit within a node's process.
enum : int { kTidSync = 0, kTidCache = 1, kTidWb = 2, kTidDir = 3, kTidNet = 4 };

int tid_of(const TraceRecord& r) {
  switch (r.kind) {
    case TraceKind::kMsgSend:
    case TraceKind::kMsgDeliver: return kTidNet;
    case TraceKind::kCacheState: return kTidCache;
    case TraceKind::kDirState: return kTidDir;
    case TraceKind::kSyncOp: return kTidSync;
    case TraceKind::kWbEnter:
    case TraceKind::kWbRetire:
    case TraceKind::kWbFlushReq:
    case TraceKind::kWbFlushDone: return kTidWb;
  }
  return kTidSync;
}

const char* tid_name(int tid) {
  switch (tid) {
    case kTidSync: return "proc/sync";
    case kTidCache: return "cache";
    case kTidWb: return "write-buffer";
    case kTidDir: return "directory";
    case kTidNet: return "network";
  }
  return "?";
}

/// Process id: the node whose track the record lands on. Deliveries are
/// drawn at the receiving node, sends at the sender.
NodeId pid_of(const TraceRecord& r) {
  if (r.kind == TraceKind::kMsgDeliver && r.peer != kNoNode) return r.peer;
  return r.node;
}

}  // namespace

void TraceRecorder::write_chrome_json(std::ostream& os) const {
  os << "{\"traceEvents\":[";
  bool first = true;
  // Metadata: name every (process, thread) pair that carries events, so
  // the Chrome/Perfetto track labels read "node 3 / directory" instead of
  // bare numbers.
  std::vector<std::uint8_t> seen;  // (pid * 5 + tid) bitmap, grown on demand
  for_each([&](const TraceRecord& r) {
    const NodeId pid = pid_of(r);
    if (pid == kNoNode) return;
    const std::size_t key = static_cast<std::size_t>(pid) * 5 + static_cast<std::size_t>(tid_of(r));
    if (key >= seen.size()) seen.resize(key + 1, 0);
    if (seen[key]) return;
    seen[key] = 1;
    if (!first) os << ',';
    first = false;
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
       << ",\"tid\":0,\"args\":{\"name\":\"node " << pid << "\"}},"
       << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << pid
       << ",\"tid\":" << tid_of(r) << ",\"args\":{\"name\":\"" << tid_name(tid_of(r))
       << "\"}}";
  });
  for_each([&](const TraceRecord& r) {
    const NodeId pid = pid_of(r);
    if (pid == kNoNode) return;
    if (!first) os << ',';
    first = false;
    os << "{\"name\":\"" << record_name(r) << "\",\"ph\":\"X\",\"ts\":" << r.tick
       << ",\"dur\":1,\"pid\":" << pid << ",\"tid\":" << tid_of(r) << ",\"args\":{"
       << "\"kind\":\"" << kind_name(r.kind) << "\",\"block\":" << r.block;
    if (r.node != kNoNode) os << ",\"node\":" << r.node;
    if (r.peer != kNoNode) os << ",\"peer\":" << r.peer;
    os << ",\"value\":" << r.value << "}}";
  });
  os << "],\"displayTimeUnit\":\"ns\",\"metadata\":{\"recorded\":" << recorded_
     << ",\"dropped\":" << dropped() << "}}";
}

void TraceRecorder::write_csv(std::ostream& os) const {
  os << "tick,kind,name,node,peer,block,detail,detail2,value\n";
  for_each([&](const TraceRecord& r) {
    os << r.tick << ',' << kind_name(r.kind) << ',' << record_name(r) << ',';
    if (r.node != kNoNode) os << r.node;
    os << ',';
    if (r.peer != kNoNode) os << r.peer;
    os << ',' << r.block << ',' << static_cast<unsigned>(r.detail) << ','
       << static_cast<unsigned>(r.detail2) << ',' << r.value << '\n';
  });
}

void TraceRecorder::dump_tail(std::ostream& os, std::size_t n) const {
  const std::size_t have = size();
  const std::size_t skip = have > n ? have - n : 0;
  os << "trace tail (" << (have - skip) << " of " << recorded_ << " recorded";
  if (dropped() != 0) os << ", " << dropped() << " dropped";
  os << "):\n";
  std::size_t i = 0;
  for_each([&](const TraceRecord& r) {
    if (i++ < skip) return;
    os << "  [" << r.tick << "] " << kind_name(r.kind) << ' ' << record_name(r);
    if (r.kind == TraceKind::kMsgSend || r.kind == TraceKind::kMsgDeliver) {
      os << ' ' << r.node << "->" << r.peer << (r.detail != 0 ? "(mem)" : "(cache)");
    } else if (r.node != kNoNode) {
      os << " node=" << r.node;
    }
    os << " block=" << r.block;
    if (r.value != 0) os << " value=" << r.value;
    os << '\n';
  });
}

}  // namespace bcsim::sim
