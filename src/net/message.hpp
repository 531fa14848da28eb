// Network message format shared by all coherence/synchronization protocols.
//
// A single message struct (rather than a class hierarchy) keeps the network
// layer simple and, for blocks of up to BlockData::kInlineWords words,
// allocation-free on the hot path. The `type` field selects which of the
// optional fields are meaningful; the protocol layers document field usage
// per type. The network only looks at src/dst/unit and the size class
// derived from `type`/payload.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string_view>
#include <vector>

#include "sim/types.hpp"

namespace bcsim::net {

/// Upper bound on cache line length in words (config may use less). Per-word
/// dirty masks are 32-bit, so this cannot grow past 32.
inline constexpr std::size_t kMaxBlockWords = 32;

/// Mask with one bit per word of a `words`-word block (1..kMaxBlockWords):
/// the dirty mask of a whole-block writeback. `(1u << 32) - 1` is undefined
/// behaviour (x86 masks the shift to 0, which yields an empty mask), hence
/// the explicit full-width case.
[[nodiscard]] constexpr std::uint32_t full_block_mask(std::uint32_t words) noexcept {
  return words >= 32 ? ~std::uint32_t{0} : (std::uint32_t{1} << words) - 1u;
}

/// Block payload sized to the block. It reads as a zero-initialised
/// kMaxBlockWords-word array at every index, but keeps only its first
/// kInlineWords words in place — the paper's Table 4 block. The first write
/// past them moves the payload into one zeroed kMaxBlockWords-word heap cell
/// (the inline-or-heap idiom of sim::EventFn). Storing all 32 words in place
/// would make every cache frame 320 B and every Message 360 B, nearly all of
/// it zeros.
class BlockData {
 public:
  static constexpr std::size_t kInlineWords = 4;

  std::uint8_t count = 0;  ///< number of valid words (0 = no payload)

  BlockData() noexcept = default;
  /// A `words.size()`-word payload holding `words`.
  BlockData(std::initializer_list<Word> words)
      : count(static_cast<std::uint8_t>(words.size())) {
    assert(words.size() <= kMaxBlockWords);
    std::size_t i = 0;
    for (const Word w : words) (*this)[i++] = w;
  }
  BlockData(const BlockData& o) : count(o.count) { copy_words(o); }
  /// A moved-from payload stays valid: unchanged when inline, empty (count
  /// 0, all words 0) when its heap cell was taken.
  BlockData(BlockData&& o) noexcept : count(o.count) { take_words(o); }
  BlockData& operator=(const BlockData& o) {
    if (this != &o) {
      count = o.count;
      copy_words(o);
    }
    return *this;
  }
  BlockData& operator=(BlockData&& o) noexcept {
    if (this != &o) {
      count = o.count;
      take_words(o);
    }
    return *this;
  }
  ~BlockData() { free_cell(); }

  [[nodiscard]] bool empty() const noexcept { return count == 0; }
  /// True once a write went past the inline words.
  [[nodiscard]] bool spilled() const noexcept { return cap_ != kInlineWords; }

  /// Word `i` (< kMaxBlockWords); words never written read as 0.
  [[nodiscard]] Word operator[](std::size_t i) const noexcept {
    assert(i < kMaxBlockWords);
    return i < cap_ ? words_[i] : Word{0};
  }
  /// Writable word `i` (< kMaxBlockWords); spills on the first index past
  /// the inline words.
  Word& operator[](std::size_t i) {
    assert(i < kMaxBlockWords);
    if (i >= cap_) [[unlikely]] spill();
    return words_[i];
  }

 private:
  void spill() {
    Word* cell = new Word[kMaxBlockWords]();
    std::copy_n(inline_, kInlineWords, cell);
    words_ = cell;
    cap_ = kMaxBlockWords;
  }
  void free_cell() noexcept {
    if (spilled()) {
      delete[] words_;
      words_ = inline_;
      cap_ = kInlineWords;
    }
  }
  /// Copies o's words, reusing this payload's heap cell when both spilled.
  void copy_words(const BlockData& o) {
    if (!o.spilled()) {
      free_cell();
      std::copy_n(o.inline_, kInlineWords, inline_);
      return;
    }
    if (!spilled()) {
      words_ = new Word[kMaxBlockWords];
      cap_ = kMaxBlockWords;
    }
    std::copy_n(o.words_, kMaxBlockWords, words_);
  }
  /// Copies inline words; takes o's heap cell and empties o.
  void take_words(BlockData& o) noexcept {
    free_cell();
    if (!o.spilled()) {
      std::copy_n(o.inline_, kInlineWords, inline_);
      return;
    }
    words_ = o.words_;
    cap_ = kMaxBlockWords;
    o.words_ = o.inline_;
    o.cap_ = kInlineWords;
    o.count = 0;
    std::fill_n(o.inline_, kInlineWords, Word{0});
  }

  // Declared right after `count`, so the two bytes share one word.
  std::uint8_t cap_ = kInlineWords;  ///< words addressable through words_
  Word* words_ = inline_;            ///< inline_, or the heap cell once spilled
  Word inline_[kInlineWords] = {};
};
static_assert(sizeof(BlockData) <= 48, "BlockData: count and cap_ share a word");

/// Which unit at the destination node consumes the message. Memory modules
/// (and their directory slice) are co-located with processor nodes, per the
/// paper's distributed-memory configuration.
enum class Unit : std::uint8_t { kCache, kMemory };

/// Every message the machine can carry. Grouped by protocol.
enum class MsgType : std::uint8_t {
  // --- WBI (write-back invalidate, directory MSI baseline) ---
  kGetS,         ///< read miss: request shared copy (cache -> dir)
  kGetX,         ///< write miss/upgrade: request exclusive copy (cache -> dir)
  kDataS,        ///< data reply, shared (dir -> cache)
  kDataX,        ///< data reply, exclusive; value = #inv acks to expect (dir -> cache)
  kInv,          ///< invalidate copy (dir -> cache)
  kInvAck,       ///< invalidation done (cache -> requester cache)
  kRecall,       ///< fetch modified line back (dir -> owner cache)
  kRecallAck,    ///< modified data returned (owner cache -> dir)
  kPutM,         ///< write back dirty line on replacement (cache -> dir)
  kPutS,         ///< notify replacement of shared line (cache -> dir)
  kPutAck,       ///< replacement acknowledged (dir -> cache)
  kRmw,          ///< atomic read-modify-write at memory (cache -> dir)
  kRmwAck,       ///< RMW result; value = old word (dir -> cache)

  // --- reader-initiated coherence (read-update) ---
  kReadGlobal,     ///< uncached read of a word from memory (cache -> dir)
  kReadGlobalAck,  ///< word value reply (dir -> cache)
  kWriteGlobal,    ///< global write of a word (cache -> dir); txn matches ack
  kWriteGlobalAck, ///< write applied at memory (dir -> cache)
  kReadUpdate,     ///< fetch block + subscribe to future updates (cache -> dir)
  kReadUpdateData, ///< block reply; who = old list head to link as next (dir -> cache)
  kRuLinkPrev,     ///< tell old head its new prev (dir -> cache)
  kRuUpdate,       ///< updated block propagating down the subscriber chain
  kResetUpdate,    ///< unsubscribe (cache -> dir)
  kRuUnlink,       ///< dir command: splice your neighbor pointers (dir -> cache)
  kRuUnlinkAck,    ///< unlink bookkeeping done (cache -> dir)

  // --- CBL (cache-based locking) ---
  kLockReq,        ///< read- or write-lock request; aux = mode (cache -> dir)
  kLockGrant,      ///< lock granted with data (dir -> cache, uncontended path)
  kLockFwd,        ///< dir -> current tail: node `who` is your new successor
  kLockShareGrant, ///< tail -> requester: share the read lock (with data)
  kLockWait,       ///< tail -> requester: enqueued behind me, wait
  kLockHandoff,    ///< releasing holder -> successor: lock + data are yours
  kUnlockNotify,   ///< holder released; dir bookkeeping (cache -> dir)
  kUnlockQuery,    ///< released with no known successor: am I the tail? (cache -> dir)
  kUnlockEmpty,    ///< dir reply: queue empty, write line back (dir -> cache)
  kUnlockWaitSucc, ///< dir reply: successor announce in flight, hold on (dir -> cache)
  kHandoffCmd,     ///< dir -> last reader holder: hand off to node `who`
  kLockWriteback,  ///< line data returned to memory after final unlock (cache -> dir)
  kLockNeighbor,   ///< dir command: update prev/next mirror after reader unlink

  // --- barrier support (memory-side counter, used by the CBL barrier) ---
  kBarArrive,      ///< fetch-increment of barrier counter (cache -> dir)
  kBarArriveAck,   ///< value = arrival index (dir -> cache)
  kBarRelease,     ///< barrier released, propagated down subscriber chain
};

/// Number of MsgType values (kBarRelease is last); sized per-type tables
/// (the network's counter handles, trace name maps) index by MsgType.
inline constexpr std::size_t kMsgTypeCount = static_cast<std::size_t>(MsgType::kBarRelease) + 1;

[[nodiscard]] constexpr std::string_view to_string(MsgType t) noexcept {
  switch (t) {
    case MsgType::kGetS: return "GetS";
    case MsgType::kGetX: return "GetX";
    case MsgType::kDataS: return "DataS";
    case MsgType::kDataX: return "DataX";
    case MsgType::kInv: return "Inv";
    case MsgType::kInvAck: return "InvAck";
    case MsgType::kRecall: return "Recall";
    case MsgType::kRecallAck: return "RecallAck";
    case MsgType::kPutM: return "PutM";
    case MsgType::kPutS: return "PutS";
    case MsgType::kPutAck: return "PutAck";
    case MsgType::kRmw: return "Rmw";
    case MsgType::kRmwAck: return "RmwAck";
    case MsgType::kReadGlobal: return "ReadGlobal";
    case MsgType::kReadGlobalAck: return "ReadGlobalAck";
    case MsgType::kWriteGlobal: return "WriteGlobal";
    case MsgType::kWriteGlobalAck: return "WriteGlobalAck";
    case MsgType::kReadUpdate: return "ReadUpdate";
    case MsgType::kReadUpdateData: return "ReadUpdateData";
    case MsgType::kRuLinkPrev: return "RuLinkPrev";
    case MsgType::kRuUpdate: return "RuUpdate";
    case MsgType::kResetUpdate: return "ResetUpdate";
    case MsgType::kRuUnlink: return "RuUnlink";
    case MsgType::kRuUnlinkAck: return "RuUnlinkAck";
    case MsgType::kLockReq: return "LockReq";
    case MsgType::kLockGrant: return "LockGrant";
    case MsgType::kLockFwd: return "LockFwd";
    case MsgType::kLockShareGrant: return "LockShareGrant";
    case MsgType::kLockWait: return "LockWait";
    case MsgType::kLockHandoff: return "LockHandoff";
    case MsgType::kUnlockNotify: return "UnlockNotify";
    case MsgType::kUnlockQuery: return "UnlockQuery";
    case MsgType::kUnlockEmpty: return "UnlockEmpty";
    case MsgType::kUnlockWaitSucc: return "UnlockWaitSucc";
    case MsgType::kHandoffCmd: return "HandoffCmd";
    case MsgType::kLockWriteback: return "LockWriteback";
    case MsgType::kLockNeighbor: return "LockNeighbor";
    case MsgType::kBarArrive: return "BarArrive";
    case MsgType::kBarArriveAck: return "BarArriveAck";
    case MsgType::kBarRelease: return "BarRelease";
  }
  return "?";
}

/// Message size class; determines flit count / service time at each switch
/// port. Mirrors the paper's cost constants: C_R (control), C_W (one word),
/// C_B (block transfer), C_I (invalidation == control).
enum class SizeClass : std::uint8_t { kControl, kWord, kBlock };

/// Lock mode carried in `aux` for lock messages.
enum class LockMode : std::uint8_t { kRead = 0, kWrite = 1 };

/// Atomic op carried in `aux` for kRmw. For kCompareSwap, `value` is the
/// expected word and `value2` the desired one; the old word is returned.
enum class RmwOp : std::uint8_t { kTestAndSet = 0, kFetchAdd = 1, kSwap = 2, kCompareSwap = 3 };

struct Message {
  NodeId src = kNoNode;
  NodeId dst = kNoNode;
  Unit unit = Unit::kMemory;   ///< which unit at dst consumes this
  MsgType type = MsgType::kGetS;
  BlockId block = 0;           ///< block this message concerns
  Addr addr = 0;               ///< word address for word-granularity ops
  Word value = 0;              ///< word payload / counts / RMW operand
  Word value2 = 0;             ///< second RMW operand (kCompareSwap desired)
  NodeId who = kNoNode;        ///< subject node (successor, requester, ...)
  std::uint8_t aux = 0;        ///< LockMode / RmwOp / flags
  std::uint32_t dirty_mask = 0;///< per-word dirty bits for partial writebacks
  std::uint64_t txn = 0;       ///< transaction id for ack matching
  BlockData data;              ///< block payload where applicable

  /// Remaining hops for chain-propagated messages (kRuUpdate, kBarRelease):
  /// the receiving cache pops the front and forwards to the new front. The
  /// chain is snapshotted from the directory's list when propagation
  /// starts, which is exactly the paper's semantics ("when the main memory
  /// is updated, the updated block is transferred using this linked-list
  /// structure").
  std::vector<NodeId> chain;
};

// Every send moves a Message by value through send -> route_and_deliver ->
// schedule_delivery into a MessagePool slot, so keep it small (144 B with
// the 4-word inline payload).
static_assert(sizeof(Message) <= 160, "Message grew: the by-value send path copies it");

/// True for messages generated by synchronization (locks, barriers, RMW)
/// as opposed to ordinary data coherence. The paper's opening observation
/// — "synchronization accesses cause much greater network contention than
/// accesses to normal shared data" — is measured with this split.
[[nodiscard]] constexpr bool is_sync_message(MsgType t) noexcept {
  switch (t) {
    case MsgType::kRmw:
    case MsgType::kRmwAck:
    case MsgType::kLockReq:
    case MsgType::kLockGrant:
    case MsgType::kLockFwd:
    case MsgType::kLockShareGrant:
    case MsgType::kLockWait:
    case MsgType::kLockHandoff:
    case MsgType::kUnlockNotify:
    case MsgType::kUnlockQuery:
    case MsgType::kUnlockEmpty:
    case MsgType::kUnlockWaitSucc:
    case MsgType::kHandoffCmd:
    case MsgType::kLockWriteback:
    case MsgType::kLockNeighbor:
    case MsgType::kBarArrive:
    case MsgType::kBarArriveAck:
    case MsgType::kBarRelease:
      return true;
    default:
      return false;
  }
}

/// Size class of a message, from its type and payload.
[[nodiscard]] constexpr SizeClass size_class(const Message& m) noexcept {
  if (m.data.count > 0) return SizeClass::kBlock;
  switch (m.type) {
    case MsgType::kWriteGlobal:
    case MsgType::kReadGlobalAck:
    case MsgType::kRmw:
    case MsgType::kRmwAck:
    case MsgType::kBarArriveAck:
      return SizeClass::kWord;
    default:
      return SizeClass::kControl;
  }
}

}  // namespace bcsim::net
