#include "revision/relation.h"

#include <atomic>
#include <bit>
#include <unordered_map>

#include "common/logging.h"
#include "common/mutex.h"

namespace wiclean {
namespace {

/// The process-wide table behind Relation. Names live in segments that never
/// move or shrink: segment k holds kFirstSegment << k names, so the id space
/// is covered by kSegments segments and a name is two loads away from its
/// id. Interning appends under the lock; lookups by id never lock.
class NameTable {
 public:
  NameTable() { Intern(""); }  // id 0, the default Relation

  uint32_t Intern(std::string_view name) WC_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    auto it = ids_.find(name);
    if (it != ids_.end()) return it->second;
    const uint32_t id = size_;
    WICLEAN_CHECK(id != UINT32_MAX);
    const auto [segment, offset] = Locate(id);
    std::string* names = segments_[segment];
    if (names == nullptr) {
      // Never freed: names stay valid for the process.
      names = new std::string[kFirstSegment << segment];  // lint:allow(raw-new)
      segments_[segment] = names;
    }
    names[offset].assign(name);
    ids_.emplace(names[offset], id);
    ++size_;
    return id;
  }

  /// The name of an id this table handed out. Whoever holds the id got it
  /// after its name was written, so the slot is safe to read unlocked.
  const std::string& Name(uint32_t id) const {
    const auto [segment, offset] = Locate(id);
    return segments_[segment].load()[offset];
  }

 private:
  static constexpr uint64_t kFirstSegment = 64;
  static constexpr int kSegments = 27;  // 64 * (2^27 - 1) > 2^32 ids

  struct Slot {
    int segment;
    uint64_t offset;
  };
  /// Segment k starts at id kFirstSegment * (2^k - 1).
  static Slot Locate(uint32_t id) {
    const uint64_t n = uint64_t{id} / kFirstSegment + 1;
    const int segment = std::bit_width(n) - 1;
    return {segment, id - kFirstSegment * ((uint64_t{1} << segment) - 1)};
  }

  Mutex mu_;
  /// Views into the segments, which never move.
  std::unordered_map<std::string_view, uint32_t> ids_ WC_GUARDED_BY(mu_);
  uint32_t size_ WC_GUARDED_BY(mu_) = 0;
  std::atomic<std::string*> segments_[kSegments] = {};
};

NameTable& Table() {
  // Intentional static-lifetime leak: threads may intern during exit.
  static NameTable* table = new NameTable();  // lint:allow(raw-new)
  return *table;
}

}  // namespace

Relation::Relation(std::string_view name) {
  // Per-thread memo of names this thread has interned, keyed by views into
  // the table, so a known name costs one hash lookup and no lock.
  thread_local std::unordered_map<std::string_view, uint32_t> known;
  auto it = known.find(name);
  if (it != known.end()) {
    id_ = it->second;
    return;
  }
  id_ = Table().Intern(name);
  known.emplace(Table().Name(id_), id_);
}

const std::string& Relation::name() const { return Table().Name(id_); }

}  // namespace wiclean
