#pragma once
/// \file journal.hpp
/// \brief Crash-recoverable persistence: an append-only, CRC-checked binary
/// write-ahead journal of campaign events, plus atomically-written snapshot
/// files that bound replay cost.
///
/// The control-plane analogue of the climate restart files: the journal
/// records *what happened* (submissions, month completions, lease changes,
/// completions); the service re-derives every decision deterministically, so
/// recovery replays the journal through the live transition function and
/// verifies that the regenerated records byte-match the stored ones. A torn
/// or truncated tail (the moment of the crash) is detected by the length /
/// CRC framing and dropped — exactly the per-scenario month frontier of the
/// surviving prefix is recovered.
///
/// Wire format (host-endian; the journal is a local crash-recovery artifact,
/// not an interchange format — documented in docs/service.md):
///
///   journal  := header record*
///   header   := "OAGJ" u32 version=2 u64 base_seq u8 policy u8 heuristic
///               u32 max_active u64 grid
///   record   := u32 payload_len  u32 crc32(payload)  payload
///   payload  := u8 event_type  fields...        (see EventType)
///
///   snapshot := "OAGP" u32 version=1 u64 seq  u32 payload_len
///               u32 crc32(payload)  payload    (opaque service state)
///
/// Records are flushed per append, or per commit() under group commit (the
/// mode the service's CLI runs in: one batch per processed event); the
/// snapshot is written to a temporary file and renamed so a crash never
/// leaves a half-written snapshot behind.

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace oagrid::service {

/// CRC-32 (reflected, polynomial 0xEDB88320 — the zlib/PNG polynomial).
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t size) noexcept;

enum class EventType : std::uint8_t {
  kCampaignSubmitted = 1, ///< spec + submit time
  kCampaignRejected = 2,  ///< admission control refused (queue full)
  kCampaignAdmitted = 3,  ///< scenario-to-cluster assignment fixed
  kMonthCompleted = 4,    ///< one (scenario, month) finished on (cluster, group)
  kLeaseChanged = 5,      ///< a campaign's lease on a cluster re-sized
  kCampaignCompleted = 6, ///< final month done; leases released
};

[[nodiscard]] const char* to_string(EventType type) noexcept;

/// One journal record. A tagged union kept flat: only the fields of the
/// record's type are serialized (see journal.cpp / docs/service.md).
struct Event {
  EventType type = EventType::kCampaignSubmitted;
  std::uint32_t campaign = 0;
  Seconds time = 0.0;

  // kCampaignSubmitted
  std::string owner;
  double weight = 1.0;
  Count scenarios = 0;
  Count months = 0;

  // kCampaignAdmitted
  std::vector<ClusterId> assignment; ///< scenario -> cluster

  // kMonthCompleted
  ScenarioId scenario = 0;
  MonthIndex month = 0;
  int group = 0;

  // kMonthCompleted / kLeaseChanged
  ClusterId cluster = 0;
  ProcCount procs = 0; ///< kLeaseChanged: new lease size (0 = released)

  // kCampaignCompleted
  Seconds makespan = 0.0;

  [[nodiscard]] bool operator==(const Event& other) const;
};

/// Serialized record payload (without the length/CRC framing) — exposed so
/// recovery can compare regenerated events against stored bytes.
[[nodiscard]] std::string encode_event(const Event& event);
/// Inverse of encode_event; throws std::invalid_argument on malformed input.
[[nodiscard]] Event decode_event(const std::string& payload);

/// Configuration fingerprint stored in the journal header: replay is only
/// deterministic under the same scheduling configuration, on the same grid.
struct JournalConfig {
  std::uint8_t policy = 0;
  std::uint8_t heuristic = 0;
  std::uint32_t max_active = 0;
  /// FNV-1a over each cluster's R, minimum group, T[G] table and TP, in
  /// grid order: the service's plans hold for this grid only.
  std::uint64_t grid = 0;

  [[nodiscard]] bool operator==(const JournalConfig&) const = default;
};

/// Result of scanning a journal file.
struct JournalContents {
  bool exists = false;          ///< file was present
  std::uint64_t base_seq = 0;   ///< sequence number of the first record
  JournalConfig config;
  std::vector<Event> events;    ///< valid prefix, in append order
  bool torn_tail = false;       ///< trailing bytes dropped (torn/corrupt)
  std::uint64_t dropped_bytes = 0;
  std::uint64_t valid_bytes = 0; ///< header + valid prefix: file size - dropped

  [[nodiscard]] std::uint64_t end_seq() const noexcept {
    return base_seq + events.size();
  }
};

/// Reads and validates a journal. Missing file -> {exists = false}. A bad
/// header throws std::invalid_argument (that is corruption of a different
/// kind than a torn tail: nothing can be salvaged). Truncated or
/// CRC-corrupt records end the scan: everything from the first bad record
/// on is reported via torn_tail / dropped_bytes.
[[nodiscard]] JournalContents read_journal(const std::string& path);

/// Append-only journal writer. Opens fresh (truncating) with a header, or
/// re-opens an existing journal for appending after recovery validated it.
///
/// Two commit disciplines, producing byte-identical files:
///  * per-record (default) — every append() is framed, written and flushed
///    on its own: a crash loses at most the record being written;
///  * group commit (set_group_commit(true)) — append() frames the record
///    into an in-memory batch and commit() writes the whole batch with one
///    write + flush. The frames are simply concatenated in append order, so
///    the on-disk bytes are exactly what the per-record writer produces; a
///    crash loses the uncommitted batch (and possibly tears its first
///    record), which read_journal handles exactly like a torn record today.
class JournalWriter {
 public:
  /// Creates `path` (truncating any previous file) and writes the header.
  JournalWriter(const std::string& path, std::uint64_t base_seq,
                const JournalConfig& config);

  /// Re-opens an existing journal for appending after `contents`, which
  /// read_journal returned for it: anything beyond `contents.valid_bytes` —
  /// a torn tail — is truncated away first.
  static JournalWriter reopen(const std::string& path,
                              const JournalContents& contents);

  /// Selects the commit discipline. Turning group commit *off* commits any
  /// pending batch first, so no record silently changes durability class.
  void set_group_commit(bool on);

  /// Appends one record (length + CRC framing). Per-record mode writes and
  /// flushes immediately; group-commit mode buffers until commit().
  void append(const Event& event);

  /// Writes and flushes the pending batch (one write + one flush, however
  /// many records accumulated). Returns the number of records flushed
  /// (0 when nothing was pending). A no-op in per-record mode.
  std::size_t commit();

  /// Emulated SIGKILL: drops the pending batch as a real crash would drop
  /// an application-side buffer. The writer must not be used afterwards.
  void discard_pending() noexcept;

  /// Records appended but not yet committed to the file.
  [[nodiscard]] std::size_t pending_records() const noexcept {
    return pending_records_;
  }
  /// write+flush pairs issued over this writer's lifetime.
  [[nodiscard]] std::uint64_t flushes() const noexcept { return flushes_; }

  /// Sequence number of the next record to be appended (buffered records
  /// count: they are part of the in-memory history).
  [[nodiscard]] std::uint64_t seq() const noexcept { return seq_; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  JournalWriter() = default;

  std::string path_;
  std::ofstream out_;
  std::uint64_t seq_ = 0;
  bool group_commit_ = false;
  std::string pending_;
  std::size_t pending_records_ = 0;
  std::uint64_t flushes_ = 0;
};

/// Atomically replaces the snapshot at `path` (tmp + rename) with an opaque
/// state payload captured after `seq` journal records were applied.
void write_snapshot(const std::string& path, std::uint64_t seq,
                    const std::string& payload);

struct SnapshotContents {
  bool valid = false;       ///< present and integrity-checked
  std::uint64_t seq = 0;    ///< journal records folded into the payload
  std::string payload;
};

/// Reads a snapshot; {valid = false} when missing or corrupt (recovery then
/// falls back to a full journal replay).
[[nodiscard]] SnapshotContents read_snapshot(const std::string& path);

}  // namespace oagrid::service
