#include "service/journal.hpp"

#include <array>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "service/wire.hpp"

namespace oagrid::service {
namespace {

using wire::Cursor;
using wire::put;
using wire::put_string;

constexpr char kJournalMagic[4] = {'O', 'A', 'G', 'J'};
constexpr char kSnapshotMagic[4] = {'O', 'A', 'G', 'P'};
/// Version 2 added the grid fingerprint to the journal header; the
/// snapshot format is unchanged since version 1.
constexpr std::uint32_t kJournalVersion = 2;
constexpr std::uint32_t kSnapshotVersion = 1;

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

/// Slice-by-8 tables: tables[0] is the bytewise CRC-32 table, and
/// tables[k][i] is the CRC of byte i followed by k zero bytes.
CrcTables make_crc_tables() {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit)
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < tables.size(); ++k)
    for (std::size_t i = 0; i < 256; ++i)
      tables[k][i] = (tables[k - 1][i] >> 8) ^
                     tables[0][tables[k - 1][i] & 0xFFu];
  return tables;
}

/// Four bytes as a little-endian word, whatever the host's byte order.
std::uint32_t load_le32(const unsigned char* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

/// Reads the framed record at the stream position, `available` bytes
/// before the end of the file. Returns false (leaving `payload` empty) on a
/// clean end-of-file right at the frame boundary; throws on a torn or
/// corrupt record — a length running past the end of the file included,
/// before anything is allocated for it.
bool read_record(std::istream& in, std::string& payload,
                 std::uint64_t available) {
  std::uint32_t len = 0;
  in.read(reinterpret_cast<char*>(&len), sizeof len);
  if (in.gcount() == 0) return false;  // clean EOF
  if (!in) throw std::invalid_argument("oagrid: torn journal record header");
  std::uint32_t crc = 0;
  in.read(reinterpret_cast<char*>(&crc), sizeof crc);
  if (!in) throw std::invalid_argument("oagrid: torn journal record header");
  if (len > available - sizeof len - sizeof crc)
    throw std::invalid_argument("oagrid: torn journal record payload");
  payload.resize(len);
  in.read(payload.data(), static_cast<std::streamsize>(len));
  if (!in) throw std::invalid_argument("oagrid: torn journal record payload");
  if (crc32(payload.data(), payload.size()) != crc)
    throw std::invalid_argument("oagrid: journal record CRC mismatch");
  return true;
}

void append_framed(std::ostream& out, const std::string& payload) {
  const auto len = static_cast<std::uint32_t>(payload.size());
  const std::uint32_t crc = crc32(payload.data(), payload.size());
  out.write(reinterpret_cast<const char*>(&len), sizeof len);
  out.write(reinterpret_cast<const char*>(&crc), sizeof crc);
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size) noexcept {
  static const CrcTables t = make_crc_tables();
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t c = 0xFFFFFFFFu;
  for (; size >= 8; bytes += 8, size -= 8) {
    const std::uint32_t lo = c ^ load_le32(bytes);
    const std::uint32_t hi = load_le32(bytes + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
        t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++bytes, --size)
    c = t[0][(c ^ *bytes) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

const char* to_string(EventType type) noexcept {
  switch (type) {
    case EventType::kCampaignSubmitted: return "submitted";
    case EventType::kCampaignRejected: return "rejected";
    case EventType::kCampaignAdmitted: return "admitted";
    case EventType::kMonthCompleted: return "month-completed";
    case EventType::kLeaseChanged: return "lease-changed";
    case EventType::kCampaignCompleted: return "completed";
  }
  return "?";
}

bool Event::operator==(const Event& other) const {
  // Two events are equal iff their serialized forms are — only the fields
  // of the record's type participate.
  return encode_event(*this) == encode_event(other);
}

std::string encode_event(const Event& event) {
  std::string out;
  put(out, static_cast<std::uint8_t>(event.type));
  put(out, event.campaign);
  put(out, event.time);
  switch (event.type) {
    case EventType::kCampaignSubmitted:
      put_string(out, event.owner);
      put(out, event.weight);
      put(out, event.scenarios);
      put(out, event.months);
      break;
    case EventType::kCampaignRejected:
      break;
    case EventType::kCampaignAdmitted:
      put(out, static_cast<std::uint32_t>(event.assignment.size()));
      for (const ClusterId c : event.assignment) put(out, c);
      break;
    case EventType::kMonthCompleted:
      put(out, event.scenario);
      put(out, event.month);
      put(out, event.cluster);
      put(out, event.group);
      break;
    case EventType::kLeaseChanged:
      put(out, event.cluster);
      put(out, event.procs);
      break;
    case EventType::kCampaignCompleted:
      put(out, event.makespan);
      break;
  }
  return out;
}

Event decode_event(const std::string& payload) {
  Cursor in(payload);
  Event event;
  const auto type = in.get<std::uint8_t>();
  if (type < 1 || type > 6)
    throw std::invalid_argument("oagrid: unknown journal event type " +
                                std::to_string(type));
  event.type = static_cast<EventType>(type);
  event.campaign = in.get<std::uint32_t>();
  event.time = in.get<Seconds>();
  switch (event.type) {
    case EventType::kCampaignSubmitted:
      event.owner = in.get_string();
      event.weight = in.get<double>();
      event.scenarios = in.get<Count>();
      event.months = in.get<Count>();
      break;
    case EventType::kCampaignRejected:
      break;
    case EventType::kCampaignAdmitted: {
      const auto n = in.get_count(sizeof(ClusterId));
      event.assignment.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i)
        event.assignment.push_back(in.get<ClusterId>());
      break;
    }
    case EventType::kMonthCompleted:
      event.scenario = in.get<ScenarioId>();
      event.month = in.get<MonthIndex>();
      event.cluster = in.get<ClusterId>();
      event.group = in.get<int>();
      break;
    case EventType::kLeaseChanged:
      event.cluster = in.get<ClusterId>();
      event.procs = in.get<ProcCount>();
      break;
    case EventType::kCampaignCompleted:
      event.makespan = in.get<Seconds>();
      break;
  }
  if (!in.exhausted())
    throw std::invalid_argument("oagrid: trailing bytes in journal record");
  return event;
}

namespace {

std::string encode_header(std::uint64_t base_seq, const JournalConfig& config) {
  std::string out(kJournalMagic, sizeof kJournalMagic);
  put(out, kJournalVersion);
  put(out, base_seq);
  put(out, config.policy);
  put(out, config.heuristic);
  put(out, config.max_active);
  put(out, config.grid);
  return out;
}

/// Magic and version, read first: the rest of the header depends on the
/// version.
constexpr std::size_t kHeaderPrefixSize =
    sizeof kJournalMagic + sizeof(std::uint32_t);
constexpr std::size_t kHeaderSize =
    kHeaderPrefixSize + sizeof(std::uint64_t) + 2 * sizeof(std::uint8_t) +
    sizeof(std::uint32_t) + sizeof(std::uint64_t);

}  // namespace

JournalContents read_journal(const std::string& path) {
  JournalContents contents;
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return contents;
  contents.exists = true;
  const auto file_size = in.tellg();
  in.seekg(0);

  std::string header(kHeaderSize, '\0');
  in.read(header.data(), static_cast<std::streamsize>(kHeaderPrefixSize));
  if (!in || std::memcmp(header.data(), kJournalMagic, sizeof kJournalMagic) != 0)
    throw std::invalid_argument("oagrid: not a journal file (bad magic): " +
                                path);
  Cursor cursor(header);
  cursor.get<std::uint32_t>();  // magic (already checked byte-wise)
  const auto version = cursor.get<std::uint32_t>();
  if (version != kJournalVersion)
    throw std::invalid_argument("oagrid: unsupported journal version " +
                                std::to_string(version));
  in.read(header.data() + kHeaderPrefixSize,
          static_cast<std::streamsize>(kHeaderSize - kHeaderPrefixSize));
  if (!in)
    throw std::invalid_argument("oagrid: truncated journal header: " + path);
  contents.base_seq = cursor.get<std::uint64_t>();
  contents.config.policy = cursor.get<std::uint8_t>();
  contents.config.heuristic = cursor.get<std::uint8_t>();
  contents.config.max_active = cursor.get<std::uint32_t>();
  contents.config.grid = cursor.get<std::uint64_t>();

  const auto size = static_cast<std::uint64_t>(file_size);
  std::string payload;
  for (;;) {
    contents.valid_bytes = static_cast<std::uint64_t>(in.tellg());
    try {
      if (!read_record(in, payload, size - contents.valid_bytes)) break;
      contents.events.push_back(decode_event(payload));
    } catch (const std::invalid_argument&) {
      // Torn or corrupt record: the valid prefix ends here — WAL semantics.
      contents.torn_tail = true;
      contents.dropped_bytes = size - contents.valid_bytes;
      break;
    }
  }
  return contents;
}

JournalWriter::JournalWriter(const std::string& path, std::uint64_t base_seq,
                             const JournalConfig& config) {
  path_ = path;
  out_.open(path, std::ios::binary | std::ios::trunc);
  if (!out_)
    throw std::invalid_argument("oagrid: cannot create journal " + path);
  const std::string header = encode_header(base_seq, config);
  out_.write(header.data(), static_cast<std::streamsize>(header.size()));
  out_.flush();
  if (!out_)
    throw std::runtime_error("oagrid: journal header write failed: " + path);
  seq_ = base_seq;
}

JournalWriter JournalWriter::reopen(const std::string& path,
                                    const JournalContents& contents) {
  // Cut any torn tail off, then append right after the validated prefix.
  std::filesystem::resize_file(path, contents.valid_bytes);
  JournalWriter writer;
  writer.path_ = path;
  writer.out_.open(path, std::ios::binary | std::ios::in | std::ios::out);
  if (!writer.out_)
    throw std::invalid_argument("oagrid: cannot reopen journal " + path);
  writer.out_.seekp(static_cast<std::streamoff>(contents.valid_bytes));
  writer.seq_ = contents.end_seq();
  return writer;
}

void JournalWriter::set_group_commit(bool on) {
  if (!on) (void)commit();
  group_commit_ = on;
}

void JournalWriter::append(const Event& event) {
  const std::string payload = encode_event(event);
  const auto len = static_cast<std::uint32_t>(payload.size());
  const std::uint32_t crc = crc32(payload.data(), payload.size());
  pending_.append(reinterpret_cast<const char*>(&len), sizeof len);
  pending_.append(reinterpret_cast<const char*>(&crc), sizeof crc);
  pending_.append(payload);
  ++pending_records_;
  ++seq_;
  if (!group_commit_) (void)commit();
}

std::size_t JournalWriter::commit() {
  if (pending_records_ == 0) return 0;
  out_.write(pending_.data(), static_cast<std::streamsize>(pending_.size()));
  out_.flush();
  if (!out_)
    throw std::runtime_error("oagrid: journal append failed: " + path_);
  const std::size_t committed = pending_records_;
  pending_.clear();
  pending_records_ = 0;
  ++flushes_;
  return committed;
}

void JournalWriter::discard_pending() noexcept {
  seq_ -= pending_records_;
  pending_.clear();
  pending_records_ = 0;
}

void write_snapshot(const std::string& path, std::uint64_t seq,
                    const std::string& payload) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out)
      throw std::invalid_argument("oagrid: cannot create snapshot " + tmp);
    std::string header(kSnapshotMagic, sizeof kSnapshotMagic);
    put(header, kSnapshotVersion);
    put(header, seq);
    out.write(header.data(), static_cast<std::streamsize>(header.size()));
    append_framed(out, payload);
    out.flush();
    if (!out)
      throw std::runtime_error("oagrid: snapshot write failed: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0)
    throw std::runtime_error("oagrid: cannot publish snapshot " + path);
}

SnapshotContents read_snapshot(const std::string& path) {
  SnapshotContents contents;
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return contents;
  const auto file_size = in.tellg();
  in.seekg(0);
  constexpr std::size_t kSnapHeader =
      sizeof kSnapshotMagic + sizeof(std::uint32_t) + sizeof(std::uint64_t);
  std::string header(kSnapHeader, '\0');
  in.read(header.data(), static_cast<std::streamsize>(header.size()));
  if (!in ||
      std::memcmp(header.data(), kSnapshotMagic, sizeof kSnapshotMagic) != 0)
    return contents;  // corrupt: recovery falls back to full replay
  Cursor cursor(header);
  cursor.get<std::uint32_t>();  // magic
  if (cursor.get<std::uint32_t>() != kSnapshotVersion) return contents;
  const auto seq = cursor.get<std::uint64_t>();
  try {
    std::string payload;
    if (!read_record(in, payload,
                     static_cast<std::uint64_t>(file_size) - kSnapHeader))
      return contents;
    contents.valid = true;
    contents.seq = seq;
    contents.payload = std::move(payload);
  } catch (const std::invalid_argument&) {
    contents.valid = false;  // torn snapshot: ignore it entirely
  }
  return contents;
}

}  // namespace oagrid::service
