#include "service/journal.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

namespace oagrid::service {
namespace {

namespace fs = std::filesystem;

std::string temp_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

JournalConfig test_config() {
  JournalConfig config;
  config.policy = 1;
  config.heuristic = 3;
  config.max_active = 4;
  return config;
}

std::vector<Event> sample_events() {
  std::vector<Event> events;
  {
    Event e;
    e.type = EventType::kCampaignSubmitted;
    e.campaign = 1;
    e.time = 0.0;
    e.owner = "alice";
    e.weight = 2.5;
    e.scenarios = 4;
    e.months = 6;
    events.push_back(e);
  }
  {
    Event e;
    e.type = EventType::kCampaignAdmitted;
    e.campaign = 1;
    e.time = 0.0;
    e.assignment = {0, 0, 1, 1};
    events.push_back(e);
  }
  {
    Event e;
    e.type = EventType::kLeaseChanged;
    e.campaign = 1;
    e.time = 0.0;
    e.cluster = 1;
    e.procs = 16;
    events.push_back(e);
  }
  {
    Event e;
    e.type = EventType::kMonthCompleted;
    e.campaign = 1;
    e.time = 1234.5;
    e.scenario = 2;
    e.month = 0;
    e.cluster = 1;
    e.group = 1;
    events.push_back(e);
  }
  {
    Event e;
    e.type = EventType::kCampaignRejected;
    e.campaign = 2;
    e.time = 50.0;
    events.push_back(e);
  }
  {
    Event e;
    e.type = EventType::kCampaignCompleted;
    e.campaign = 1;
    e.time = 9999.25;
    e.makespan = 9999.25;
    events.push_back(e);
  }
  return events;
}

TEST(Crc32, MatchesTheStandardCheckValue) {
  // The canonical CRC-32 check vector ("123456789" -> 0xCBF43926).
  const std::string data = "123456789";
  EXPECT_EQ(crc32(data.data(), data.size()), 0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

/// The CRC-32 definition itself: reflected polynomial 0xEDB88320, one bit
/// at a time, no table.
std::uint32_t bitwise_crc32(const unsigned char* bytes, std::size_t size) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    c ^= bytes[i];
    for (int bit = 0; bit < 8; ++bit)
      c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
  }
  return ~c;
}

TEST(Crc32, MatchesABitwiseCrcAtEveryLengthAndAlignment) {
  std::vector<unsigned char> buffer(8 + 64);
  std::uint32_t state = 12345;
  for (unsigned char& byte : buffer) {
    state = state * 1103515245u + 12345u;
    byte = static_cast<unsigned char>(state >> 24);
  }
  for (std::size_t offset = 0; offset < 8; ++offset)
    for (std::size_t size = 0; size <= 64; ++size)
      EXPECT_EQ(crc32(buffer.data() + offset, size),
                bitwise_crc32(buffer.data() + offset, size))
          << "offset " << offset << ", length " << size;
}

/// Peak resident set of this process, in KB.
long peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

/// A torn record header whose length field is garbage: the length, a zero
/// CRC, then 3 bytes where about 4 GiB were promised.
std::string garbage_length_record() {
  std::string bytes;
  const std::uint32_t len = 0xFFFFFFF0u;
  const std::uint32_t crc = 0;
  bytes.append(reinterpret_cast<const char*>(&len), sizeof len);
  bytes.append(reinterpret_cast<const char*>(&crc), sizeof crc);
  bytes.append("abc");
  return bytes;
}

constexpr long kAllocationSlackKb = 64 * 1024;

TEST(Journal, GarbageRecordLengthIsATornTailNotAnAllocation) {
  const std::string path = temp_dir("journal-garbage-len") + "/journal.bin";
  const std::vector<Event> events = sample_events();
  {
    JournalWriter writer(path, 0, test_config());
    writer.append(events.front());
  }
  write_file(path, read_file(path) + garbage_length_record());

  const long rss_before = peak_rss_kb();
  const JournalContents contents = read_journal(path);
  EXPECT_LT(peak_rss_kb() - rss_before, kAllocationSlackKb);
  EXPECT_TRUE(contents.torn_tail);
  ASSERT_EQ(contents.events.size(), 1u);
  EXPECT_TRUE(contents.events.front() == events.front());
  EXPECT_EQ(contents.dropped_bytes, 11u);
}

TEST(Snapshot, GarbageRecordLengthReadsAsInvalid) {
  const std::string path = temp_dir("snapshot-garbage-len") + "/snapshot.bin";
  write_snapshot(path, 9, "payload bytes here");
  // Keep the 16-byte header (magic, version, seq); replace the record.
  write_file(path, read_file(path).substr(0, 16) + garbage_length_record());

  const long rss_before = peak_rss_kb();
  EXPECT_FALSE(read_snapshot(path).valid);
  EXPECT_LT(peak_rss_kb() - rss_before, kAllocationSlackKb);
}

TEST(EventCodec, RoundTripsEveryType) {
  for (const Event& event : sample_events()) {
    const Event back = decode_event(encode_event(event));
    EXPECT_TRUE(back == event) << to_string(event.type);
  }
}

TEST(EventCodec, RejectsTruncatedPayloads) {
  for (const Event& event : sample_events()) {
    const std::string payload = encode_event(event);
    for (std::size_t cut = 0; cut < payload.size(); ++cut)
      EXPECT_THROW((void)decode_event(payload.substr(0, cut)),
                   std::invalid_argument)
          << to_string(event.type) << " cut at " << cut;
  }
}

TEST(EventCodec, RejectsTrailingBytes) {
  const std::string payload = encode_event(sample_events()[0]) + "x";
  EXPECT_THROW((void)decode_event(payload), std::invalid_argument);
}

TEST(Journal, MissingFileReadsAsAbsent) {
  const JournalContents contents =
      read_journal(temp_dir("journal-missing") + "/journal.bin");
  EXPECT_FALSE(contents.exists);
  EXPECT_TRUE(contents.events.empty());
}

TEST(Journal, HeaderOnlyJournalIsEmptyNotTorn) {
  const std::string path = temp_dir("journal-empty") + "/journal.bin";
  { JournalWriter writer(path, 7, test_config()); }
  const JournalContents contents = read_journal(path);
  EXPECT_TRUE(contents.exists);
  EXPECT_EQ(contents.base_seq, 7u);
  EXPECT_EQ(contents.config, test_config());
  EXPECT_TRUE(contents.events.empty());
  EXPECT_FALSE(contents.torn_tail);
  EXPECT_EQ(contents.end_seq(), 7u);
}

TEST(Journal, WriteReadRoundTrip) {
  const std::string path = temp_dir("journal-roundtrip") + "/journal.bin";
  const std::vector<Event> events = sample_events();
  {
    JournalWriter writer(path, 0, test_config());
    for (const Event& event : events) writer.append(event);
    EXPECT_EQ(writer.seq(), events.size());
  }
  const JournalContents contents = read_journal(path);
  ASSERT_EQ(contents.events.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i)
    EXPECT_TRUE(contents.events[i] == events[i]) << "record " << i;
  EXPECT_FALSE(contents.torn_tail);
}

TEST(Journal, BadMagicThrows) {
  const std::string path = temp_dir("journal-magic") + "/journal.bin";
  write_file(path, "this is not a journal file, not even close");
  EXPECT_THROW((void)read_journal(path), std::invalid_argument);
}

TEST(Journal, EveryTruncationPointYieldsAValidPrefix) {
  // WAL semantics: however the crash sheared the file, the surviving prefix
  // of whole records must decode, and nothing may throw.
  const std::string path = temp_dir("journal-torn") + "/journal.bin";
  const std::vector<Event> events = sample_events();
  {
    JournalWriter writer(path, 0, test_config());
    for (const Event& event : events) writer.append(event);
  }
  const std::string full = read_file(path);
  const std::string cut_path = temp_dir("journal-torn-cut") + "/journal.bin";
  { JournalWriter header_only(cut_path, 0, test_config()); }
  const std::size_t header_size = read_file(cut_path).size();

  // Cuts start 8 bytes into the first record's frame, past the header.
  std::size_t clean_cuts = 0;
  for (std::size_t cut = header_size + 8; cut < full.size(); ++cut) {
    write_file(cut_path, full.substr(0, cut));
    const JournalContents contents = read_journal(cut_path);
    ASSERT_TRUE(contents.exists);
    ASSERT_LE(contents.events.size(), events.size());
    for (std::size_t i = 0; i < contents.events.size(); ++i)
      EXPECT_TRUE(contents.events[i] == events[i])
          << "cut " << cut << " record " << i;
    if (contents.torn_tail) {
      EXPECT_GT(contents.dropped_bytes, 0u);
      EXPECT_LT(contents.events.size(), events.size());
    } else {
      ++clean_cuts;  // cut landed exactly on a record boundary
    }
  }
  EXPECT_EQ(clean_cuts, events.size() - 1);
}

TEST(Journal, CorruptMiddleRecordDropsTheTail) {
  const std::string path = temp_dir("journal-corrupt") + "/journal.bin";
  const std::vector<Event> events = sample_events();
  {
    JournalWriter writer(path, 0, test_config());
    for (const Event& event : events) writer.append(event);
  }
  std::string bytes = read_file(path);
  bytes[bytes.size() / 2] ^= 0x40;  // flip one bit mid-journal
  write_file(path, bytes);

  const JournalContents contents = read_journal(path);
  EXPECT_TRUE(contents.torn_tail);
  EXPECT_LT(contents.events.size(), events.size());
  for (std::size_t i = 0; i < contents.events.size(); ++i)
    EXPECT_TRUE(contents.events[i] == events[i]);
}

TEST(Journal, ReopenTruncatesTornTailAndContinues) {
  const std::string path = temp_dir("journal-reopen") + "/journal.bin";
  const std::vector<Event> events = sample_events();
  {
    JournalWriter writer(path, 0, test_config());
    for (const Event& event : events) writer.append(event);
  }
  // Shear the last record in half.
  const std::string full = read_file(path);
  write_file(path, full.substr(0, full.size() - 5));

  JournalContents torn = read_journal(path);
  ASSERT_TRUE(torn.torn_tail);
  ASSERT_EQ(torn.events.size(), events.size() - 1);
  {
    JournalWriter writer = JournalWriter::reopen(path, torn);
    EXPECT_EQ(writer.seq(), events.size() - 1);
    writer.append(events.back());
  }
  const JournalContents healed = read_journal(path);
  EXPECT_FALSE(healed.torn_tail);
  ASSERT_EQ(healed.events.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i)
    EXPECT_TRUE(healed.events[i] == events[i]);
}

TEST(Snapshot, RoundTripAndAtomicReplace) {
  const std::string dir = temp_dir("snapshot");
  const std::string path = dir + "/snapshot.bin";
  write_snapshot(path, 42, "opaque service state payload");
  write_snapshot(path, 43, "a newer payload");  // replaces atomically

  const SnapshotContents contents = read_snapshot(path);
  ASSERT_TRUE(contents.valid);
  EXPECT_EQ(contents.seq, 43u);
  EXPECT_EQ(contents.payload, "a newer payload");
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(Snapshot, MissingOrCorruptReadsAsInvalid) {
  const std::string dir = temp_dir("snapshot-bad");
  EXPECT_FALSE(read_snapshot(dir + "/nope.bin").valid);

  const std::string path = dir + "/snapshot.bin";
  write_snapshot(path, 9, "payload bytes here");
  std::string bytes = read_file(path);
  // Corrupt the payload: CRC must catch it.
  bytes.back() = static_cast<char>(bytes.back() ^ 0x01);
  write_file(path, bytes);
  EXPECT_FALSE(read_snapshot(path).valid);

  // Truncated snapshot: also invalid, never throws.
  write_file(path, read_file(path).substr(0, bytes.size() - 7));
  EXPECT_FALSE(read_snapshot(path).valid);

  write_file(path, "bad magic snapshot file");
  EXPECT_FALSE(read_snapshot(path).valid);
}

TEST(GroupCommit, ProducesByteIdenticalJournals) {
  const std::string dir = temp_dir("group-commit-bytes");
  const std::vector<Event> events = sample_events();

  const std::string per_record = dir + "/per_record.bin";
  {
    JournalWriter writer(per_record, 0, test_config());
    for (const Event& event : events) writer.append(event);
    EXPECT_EQ(writer.flushes(), events.size());
  }
  const std::string batched = dir + "/batched.bin";
  {
    JournalWriter writer(batched, 0, test_config());
    writer.set_group_commit(true);
    // Two batches of arbitrary size: frames are concatenated in append
    // order, so the cut points must leave no trace in the bytes.
    for (std::size_t i = 0; i < 4; ++i) writer.append(events[i]);
    EXPECT_EQ(writer.pending_records(), 4u);
    EXPECT_EQ(writer.commit(), 4u);
    for (std::size_t i = 4; i < events.size(); ++i) writer.append(events[i]);
    EXPECT_EQ(writer.commit(), events.size() - 4);
    EXPECT_EQ(writer.flushes(), 2u);
    EXPECT_EQ(writer.commit(), 0u);  // nothing pending: no third flush
    EXPECT_EQ(writer.flushes(), 2u);
  }
  EXPECT_EQ(read_file(per_record), read_file(batched));
}

TEST(GroupCommit, DiscardPendingLosesExactlyTheUncommittedBatch) {
  const std::string dir = temp_dir("group-commit-discard");
  const std::string path = dir + "/journal.bin";
  const std::vector<Event> events = sample_events();

  JournalWriter writer(path, 0, test_config());
  writer.set_group_commit(true);
  for (std::size_t i = 0; i < 3; ++i) writer.append(events[i]);
  writer.commit();
  for (std::size_t i = 3; i < events.size(); ++i) writer.append(events[i]);
  EXPECT_EQ(writer.seq(), events.size());  // buffered records are history...
  writer.discard_pending();                // ...until the emulated SIGKILL
  EXPECT_EQ(writer.seq(), 3u);
  EXPECT_EQ(writer.pending_records(), 0u);

  const JournalContents contents = read_journal(path);
  ASSERT_TRUE(contents.exists);
  EXPECT_FALSE(contents.torn_tail);
  ASSERT_EQ(contents.events.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_TRUE(contents.events[i] == events[i]);
}

TEST(GroupCommit, TurningOffCommitsThePendingBatchFirst) {
  const std::string dir = temp_dir("group-commit-toggle");
  const std::string path = dir + "/journal.bin";
  const std::vector<Event> events = sample_events();

  JournalWriter writer(path, 0, test_config());
  writer.set_group_commit(true);
  writer.append(events[0]);
  writer.append(events[1]);
  writer.set_group_commit(false);  // commits: no record changes durability
  EXPECT_EQ(writer.pending_records(), 0u);
  writer.append(events[2]);  // back to flush-per-append
  EXPECT_EQ(read_journal(path).events.size(), 3u);
}

TEST(GroupCommit, TornBatchTailRecoversLikeATornRecord) {
  const std::string dir = temp_dir("group-commit-torn");
  const std::string path = dir + "/journal.bin";
  const std::vector<Event> events = sample_events();

  JournalWriter writer(path, 0, test_config());
  writer.set_group_commit(true);
  for (std::size_t i = 0; i < 3; ++i) writer.append(events[i]);
  writer.commit();
  for (std::size_t i = 3; i < events.size(); ++i) writer.append(events[i]);
  writer.commit();

  // Tear the file mid-way through the second batch: the first batch and the
  // second batch's whole records survive; the cut record is dropped.
  std::string bytes = read_file(path);
  write_file(path, bytes.substr(0, bytes.size() - 5));
  const JournalContents torn = read_journal(path);
  ASSERT_TRUE(torn.exists);
  EXPECT_TRUE(torn.torn_tail);
  ASSERT_EQ(torn.events.size(), events.size() - 1);
  for (std::size_t i = 0; i + 1 < events.size(); ++i)
    EXPECT_TRUE(torn.events[i] == events[i]);

  // A batched writer reopens the torn journal exactly like a per-record one.
  JournalWriter reopened = JournalWriter::reopen(path, torn);
  reopened.set_group_commit(true);
  reopened.append(events.back());
  reopened.commit();
  const JournalContents healed = read_journal(path);
  EXPECT_FALSE(healed.torn_tail);
  ASSERT_EQ(healed.events.size(), events.size());
  EXPECT_TRUE(healed.events.back() == events.back());
}

}  // namespace
}  // namespace oagrid::service
