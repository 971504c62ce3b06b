// tsf-trace/1 round trips: records and interned entities, and
// malformed-stream rejection (including the reserved opcode 0x03).
#include "common/trace_io.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/trace.h"

namespace tsf::common {
namespace {

TimePoint at(std::int64_t tu) {
  return TimePoint::origin() + Duration::time_units(tu);
}

Timeline sample_timeline() {
  Timeline t;
  t.record(at(0), TraceKind::kRelease, "a");
  t.record(at(0), TraceKind::kStart, "a");
  t.record(at(2), TraceKind::kComplete, "a", 5, "note with spaces");
  t.record(at(2), TraceKind::kRelease, "b");
  t.record(at(9), TraceKind::kComplete, "b", -3, "");
  return t;
}

TEST(TraceIo, WriteReadRoundTripsFingerprint) {
  const Timeline t = sample_timeline();
  std::ostringstream out;
  write_trace(out, t);
  std::istringstream in(out.str());
  Timeline back;
  std::string error;
  ASSERT_TRUE(read_trace(in, &back, &error)) << error;
  EXPECT_EQ(fingerprint(back), fingerprint(t));
  EXPECT_EQ(back.records().size(), t.records().size());
  EXPECT_EQ(back.records()[2].note, "note with spaces");
}

TEST(TraceIo, StreamingWriterMatchesConvenienceWriter) {
  const Timeline t = sample_timeline();
  std::ostringstream a, b;
  write_trace(a, t);
  BinaryTraceWriter writer(b);
  for (const auto& r : t.records()) {
    writer.record(r.at, r.kind, r.who, r.value, r.note);
  }
  EXPECT_EQ(a.str(), b.str());
  EXPECT_EQ(writer.records_written(), t.records().size());
  EXPECT_EQ(writer.bytes_written(), b.str().size());
}

TEST(TraceIo, RejectsReservedTombstoneOpcode) {
  // Opcode 0x03 once carried a tombstone; no writer emits it any more and
  // a stream holding one is refused by name, not replayed.
  std::ostringstream out;
  BinaryTraceWriter writer(out);
  writer.record(at(0), TraceKind::kResume, "task");  // defines entity 0
  std::string bytes = out.str();
  bytes += std::string{'\x03', '\x08', '\x00',
                       static_cast<char>(TraceKind::kPreempt)};
  std::istringstream in(bytes);
  Timeline back;
  std::string error;
  EXPECT_FALSE(read_trace(in, &back, &error));
  EXPECT_NE(error.find("opcode 0x03"), std::string::npos) << error;
  EXPECT_EQ(back.records().size(), 1u);  // the record before it replayed
}

TEST(TraceIo, EmptyStreamIsValid) {
  std::ostringstream out;
  BinaryTraceWriter writer(out);  // writes the magic only
  std::istringstream in(out.str());
  Timeline back;
  std::string error;
  EXPECT_TRUE(read_trace(in, &back, &error)) << error;
  EXPECT_TRUE(back.records().empty());
}

TEST(TraceIo, RejectsBadMagic) {
  std::istringstream in("nottrc1\n");
  Timeline t;
  std::string error;
  EXPECT_FALSE(read_trace(in, &t, &error));
  EXPECT_FALSE(error.empty());
}

TEST(TraceIo, RejectsTruncatedEntry) {
  const Timeline t = sample_timeline();
  std::ostringstream out;
  write_trace(out, t);
  const std::string whole = out.str();
  std::istringstream in(whole.substr(0, whole.size() - 1));
  Timeline back;
  std::string error;
  EXPECT_FALSE(read_trace(in, &back, &error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace tsf::common
