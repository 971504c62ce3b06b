// TeeSink fan-out and the streaming fingerprint's equivalence to
// fingerprint(Timeline).
#include "common/trace_sink.h"

#include <gtest/gtest.h>

#include "common/trace.h"

namespace tsf::common {
namespace {

TimePoint at(std::int64_t tu) {
  return TimePoint::origin() + Duration::time_units(tu);
}

TEST(TeeSink, FansOutRecords) {
  Timeline a, b;
  TeeSink tee;
  tee.add(&a);
  tee.add(nullptr);  // ignored, not dereferenced
  tee.add(&b);
  tee.record(at(1), TraceKind::kRelease, "x", 7, "n");
  tee.record(at(2), TraceKind::kPreempt, "x");
  EXPECT_EQ(fingerprint(a), fingerprint(b));
  ASSERT_EQ(a.records().size(), 2u);
  EXPECT_EQ(a.records()[0].note, "n");
}

TEST(StreamingFingerprint, MatchesMaterializedFingerprint) {
  Timeline t;
  StreamingFingerprint s;
  const auto emit = [&](TimePoint when, TraceKind kind, const char* who,
                        std::int64_t value, const char* note) {
    t.record(when, kind, who, value, note);
    s.record(when, kind, who, value, note);
  };
  emit(at(0), TraceKind::kRelease, "a", 0, "");
  emit(at(0), TraceKind::kStart, "a", 0, "");
  emit(at(3), TraceKind::kComplete, "a", 1, "served");
  emit(at(3), TraceKind::kRelease, "b", 0, "");
  emit(at(5), TraceKind::kComplete, "b", -2, "");
  EXPECT_EQ(s.digest(), fingerprint(t));
  EXPECT_EQ(s.records(), t.records().size());
}

TEST(StreamingFingerprint, DigestIsIdempotentMidStream) {
  StreamingFingerprint s;
  s.record(at(1), TraceKind::kRelease, "x");
  const auto d1 = s.digest();
  EXPECT_EQ(d1, s.digest());  // reading the digest consumes nothing
  s.record(at(2), TraceKind::kComplete, "x");
  StreamingFingerprint fresh;
  fresh.record(at(1), TraceKind::kRelease, "x");
  fresh.record(at(2), TraceKind::kComplete, "x");
  EXPECT_EQ(s.digest(), fresh.digest());
}

}  // namespace
}  // namespace tsf::common
