#include "common/trace_sink.h"

namespace tsf::common {

void StreamingFingerprint::record(TimePoint at, TraceKind kind,
                                  std::string_view who, std::int64_t value,
                                  std::string_view note) {
  hash_ = fnv1a_record(hash_, at, kind, who, value, note);
  ++records_;
}

}  // namespace tsf::common
