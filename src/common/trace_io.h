// tsf-trace/1 — compact binary append format for trace streams.
//
// Layout (all multi-byte integers little-endian; varints are LEB128):
//
//   magic    8 bytes        "tsftrc1\n"
//   entry*   one of:
//     0x01  define entity   varint name_len, name bytes
//                           (assigns the next sequential id, starting at 0)
//     0x02  record          varint zigzag(ticks - last_ticks)
//                           varint entity_id
//                           u8     kind
//                           8 bytes value (int64, little-endian, fixed)
//                           varint note_len, note bytes
//     0x03  reserved        a retired tombstone opcode: never written,
//                           and read_trace rejects it with a named error
//
// Timestamps are delta-encoded against the previous record's ticks, so the
// steady-state cost of a record with an interned name and an empty note is
// 5 + a few bytes. A record is final once written: the stream is
// append-only and nothing in it is ever taken back.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <unordered_map>

#include "common/annotations.h"
#include "common/trace.h"

namespace tsf::common {

inline constexpr char kTraceMagic[8] = {'t', 's', 'f', 't', 'r', 'c', '1',
                                        '\n'};

// Streams records into `out` as they arrive; O(entities) memory. The
// ostream must outlive the writer. Writes the magic on construction.
class BinaryTraceWriter final : public TraceSink {
 public:
  explicit BinaryTraceWriter(std::ostream& out);

  TSF_DETERMINISM_CRITICAL
  void record(TimePoint at, TraceKind kind, std::string_view who,
              std::int64_t value = 0, std::string_view note = {}) override;

  std::uint64_t bytes_written() const { return bytes_; }
  std::uint64_t records_written() const { return records_; }

 private:
  std::uint64_t intern(std::string_view who);
  void put_varint(std::uint64_t v);
  void put_delta(std::int64_t ticks);
  void put_bytes(const void* data, std::size_t n);

  std::ostream& out_;
  // Determinism audit: lookup-only intern table (find/emplace, never
  // iterated). Entity ids are assigned by arrival order of first use, and
  // the emitted stream is ordered by the record stream itself, so the
  // unordered bucket order never reaches any output.
  std::unordered_map<std::string, std::uint64_t> ids_;
  std::int64_t last_ticks_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t records_ = 0;
};

// Replays a tsf-trace/1 stream into `sink`, record by record. Replaying
// into a Timeline materializes the trace; replaying into the streaming
// sinks keeps the whole pass O(1) in trace length. Returns false with a
// message in *error on a malformed stream, including one that holds the
// reserved opcode 0x03.
bool read_trace(std::istream& in, TraceSink* sink, std::string* error);

// Convenience: serializes an already-materialized timeline.
void write_trace(std::ostream& out, const Timeline& timeline);

}  // namespace tsf::common
