#include "common/trace_io.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <vector>

namespace tsf::common {

namespace {

constexpr std::uint8_t kOpDefine = 0x01;
constexpr std::uint8_t kOpRecord = 0x02;
// Reserved: a retired tombstone opcode, rejected on read.
constexpr std::uint8_t kOpRetired = 0x03;

std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

}  // namespace

BinaryTraceWriter::BinaryTraceWriter(std::ostream& out) : out_(out) {
  put_bytes(kTraceMagic, sizeof kTraceMagic);
}

void BinaryTraceWriter::put_bytes(const void* data, std::size_t n) {
  out_.write(static_cast<const char*>(data), static_cast<std::streamsize>(n));
  bytes_ += n;
}

void BinaryTraceWriter::put_varint(std::uint64_t v) {
  char buf[10];
  std::size_t n = 0;
  do {
    std::uint8_t byte = v & 0x7f;
    v >>= 7;
    if (v != 0) byte |= 0x80;
    buf[n++] = static_cast<char>(byte);
  } while (v != 0);
  put_bytes(buf, n);
}

void BinaryTraceWriter::put_delta(std::int64_t ticks) {
  put_varint(zigzag(ticks - last_ticks_));
  last_ticks_ = ticks;
}

std::uint64_t BinaryTraceWriter::intern(std::string_view who) {
  const auto it = ids_.find(std::string(who));
  if (it != ids_.end()) return it->second;
  const std::uint64_t id = ids_.size();
  ids_.emplace(std::string(who), id);
  const std::uint8_t op = kOpDefine;
  put_bytes(&op, 1);
  put_varint(who.size());
  put_bytes(who.data(), who.size());
  return id;
}

void BinaryTraceWriter::record(TimePoint at, TraceKind kind,
                               std::string_view who, std::int64_t value,
                               std::string_view note) {
  const std::uint64_t id = intern(who);
  const std::uint8_t op = kOpRecord;
  put_bytes(&op, 1);
  put_delta(at.ticks());
  put_varint(id);
  const auto k = static_cast<std::uint8_t>(kind);
  put_bytes(&k, 1);
  char v[8];
  const auto uv = static_cast<std::uint64_t>(value);
  for (std::size_t i = 0; i < 8; ++i) {
    v[i] = static_cast<char>((uv >> (8 * i)) & 0xff);
  }
  put_bytes(v, 8);
  put_varint(note.size());
  put_bytes(note.data(), note.size());
  ++records_;
}

namespace {

struct Reader {
  std::istream& in;
  std::string error;

  bool fail(const std::string& message) {
    error = message;
    return false;
  }

  bool get_byte(std::uint8_t* b) {
    const int c = in.get();
    if (c == std::char_traits<char>::eof()) return false;
    *b = static_cast<std::uint8_t>(c);
    return true;
  }

  bool get_varint(std::uint64_t* v) {
    *v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      std::uint8_t byte;
      if (!get_byte(&byte)) return fail("truncated varint");
      *v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) return true;
    }
    return fail("varint overflow");
  }

  bool get_string(std::string* s) {
    std::uint64_t n;
    if (!get_varint(&n)) return false;
    if (n > (1u << 20)) return fail("string length implausible");
    s->resize(static_cast<std::size_t>(n));
    if (n > 0) {
      in.read(s->data(), static_cast<std::streamsize>(n));
      if (static_cast<std::uint64_t>(in.gcount()) != n) {
        return fail("truncated string");
      }
    }
    return true;
  }
};

}  // namespace

bool read_trace(std::istream& in, TraceSink* sink, std::string* error) {
  auto fail = [error](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };

  char magic[sizeof kTraceMagic];
  in.read(magic, sizeof magic);
  if (in.gcount() != sizeof magic ||
      !std::equal(magic, magic + sizeof magic, kTraceMagic)) {
    return fail("not a tsf-trace/1 stream (bad magic)");
  }

  Reader r{in, {}};
  std::vector<std::string> entities;
  std::int64_t last_ticks = 0;
  std::string note;
  for (;;) {
    std::uint8_t op;
    if (!r.get_byte(&op)) break;  // clean EOF at an entry boundary
    if (op == kOpDefine) {
      std::string name;
      if (!r.get_string(&name)) return fail(r.error);
      entities.push_back(std::move(name));
      continue;
    }
    if (op == kOpRetired) {
      return fail("retraction tombstone (opcode 0x03) is not supported");
    }
    if (op != kOpRecord) return fail("unknown opcode " + std::to_string(op));
    std::uint64_t delta, id;
    std::uint8_t kind;
    if (!r.get_varint(&delta)) return fail(r.error);
    if (!r.get_varint(&id)) return fail(r.error);
    if (id >= entities.size()) return fail("entity id out of range");
    if (!r.get_byte(&kind)) return fail("truncated entry");
    if (kind >= kTraceKindCount) return fail("kind out of range");
    last_ticks += unzigzag(delta);
    const TimePoint at = TimePoint::at_ticks(last_ticks);
    std::uint64_t uv = 0;
    for (std::size_t i = 0; i < 8; ++i) {
      std::uint8_t byte;
      if (!r.get_byte(&byte)) return fail("truncated value");
      uv |= static_cast<std::uint64_t>(byte) << (8 * i);
    }
    if (!r.get_string(&note)) return fail(r.error);
    sink->record(at, static_cast<TraceKind>(kind), entities[id],
                 static_cast<std::int64_t>(uv), note);
  }
  return true;
}

void write_trace(std::ostream& out, const Timeline& timeline) {
  BinaryTraceWriter writer(out);
  for (const auto& r : timeline.records()) {
    writer.record(r.at, r.kind, r.who, r.value, r.note);
  }
}

}  // namespace tsf::common
