#include "common/trace.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <sstream>

#include "common/diag.h"

namespace tsf::common {

const char* to_string(TraceKind kind) {
  switch (kind) {
    case TraceKind::kRelease:
      return "release";
    case TraceKind::kStart:
      return "start";
    case TraceKind::kPreempt:
      return "preempt";
    case TraceKind::kResume:
      return "resume";
    case TraceKind::kComplete:
      return "complete";
    case TraceKind::kAbort:
      return "abort";
    case TraceKind::kReplenish:
      return "replenish";
    case TraceKind::kCapacity:
      return "capacity";
    case TraceKind::kFire:
      return "fire";
    case TraceKind::kNote:
      return "note";
    case TraceKind::kAdmit:
      return "admit";
    case TraceKind::kDemote:
      return "demote";
    case TraceKind::kShed:
      return "shed";
  }
  return "?";
}

bool trace_kind_from_string(std::string_view name, TraceKind* kind) {
  for (std::size_t k = 0; k < kTraceKindCount; ++k) {
    const auto candidate = static_cast<TraceKind>(k);
    if (name == to_string(candidate)) {
      *kind = candidate;
      return true;
    }
  }
  return false;
}

void Timeline::record(TimePoint at, TraceKind kind, std::string_view who,
                      std::int64_t value, std::string_view note) {
  records_.push_back(
      TraceRecord{at, kind, std::string(who), value, std::string(note)});
}

std::vector<Interval> Timeline::busy_intervals(const std::string& who) const {
  std::vector<Interval> out;
  bool open = false;
  TimePoint begin;
  for (const auto& r : records_) {
    if (r.who != who) continue;
    switch (r.kind) {
      case TraceKind::kStart:
      case TraceKind::kResume:
        TSF_ASSERT(!open, "entity " << who << " started twice at " << r.at);
        open = true;
        begin = r.at;
        break;
      case TraceKind::kPreempt:
      case TraceKind::kComplete:
      case TraceKind::kAbort:
        if (open) {
          open = false;
          if (r.at > begin) out.push_back(Interval{begin, r.at});
        }
        break;
      default:
        break;
    }
  }
  return out;
}

std::vector<TimePoint> Timeline::marks(const std::string& who,
                                       TraceKind kind) const {
  std::vector<TimePoint> out;
  for (const auto& r : records_) {
    if (r.who == who && r.kind == kind) out.push_back(r.at);
  }
  return out;
}

std::vector<std::string> Timeline::entities() const {
  std::vector<std::string> out;
  for (const auto& r : records_) {
    if (std::find(out.begin(), out.end(), r.who) == out.end()) {
      out.push_back(r.who);
    }
  }
  return out;
}

namespace {

// RFC-4180-style quoting: only fields that would break the column structure
// get quoted, so the common case (plain identifiers) stays byte-identical
// to the historical format.
void append_csv_field(std::string* out, const std::string& field) {
  if (field.find_first_of(",\"\n\r") == std::string::npos) {
    out->append(field);
    return;
  }
  out->push_back('"');
  for (const char c : field) {
    if (c == '"') out->push_back('"');
    out->push_back(c);
  }
  out->push_back('"');
}

// Splits one CSV line (quotes honoured) into fields. Returns false on a
// malformed quote sequence.
bool split_csv_line(std::string_view line, std::vector<std::string>* fields) {
  fields->clear();
  std::string current;
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current.push_back('"');
          ++i;
        } else {
          quoted = false;
        }
      } else {
        current.push_back(c);
      }
    } else if (c == '"') {
      if (!current.empty()) return false;  // quote mid-field
      quoted = true;
    } else if (c == ',') {
      fields->push_back(std::move(current));
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  if (quoted) return false;
  fields->push_back(std::move(current));
  return true;
}

}  // namespace

std::string Timeline::to_csv() const {
  std::string out = "ticks,kind,who,value,note\n";
  for (const auto& r : records_) {
    out += std::to_string(r.at.ticks());
    out.push_back(',');
    out += to_string(r.kind);
    out.push_back(',');
    append_csv_field(&out, r.who);
    out.push_back(',');
    out += std::to_string(r.value);
    out.push_back(',');
    append_csv_field(&out, r.note);
    out.push_back('\n');
  }
  return out;
}

bool timeline_from_csv(std::string_view csv, Timeline* out,
                       std::string* error) {
  auto fail = [error](std::size_t line_no, const std::string& message) {
    if (error != nullptr) {
      *error = "line " + std::to_string(line_no) + ": " + message;
    }
    return false;
  };

  std::size_t line_no = 0;
  std::size_t pos = 0;
  std::vector<std::string> fields;
  while (pos <= csv.size()) {
    // A quoted note may contain newlines, so scan for the line end with the
    // quote state in mind.
    std::size_t end = pos;
    bool quoted = false;
    while (end < csv.size() && (quoted || csv[end] != '\n')) {
      if (csv[end] == '"') quoted = !quoted;
      ++end;
    }
    const std::string_view line = csv.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty() && pos > csv.size()) break;  // trailing newline
    ++line_no;
    if (line_no == 1) {
      if (line != "ticks,kind,who,value,note") {
        return fail(line_no, "missing csv header");
      }
      continue;
    }
    if (line.empty()) continue;
    if (!split_csv_line(line, &fields)) {
      return fail(line_no, "malformed quoting");
    }
    if (fields.size() != 5) {
      return fail(line_no, "expected 5 fields, got " +
                               std::to_string(fields.size()));
    }
    errno = 0;
    char* endp = nullptr;
    const long long ticks = std::strtoll(fields[0].c_str(), &endp, 10);
    if (endp == fields[0].c_str() || *endp != '\0') {
      return fail(line_no, "bad ticks '" + fields[0] + "'");
    }
    TraceKind kind;
    if (!trace_kind_from_string(fields[1], &kind)) {
      return fail(line_no, "unknown kind '" + fields[1] + "'");
    }
    const long long value = std::strtoll(fields[3].c_str(), &endp, 10);
    if (endp == fields[3].c_str() || *endp != '\0') {
      return fail(line_no, "bad value '" + fields[3] + "'");
    }
    out->record(TimePoint::at_ticks(ticks), kind, fields[2], value,
                fields[4]);
  }
  return true;
}

std::uint64_t fnv1a_record(std::uint64_t h, TimePoint at, TraceKind kind,
                           std::string_view who, std::int64_t value,
                           std::string_view note) {
  h = fnv1a_u64(h, static_cast<std::uint64_t>(at.ticks()));
  h = fnv1a_u64(h, static_cast<std::uint64_t>(kind));
  h = fnv1a_str(h, who);
  h = fnv1a_u64(h, static_cast<std::uint64_t>(value));
  h = fnv1a_str(h, note);
  return h;
}

std::uint64_t fingerprint(const Timeline& timeline) {
  std::uint64_t h = kFnvOffsetBasis;
  for (const auto& r : timeline.records()) {
    h = fnv1a_record(h, r.at, r.kind, r.who, r.value, r.note);
  }
  return h;
}

std::string vcd_identifier(std::size_t index) {
  // Bijective base-94: 0 → "!", 93 → "~", 94 → "!!", ... Every index maps
  // to a unique string and the first 94 keep the historical 1-char form.
  std::string id;
  std::size_t n = index + 1;
  while (n > 0) {
    n -= 1;
    id.insert(id.begin(), static_cast<char>('!' + n % 94));
    n /= 94;
  }
  return id;
}

std::string to_vcd(const Timeline& timeline,
                   const std::vector<std::string>& rows) {
  std::ostringstream oss;
  oss << "$timescale 1us $end\n$scope module tsf $end\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::string name = rows[i];
    for (auto& c : name) {
      if (c == ' ') c = '_';
    }
    oss << "$var wire 1 " << vcd_identifier(i) << ' ' << name << " $end\n";
  }
  oss << "$upscope $end\n$enddefinitions $end\n";

  // Gather transitions: (time, signal, level).
  struct Edge {
    std::int64_t at;
    std::size_t signal;
    bool level;
  };
  std::vector<Edge> edges;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    for (const auto& iv : timeline.busy_intervals(rows[i])) {
      edges.push_back({iv.begin.ticks(), i, true});
      edges.push_back({iv.end.ticks(), i, false});
    }
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.signal != b.signal) return a.signal < b.signal;
    return a.level < b.level;  // falling edge before rising at the same time
  });

  oss << "#0\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    oss << '0' << vcd_identifier(i) << '\n';
  }
  std::int64_t current = 0;
  for (const auto& e : edges) {
    if (e.at != current) {
      current = e.at;
      oss << '#' << current << '\n';
    }
    oss << (e.level ? '1' : '0') << vcd_identifier(e.signal) << '\n';
  }
  return oss.str();
}

std::string render_gantt(const Timeline& timeline,
                         const std::vector<std::string>& rows,
                         const GanttOptions& options) {
  TSF_ASSERT(options.cell.count() > 0, "gantt cell must be positive");
  TSF_ASSERT(options.end > options.begin, "gantt window must be non-empty");
  const std::int64_t cells =
      ((options.end - options.begin).count() + options.cell.count() - 1) /
      options.cell.count();

  std::size_t label_width = 4;
  for (const auto& name : rows) label_width = std::max(label_width, name.size());
  label_width += 2;

  std::ostringstream oss;

  // Time ruler: one label every 5 cells, in time units.
  oss << std::string(label_width, ' ');
  for (std::int64_t c = 0; c < cells; ++c) {
    if (c % 5 == 0) {
      const double tu = (options.begin + options.cell * c).to_tu();
      std::ostringstream lbl;
      lbl << tu;
      std::string s = lbl.str();
      oss << s;
      // Skip the cells the label covered (minus one; loop increments).
      std::int64_t skip = static_cast<std::int64_t>(s.size()) - 1;
      c += skip;
      for (std::int64_t k = 0; k < skip; ++k) {
        if ((c - skip + k + 1) % 5 == 0) break;  // never overlap next label
      }
    } else {
      oss << ' ';
    }
  }
  oss << '\n';

  for (const auto& name : rows) {
    const auto intervals = timeline.busy_intervals(name);
    const auto releases = timeline.marks(name, TraceKind::kRelease);

    std::string row(static_cast<std::size_t>(cells), '.');
    for (const auto& iv : intervals) {
      const std::int64_t from =
          std::max<std::int64_t>(0, (iv.begin - options.begin).count() /
                                        options.cell.count());
      // End is exclusive; a window that merely touches a cell boundary does
      // not occupy the next cell.
      const std::int64_t to = std::min<std::int64_t>(
          cells, ((iv.end - options.begin).count() + options.cell.count() - 1) /
                     options.cell.count());
      for (std::int64_t c = from; c < to; ++c) {
        row[static_cast<std::size_t>(c)] = '#';
      }
    }
    if (options.show_releases) {
      for (const auto at : releases) {
        const std::int64_t c = (at - options.begin).count() / options.cell.count();
        if (c >= 0 && c < cells) {
          auto& ch = row[static_cast<std::size_t>(c)];
          ch = (ch == '#') ? '@' : '^';
        }
      }
    }

    oss << name << std::string(label_width - name.size(), ' ') << row << '\n';
  }
  return oss.str();
}

}  // namespace tsf::common
