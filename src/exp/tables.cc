#include "exp/tables.h"

#include <chrono>
#include <cstdio>
#include <sstream>

#include "common/table.h"
#include "sim/simulator.h"

namespace tsf::exp {

const char* to_string(Mode mode) {
  return mode == Mode::kSimulation ? "simulation" : "execution";
}

std::array<PaperSet, 6> paper_sets() {
  return {PaperSet{1, 0}, PaperSet{2, 0}, PaperSet{3, 0},
          PaperSet{1, 2}, PaperSet{2, 2}, PaperSet{3, 2}};
}

gen::GeneratorParams paper_generator_params(const PaperSet& set,
                                            model::ServerPolicy policy) {
  gen::GeneratorParams p;
  p.task_density = set.density;
  p.average_cost_tu = 3.0;
  p.std_deviation_tu = set.std_deviation;
  p.server_capacity = common::Duration::time_units(4);
  p.server_period = common::Duration::time_units(6);
  p.nb_generation = 10;
  p.seed = 1983;
  p.horizon_periods = 10;
  p.policy = policy;
  return p;
}

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void mix_bytes(std::uint64_t* h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    *h ^= p[i];
    *h *= kFnvPrime;
  }
}

void mix_string(std::uint64_t* h, const std::string& s) {
  const std::size_t n = s.size();
  mix_bytes(h, &n, sizeof n);
  mix_bytes(h, s.data(), s.size());
}

void mix_i64(std::uint64_t* h, std::int64_t v) { mix_bytes(h, &v, sizeof v); }

void mix_double(std::uint64_t* h, double v) { mix_bytes(h, &v, sizeof v); }

}  // namespace

std::uint64_t digest_spec(const model::SystemSpec& spec) {
  std::uint64_t h = kFnvOffset;
  mix_string(&h, spec.name);
  mix_i64(&h, spec.cores);
  mix_i64(&h, spec.horizon.ticks());
  mix_i64(&h, spec.channel_latency.count());
  mix_i64(&h, static_cast<std::int64_t>(spec.server.policy));
  mix_i64(&h, spec.server.capacity.count());
  mix_i64(&h, spec.server.period.count());
  mix_i64(&h, spec.server.priority);
  mix_i64(&h, static_cast<std::int64_t>(spec.server.queue));
  mix_i64(&h, spec.server.strict_capacity ? 1 : 0);
  mix_i64(&h, spec.server.admission_margin.count());
  for (const auto& t : spec.periodic_tasks) {
    mix_string(&h, t.name);
    mix_i64(&h, t.period.count());
    mix_i64(&h, t.cost.count());
    mix_i64(&h, t.deadline.count());
    mix_i64(&h, t.start.ticks());
    mix_i64(&h, t.priority);
    mix_i64(&h, t.affinity);
  }
  for (const auto& j : spec.aperiodic_jobs) {
    mix_string(&h, j.name);
    mix_i64(&h, j.release.ticks());
    mix_i64(&h, j.cost.count());
    mix_i64(&h, j.declared_cost.count());
    mix_i64(&h, j.relative_deadline.count());
    mix_double(&h, j.value);
    mix_i64(&h, j.affinity);
    mix_string(&h, j.fires);
    mix_i64(&h, j.triggered ? 1 : 0);
    mix_i64(&h, j.migrate ? 1 : 0);
  }
  return h;
}

CellResult run_cell(const WorkUnit& unit) {
  using clock = std::chrono::steady_clock;

  // Generation is hoisted out of the timed region: materialize (and, when
  // asked, re-margin) every system first, so run_seconds measures runs.
  const auto gen_start = clock::now();
  std::vector<model::SystemSpec> specs =
      gen::RandomSystemGenerator(unit.params).generate();
  CellResult out;
  std::uint64_t digest = kFnvOffset;
  for (auto& spec : specs) {
    if (unit.admission_margin) {
      spec.server.admission_margin = *unit.admission_margin;
    }
    const std::uint64_t d = digest_spec(spec);
    mix_bytes(&digest, &d, sizeof d);
  }
  out.spec_digest = digest;
  const auto run_start = clock::now();

  std::vector<model::RunResult> runs;
  runs.reserve(specs.size());
  for (const auto& spec : specs) {
    runs.push_back(unit.mode == Mode::kSimulation
                       ? sim::simulate(spec)
                       : run_exec(spec, unit.exec_options));
  }
  out.metrics = compute_set_metrics(runs);
  const auto run_end = clock::now();
  out.gen_seconds = std::chrono::duration<double>(run_start - gen_start).count();
  out.run_seconds = std::chrono::duration<double>(run_end - run_start).count();
  return out;
}

std::vector<WorkUnit> paper_table_units(const std::string& table_id,
                                        model::ServerPolicy policy, Mode mode,
                                        const ExecOptions& exec_options) {
  std::vector<WorkUnit> units;
  units.reserve(6);
  for (const auto& set : paper_sets()) {
    WorkUnit unit;
    char label[64];
    std::snprintf(label, sizeof label, "%s/(%g,%g)", table_id.c_str(),
                  set.density, set.std_deviation);
    unit.label = label;
    unit.params = paper_generator_params(set, policy);
    unit.mode = mode;
    unit.exec_options = exec_options;
    units.push_back(std::move(unit));
  }
  return units;
}

PaperTable run_paper_table(model::ServerPolicy policy, Mode mode,
                           const ExecOptions& exec_options) {
  PaperTable table;
  std::ostringstream title;
  title << "Measures on " << model::to_string(policy) << " server "
        << to_string(mode) << "s";
  table.title = title.str();
  const auto units =
      paper_table_units(model::to_string(policy), policy, mode, exec_options);
  for (std::size_t i = 0; i < table.cells.size(); ++i) {
    table.cells[i] = run_cell(units[i]).metrics;
  }
  return table;
}

std::string format_paper_table(const PaperTable& table) {
  const auto sets = paper_sets();
  std::ostringstream oss;
  oss << table.title << '\n';
  for (int bank = 0; bank < 2; ++bank) {
    common::TextTable t;
    std::vector<std::string> header = {""};
    for (int c = 0; c < 3; ++c) {
      const auto& s = sets[static_cast<std::size_t>(bank * 3 + c)];
      std::ostringstream h;
      h << '(' << s.density << ", " << s.std_deviation << ')';
      header.push_back(h.str());
    }
    t.add_row(header);
    std::vector<std::string> aart = {"AART"}, air = {"AIR"}, asr = {"ASR"};
    for (int c = 0; c < 3; ++c) {
      const auto& m = table.cells[static_cast<std::size_t>(bank * 3 + c)];
      aart.push_back(common::fmt_fixed(m.aart, 2));
      air.push_back(common::fmt_fixed(m.air, 2));
      asr.push_back(common::fmt_fixed(m.asr, 2));
    }
    t.add_row(aart);
    t.add_row(air);
    t.add_row(asr);
    oss << t.to_string();
    if (bank == 0) oss << '\n';
  }
  return oss.str();
}

}  // namespace tsf::exp
