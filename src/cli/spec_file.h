// Text spec files for the tsf_run tool.
//
// A small INI-style format describing one system: the server, periodic
// tasks, aperiodic jobs and run options. Times are in paper time units
// (fractions allowed; resolution 0.001 tu). Example:
//
//     [server]
//     policy   = polling          # none|background|polling|deferrable|sporadic
//     capacity = 3
//     period   = 6
//     priority = 30
//     queue    = first-fit        # fifo|first-fit|list-of-lists
//
//     [task tau1]
//     period   = 6
//     cost     = 2
//     priority = 20
//     affinity = 0                # optional core pin (multi-core runs)
//
//     [job h1]
//     release  = 2
//     cost     = 2
//     declared = 2                # optional, defaults to cost
//     affinity = 1                # optional core routing (multi-core runs)
//     fires    = h2               # fire job h2's event on completion
//     migrate  = yes              # released on the least-loaded core
//
//     [job h2]
//     triggered = yes             # no release timer; released by a fire
//     cost      = 1
//
//     [run]
//     horizon  = 18
//     mode     = both             # sim|exec|both
//     overheads = ideal           # ideal|paper
//     cores    = 4                # optional; > 1 → partitioned runtime
//     partition = ffd             # ffd|wfd|bfd bin-packing heuristic
//     policy   = semi             # partitioned|global|semi job scheduling
//     backend  = threads          # lockstep|threads execution substrate
//     quantum  = 0.5              # epoch of the multi-core VMs
//     channel_latency = 0.25      # min cross-core message in-flight time
//     rebalance = drift           # off|drift|admit online load rebalancing
//     rebalance_drift = 0.25      # measured-vs-packed utilization trigger
//     rebalance_period = 6        # window + min gap between passes (tu)
//     overload = shed             # off|shed|dover overload policy
//     overload_threshold = 0.75   # measured-utilization shed trigger
//     overload_period = 6         # shed window + min gap between passes (tu)
#pragma once

#include <string>
#include <vector>

#include "exp/exec_runner.h"
#include "exp/tables.h"
#include "model/spec.h"
#include "mp/mp_system.h"
#include "mp/partition.h"
#include "mp/rebalance.h"
#include "mp/sched_policy.h"

namespace tsf::cli {

enum class RunMode { kSim, kExec, kBoth };

struct CliConfig {
  model::SystemSpec spec;
  RunMode mode = RunMode::kBoth;
  exp::ExecOptions exec_options;  // ideal by default
  bool gantt = true;
  // When non-empty, the execution timeline is also written as a value
  // change dump (one wire per task/job) for waveform viewers.
  std::string vcd_path;
  // When non-empty, the execution trace is also written as a tsf-trace/1
  // binary append file (inspect with tools/tsf_trace).
  std::string trace_path;
  // When non-empty, runtime counters and trace aggregates are written as a
  // tsf-metrics/1 JSON document ('-' writes to stdout after the report).
  std::string metrics_json_path;
  // Bin-packing heuristic for multi-core specs (spec.cores > 1).
  mp::PackingStrategy partition = mp::PackingStrategy::kFirstFitDecreasing;
  // Run-time job scheduling across cores (exec path of multi-core specs):
  // the static partition, a global shared ready pool, or semi-partitioned
  // work stealing.
  mp::SchedPolicy policy = mp::SchedPolicy::kPartitioned;
  // Execution substrate (exec path of multi-core specs): the deterministic
  // lock-step oracle, or one pinned OS worker thread per core measuring
  // wall-clock throughput (same virtual-time results, cross-validated).
  mp::ExecBackend backend = mp::ExecBackend::kLockstep;
  // Epoch of the partitioned execution (mp::MultiVm). Also the
  // granularity at which cross-core channel messages are delivered.
  common::Duration quantum = common::Duration::time_units(1);
  // Online load rebalancing at the epoch boundaries (exec path of
  // multi-core specs): off, drift-triggered migration of pending work, or
  // drift + online admission of offline-rejected tasks.
  mp::RebalanceConfig rebalance;
};

struct ParseOutcome {
  CliConfig config;
  std::vector<std::string> errors;  // empty on success
  bool ok() const { return errors.empty(); }
};

// Parses the spec-file text and validates the result. All errors are
// collected (with line numbers where a line is at fault), not just the
// first.
ParseOutcome parse_spec(const std::string& content);

// The cross-key checks of a complete config: a threads backend, a batch
// limit or an overload policy needs the execution engine, multi-core
// features need cores > 1, pins must name a core, channel jobs must
// resolve. parse_spec runs them; a caller that changes the config after
// parsing (tsf_run's flags) runs them again. Empty when the config is valid.
std::vector<std::string> validate(const CliConfig& config);

// Applies one [run] key with the parser's own value checks: the flag form
// of a spec key (tsf_run --mode, --backend, --batch). Returns the value's
// errors, empty on success; run validate() once every key is applied.
std::vector<std::string> set_run_key(CliConfig* config, const std::string& key,
                                     const std::string& value);

// Reads and parses a file; a read failure becomes a parse error.
ParseOutcome load_spec_file(const std::string& path);

}  // namespace tsf::cli
