// D-OVER as an RTSS simulator policy (§5), applying analysis/dover.h.
// Time model: preemptive EDF over the privileged set in continuous virtual
// time, exact LST timers (deadline - remaining), feasibility on remaining
// demand, and k derived from the whole job set.
#pragma once

#include <vector>

#include "sim/job.h"

namespace tsf::sim {

DynResult simulate_dover(std::vector<DynJob> jobs);

}  // namespace tsf::sim
