// The simulated MIMD distributed-memory machine: the `sim` execution
// backend (runtime/backend.hpp) priced by a chosen CostModel. Each
// processor's logical clock advances by the model's compute and message
// costs, a message arrives at its sender's clock plus the wire time, and a
// remap barrier takes the latest clock; ExecResult::sim_time_us is the
// latest clock at the end.
#pragma once

#include "codegen/spmd.hpp"
#include "machine/cost_model.hpp"
#include "runtime/backend.hpp"

namespace fortd {

/// Simulate `program` on options.n_procs processors.
inline ExecResult simulate(const SpmdProgram& program,
                           const CostModel& cost_model = CostModel::ipsc860()) {
  return ExecutionBackend(BackendKind::Simulator, cost_model).execute(program);
}

}  // namespace fortd
