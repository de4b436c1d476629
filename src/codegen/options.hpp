// Code-generation options: the compilation strategies and optimization
// levels the paper's evaluation compares.
#pragma once

namespace fortd {

/// Overall compilation strategy.
enum class Strategy {
  /// Full interprocedural compilation with delayed instantiation of the
  /// computation partition, communication, and dynamic data decomposition
  /// (the paper's contribution; Figs. 2, 10).
  Interprocedural,
  /// Intraprocedural compilation only: guards and messages are
  /// instantiated immediately inside each procedure (Fig. 12 baseline).
  Intraprocedural,
  /// Run-time resolution: per-reference ownership tests and element
  /// messages (Fig. 3 baseline).
  RuntimeResolution,
};

/// Dynamic data decomposition optimization level (Fig. 16 a-d).
enum class DynDecompOpt {
  None,           // 16a: remap before/after every affected call
  Live,           // 16b: dead/duplicate remap elimination
  LiveInvariant,  // 16c: + loop-invariant remap hoisting
  Full,           // 16d: + array kills (remap in place)
};

struct CodegenOptions {
  int n_procs = 4;
  /// Worker threads for parallel code generation (1 = serial).
  /// Affects only the schedule: generated code is byte-identical for any
  /// value, and the field is excluded from procedure cache digests.
  int jobs = 1;
  Strategy strategy = Strategy::Interprocedural;
  DynDecompOpt dyn_decomp = DynDecompOpt::Full;
  /// Store nonlocal data in buffers instead of overlap regions when the
  /// overlap estimate proves insufficient (always true in effect; this
  /// flag forces buffers even when overlaps suffice).
  bool prefer_buffers = false;
  /// Emit parameterized overlaps (Fig. 14) for formal array parameters.
  bool parameterized_overlaps = false;
};

}  // namespace fortd
