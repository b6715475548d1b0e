#pragma once
/// \file batcher.hpp
/// \brief Dynamic batcher: coalesces admitted requests into GEMM-friendly
/// batched session runs with bitwise-singleton-equal outputs.
///
/// The executor's plans take the batch from the feed, so the batcher holds
/// one session over the caller's graph and runs a coalesced group of n
/// lanes as exactly n lanes — no padding, one copy of the (quantized)
/// weights and packed panels per batcher. Lane i of a batched run is
/// bitwise identical to a singleton run of the same input, because every
/// kernel computes batch lanes independently with a fixed accumulation
/// order (the soak harness checks this by CRC). The session reads the
/// caller's live graph, so Graph::version() self-heal after an OTA swap or
/// scrub repair reaches batched serving too.
///
/// The power-of-two width ladder (1, 2, 4, ..., W) stays the unit of the
/// batch cap: `max_batch` is the knob the brownout ladder shrinks live, and
/// set_exec_config() caps the session at effective_max_batch(), so a feed
/// wider than the shrunken cap is refused by the session's own admission
/// check — the shrink is visible *through the Session API*, not through
/// private batcher state (test_fleet pins this).

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "runtime/session.hpp"

namespace vedliot::serve {

class DynamicBatcher {
 public:
  struct Config {
    std::int64_t max_batch = 8;   ///< widest bucket (rounded up to a power of two)
    runtime::ExecConfig exec;     ///< initial envelope; exec.max_batch 0 = max_batch
    bool quantized = false;       ///< session via make_quantized_session
  };

  /// Builds the session over \p graph, which must be single-input
  /// single-output with materialized weights and outlive the batcher.
  DynamicBatcher(const Graph& graph, Config config);

  /// Run one coalesced group. Each input tensor contributes dim-0 lanes
  /// (a batch-2 request is one tensor of batch 2); outputs align 1:1 with
  /// inputs at the same lane widths. Total lanes must be in
  /// [1, effective_max_batch()] — the caller coalesces against that cap.
  std::vector<Tensor> run(std::span<const Tensor> inputs);

  /// Forward a new envelope to the session (see file comment).
  void set_exec_config(const runtime::ExecConfig& exec);
  const runtime::ExecConfig& exec_config() const { return exec_; }

  /// Widest batch run() currently accepts: the largest bucket width not
  /// above the live cap (the full ladder width when the cap is 0).
  std::int64_t effective_max_batch() const;

  /// Bucket widths, ascending (1, 2, 4, ..., W).
  const std::vector<std::int64_t>& bucket_widths() const { return widths_; }

  /// The session that serves bucket \p width — the one session, for every
  /// ladder width (for inspection through the Session API); throws NotFound
  /// for a width that is not on the ladder.
  runtime::Session& bucket_session(std::int64_t width) const;

  std::uint64_t batches_run() const { return batches_run_; }
  std::uint64_t lanes_run() const { return lanes_run_; }

 private:
  runtime::ExecConfig exec_;
  std::vector<std::int64_t> widths_;
  std::unique_ptr<runtime::Session> session_;
  std::uint64_t batches_run_ = 0;
  std::uint64_t lanes_run_ = 0;
};

}  // namespace vedliot::serve
