// EngineRunRequest: the single front door to the alignment engine.
//
// Historically the engine grew four entrypoints — run() over an in-memory
// ReadSet, run_stream() over a pull source, align_sharded() over raw FASTQ
// bytes, and the service's chunk-hook path — each with its own knobs and
// its own scattered validation (the CLI rejected early-stop x shards, the
// service re-checked read counts, benches passed positional flags). An
// EngineRunRequest names every option once, validates every combination
// rule in ONE place (validate()), and AlignmentEngine::execute() dispatches
// to the right execution strategy. The legacy entrypoints survive as thin
// wrappers that build a request (see engine.h) so existing callers keep
// working; new code should build requests.
//
// The multi-tenant service is the fourth consumer: it validates each
// submission as a kMemory request at admission (same rules, same error
// text) and then executes it chunk-by-chunk through the engine's
// align_chunk hooks — execute() is a single blocking call and cannot be
// preempted between chunks, which is the service's whole job.
#pragma once

#include <string_view>

#include "align/early_stopping.h"
#include "align/engine.h"
#include "align/sam.h"

namespace staratlas {

struct ShardedRun;  // align/sharded.h

struct EngineRunRequest {
  /// Execution strategy. kAuto picks from the supplied source and shard
  /// count: shards > 1 -> kSharded, a BatchSource or FASTQ text ->
  /// kStream, a ReadSet -> kMemory.
  enum class Mode : u8 { kAuto = 0, kMemory, kStream, kSharded };

  // ---- input source: set exactly one --------------------------------
  /// In-memory read set (kMemory, or kStream via internal batching).
  const ReadSet* reads = nullptr;
  /// Pull-based streaming source (kStream only).
  BatchSource batches;
  /// Raw FASTQ bytes — an mmap'd file or decoded container (kStream or
  /// kSharded).
  std::string_view fastq_text;

  Mode mode = Mode::kAuto;

  /// Shard fan-out over fastq_text; > 1 implies kSharded. Early stopping
  /// is rejected with shards (the gather layer has no abort protocol).
  usize num_shards = 1;
  /// Reads per internally built batch (fastq_text / reads streaming and
  /// the sharded scatter).
  usize batch_reads = 256;
  /// Total read count when known: sizes the outcome vector and the
  /// default progress-checkpoint interval for pull-source streams.
  u64 total_reads_hint = 0;

  /// Early stopping attached engine-side: the request owns the policy and
  /// execute() runs the controller, instead of every caller hand-wiring
  /// one. Disabled by default.
  EarlyStopPolicy early_stop{.enabled = false};
  /// Where execute() records the early-stop decision (optional; must
  /// outlive the call).
  EarlyStopDecision* early_stop_out = nullptr;

  /// User progress callback, invoked before the early-stop controller;
  /// an abort from either wins.
  ProgressCallback callback;

  /// When set, SAM records are rendered by the workers as they align and
  /// handed to this sink in input order, one committed unit at a time
  /// (sharded runs buffer each shard's records and deliver them shard by
  /// shard). Units aligned past an early-stop abort never reach it, so an
  /// aborted run delivers exactly the records of the reads it counted.
  /// Called serially, never concurrently with itself.
  SamSink sam;

  /// Where execute() deposits the full scatter/gather result for kSharded
  /// runs (optional; the merged AlignmentRun is always returned).
  ShardedRun* sharded_out = nullptr;

  /// The mode kAuto resolves to (validation rules applied against this).
  Mode resolved_mode() const;

  /// The single validation point for every entrypoint: exactly one
  /// source, mode/source compatibility, shard/early-stop exclusion,
  /// policy parameter ranges. Throws InvalidArgument.
  void validate() const;
};

const char* to_string(EngineRunRequest::Mode mode);

}  // namespace staratlas
