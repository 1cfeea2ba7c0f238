// AlignmentEngine: multi-threaded alignment of a whole ReadSet with
// progress callbacks and cooperative abort — the hook the paper's
// early-stopping optimization attaches to.
//
// The engine is built for reuse across samples: its worker thread pool and
// per-worker AlignWorkspaces are created on the first run() and kept for
// the engine's lifetime, so a 1000-sample campaign pays thread spawn and
// scratch allocation once, not per sample (the compute analog of STAR's
// --genomeLoad LoadAndKeep).
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "align/aligner.h"
#include "align/gene_counts.h"
#include "align/junctions.h"
#include "align/params.h"
#include "align/progress.h"
#include "align/record.h"
#include "align/sam.h"
#include "align/workspace.h"
#include "common/thread_pool.h"
#include "genome/annotation.h"
#include "index/genome_index.h"
#include "io/fastq.h"
#include "io/read_batch.h"

namespace staratlas {

struct EngineRunRequest;  // align/run_request.h

enum class EngineCommand { kContinue, kAbort };

/// Invoked (serialized) whenever `progress_check_interval` more reads have
/// been committed. Work units (run() chunks, run_stream batches) commit
/// strictly in input order, so every snapshot lands on the same read count
/// at any thread count. Returning kAbort stops the run at that commit:
/// units aligned concurrently but committed later are discarded, never
/// merged.
using ProgressCallback = std::function<EngineCommand(const ProgressSnapshot&)>;

/// Fills `batch` (already cleared; arena capacity reused) with the next
/// reads of the stream. Return false once the stream is exhausted (an
/// empty batch is also treated as end of stream). Called from the
/// engine's producer thread, never concurrently with itself.
using BatchSource = std::function<bool(ReadBatch&)>;

struct EngineConfig {
  AlignerParams params;
  usize num_threads = 1;
  usize chunk_size = 256;  ///< reads per work unit
  /// Reads between progress-callback invocations; 0 = total/50.
  u64 progress_check_interval = 0;
  bool quant_gene_counts = true;
  /// Collect splice junctions (SJ.out.tab equivalent).
  bool collect_junctions = false;
  /// Minimum genomic gap treated as an intron when collecting junctions.
  u64 junction_min_intron = 21;
  /// Batch slots in flight for run_stream (the backpressure bound: peak
  /// ingest memory is this many batch arenas). 0 = num_threads + 2.
  /// run() reuses the same slot ring as its reorder window, always with
  /// num_threads + 2 slots: its reads are already resident, so a slot there
  /// holds only one chunk's accumulators, never a copy of the reads.
  usize stream_queue_depth = 0;
};

/// Accumulators for one externally scheduled chunk — the preemptible work
/// unit of the multi-tenant service. A service worker owns one sink per
/// worker slot and reuses it across chunks of *different* samples: the
/// engine zeroes it (capacity kept) at the start of every align_chunk, so
/// steady-state chunk execution stays allocation-free like run()'s own
/// workers.
struct ChunkSink {
  MappingStats stats;
  GeneCountsTable counts;  ///< sized num_genes when quant is on
  /// Null unless the engine collects junctions.
  std::unique_ptr<JunctionCollector> junctions;
};

struct AlignmentRun {
  MappingStats stats;
  GeneCountsTable gene_counts;  ///< empty when quant_gene_counts is false
  /// Per-read outcomes, index-aligned with the input. On an aborted run,
  /// entries for unprocessed reads stay kUnmapped; stats.processed is
  /// authoritative.
  std::vector<ReadOutcome> outcomes;
  /// Splice junctions (empty unless collect_junctions was set).
  std::vector<Junction> junctions;
  ProgressLog progress_log;
  bool aborted = false;
  double wall_seconds = 0.0;  ///< measured real time of the run

  /// Reads and bases the input delivered: the whole ReadSet in memory
  /// mode, the whole file in sharded mode, and what the producer parsed
  /// in stream mode. A stream cut short by an abort stops parsing near
  /// the abort point, so only a completed stream's count is its total.
  u64 input_reads = 0;
  u64 input_bases = 0;

  // run_stream telemetry (zero after run()).
  u64 stream_batches = 0;  ///< batches committed (aborted runs: up to abort)
  /// Heap allocations made on consumer (alignment) threads. With a warmed
  /// engine, quant/junctions off and no callback this is 0 — the streaming
  /// consume path is allocation-free at steady state.
  u64 stream_consumer_allocs = 0;
  /// Sum of the recycled batch-slot footprints (arena + outcome capacity):
  /// the streaming path's peak ingest memory, bounded by queue depth, not
  /// by sample size.
  u64 stream_peak_arena_bytes = 0;
};

class AlignmentEngine {
 public:
  /// `annotation` may be null when gene counting is disabled.
  AlignmentEngine(const GenomeIndex& index, const Annotation* annotation,
                  EngineConfig config);
  ~AlignmentEngine();

  const EngineConfig& config() const { return config_; }

  /// The single front door: validates the request (every combination rule
  /// in EngineRunRequest::validate) and dispatches to the in-memory,
  /// streaming or sharded execution strategy. The entrypoints below are
  /// thin compatibility wrappers over this. See align/run_request.h.
  AlignmentRun execute(const EngineRunRequest& request);

  /// Thin wrapper: execute() in memory mode. Aligns the read set in
  /// chunk_size chunks, claimed straight from `reads` (no copy, no extra
  /// thread), aligned in parallel and COMMITTED strictly in input order.
  /// So outcomes, stats, gene counts, junctions, every progress snapshot
  /// and the processed count an early-stop abort lands on are identical at
  /// every thread count, and identical to run_stream with batch size ==
  /// chunk_size. Abort timing has chunk granularity. Not reentrant: one
  /// run at a time per engine (the worker pool, workspaces and slot ring
  /// are engine-owned and reused run to run).
  AlignmentRun run(const ReadSet& reads, const ProgressCallback& callback = {});

  /// Thin wrapper: execute() in stream mode over a pull source.
  /// Streaming form: a producer thread pulls batches from `source` while
  /// the worker pool aligns them, overlapping parse/decode with alignment.
  /// A bounded ring of `stream_queue_depth` recycled batch slots provides
  /// backpressure, so peak ingest memory is a few batch arenas regardless
  /// of sample size. Batches are aligned in parallel but COMMITTED
  /// (stats/outcome merge, progress checkpoints, abort decisions) strictly
  /// in stream order, which makes every snapshot — and the processed count
  /// an early-stop abort lands on — bit-identical across thread counts and
  /// identical to a single-threaded run() whose chunk_size equals the
  /// batch size. `total_reads_hint` sizes the outcome vector and the
  /// default checkpoint interval (pass the known read count when you have
  /// it; 0 degrades to per-batch checkpoints). Not reentrant, but freely
  /// interleavable with run() on the same engine.
  AlignmentRun run_stream(const BatchSource& source, u64 total_reads_hint = 0,
                          const ProgressCallback& callback = {});

  /// Thin wrapper: execute() in stream mode over an in-memory ReadSet,
  /// batching `batch_size` reads at a time (tests and benchmarks; the
  /// pipeline streams from the SRA decoder instead).
  AlignmentRun run_stream_reads(const ReadSet& reads, usize batch_size,
                                const ProgressCallback& callback = {});

  // --- Chunk-granular scheduling hooks -------------------------------
  // run() owns its chunk queue; an external scheduler (the multi-tenant
  // service) instead interleaves chunks of MANY samples over one engine,
  // preempting a long sample between chunks. The hooks expose the same
  // per-chunk alignment body run()'s workers execute, so per-read results
  // are identical to a run() over the whole sample.

  /// Creates the worker pool and workspaces if needed and returns the
  /// number of worker slots (== num_threads). NOT thread-safe: call once
  /// before spawning external workers.
  usize prepare_worker_slots();

  /// A sink dimensioned for this engine's quant/junction configuration.
  ChunkSink make_chunk_sink() const;

  /// Aligns reads [begin, end) of `reads`, writing outcomes[r - begin]
  /// and accumulating stats/counts/junctions into `sink` (which is reset
  /// first, keeping capacity). Uses worker slot `slot`'s workspace:
  /// distinct slots may execute concurrently, the same slot must not.
  /// Requires prepare_worker_slots() first and outcomes.size() >= end -
  /// begin. Merging every chunk's sink of a sample reproduces run()'s
  /// stats, counts and junctions for that sample exactly (field-wise sums
  /// of chunk-local values, as run()'s own merge does).
  void align_chunk(const ReadSet& reads, usize begin, usize end, usize slot,
                   ChunkSink& sink, std::span<ReadOutcome> outcomes) const;

 private:
  struct StreamSlot;

  /// The real in-memory execution body (execute()'s kMemory strategy):
  /// its workers run align_chunk into the slot ring.
  /// A non-null `sam` receives each committed chunk's SAM records.
  AlignmentRun run_memory(const ReadSet& reads,
                          const ProgressCallback& callback,
                          const SamSink& sam);
  /// The real streaming execution body (execute()'s kStream strategy).
  AlignmentRun run_streaming(const BatchSource& source, u64 total_reads_hint,
                             const ProgressCallback& callback,
                             const SamSink& sam);

  /// The per-unit alignment body every path shares: aligns the views in
  /// `ws.batch.views`, writing outcomes[i] and accumulating into `sink`
  /// (zeroed first, capacity kept).
  void align_views(AlignWorkspace& ws, ChunkSink& sink,
                   std::span<ReadOutcome> outcomes) const;
  /// Creates the worker pool and per-worker workspaces on first use.
  void ensure_workers();
  /// Creates (or grows) the recycled batch-slot ring.
  void ensure_stream_slots(usize count);

  const GenomeIndex* index_;
  const Annotation* annotation_;
  EngineConfig config_;
  /// Exon-interval tables are built once and shared by every run.
  std::unique_ptr<GeneCounter> counter_;
  /// Lazily created on the first multi-threaded run; reused thereafter.
  std::unique_ptr<ThreadPool> pool_;
  /// One workspace per worker slot (num_threads of them), reused run to
  /// run so steady-state alignment stops allocating.
  std::vector<std::unique_ptr<AlignWorkspace>> workspaces_;
  /// Recycled work slots (batch arena + per-unit accumulators): the
  /// streaming ring and run()'s reorder window, reused across runs so
  /// steady-state alignment stops allocating.
  std::vector<std::unique_ptr<StreamSlot>> stream_slots_;
};

}  // namespace staratlas
