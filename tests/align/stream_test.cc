// run_stream must be a drop-in for run(): identical outcomes, stats, gene
// counts and junctions at every thread count, an early-stop abort landing
// on the same committed read count, bounded peak ingest memory, and an
// allocation-free steady state on the consumer side. run() commits its
// chunks in input order too, so its abort point matches run_stream's.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>

#include "align/engine.h"
#include "common/alloc_counter.h"
#include "common/error.h"
#include "sim/library_profile.h"
#include "sim/read_simulator.h"
#include "testutil.h"

namespace staratlas {
namespace {

using staratlas::testing::world;

ReadSet stream_reads(usize n = 600, u64 seed = 4242) {
  const auto& w = world();
  return w.simulator->simulate(bulk_rna_profile(), n, Rng(seed));
}

EngineConfig stream_config(usize num_threads) {
  EngineConfig config;
  config.num_threads = num_threads;
  config.chunk_size = 32;
  config.collect_junctions = true;
  return config;
}

void expect_identical(const AlignmentRun& a, const AlignmentRun& b,
                      const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (usize i = 0; i < a.outcomes.size(); ++i) {
    ASSERT_EQ(a.outcomes[i], b.outcomes[i]) << "read " << i;
  }
  EXPECT_EQ(a.stats.processed, b.stats.processed);
  EXPECT_EQ(a.stats.unique, b.stats.unique);
  EXPECT_EQ(a.stats.multi, b.stats.multi);
  EXPECT_EQ(a.stats.too_many, b.stats.too_many);
  EXPECT_EQ(a.stats.unmapped, b.stats.unmapped);
  EXPECT_EQ(a.stats.seeds_generated, b.stats.seeds_generated);
  EXPECT_EQ(a.stats.windows_scored, b.stats.windows_scored);
  EXPECT_EQ(a.stats.bases_compared, b.stats.bases_compared);

  ASSERT_EQ(a.gene_counts.per_gene.size(), b.gene_counts.per_gene.size());
  for (usize g = 0; g < a.gene_counts.per_gene.size(); ++g) {
    ASSERT_EQ(a.gene_counts.per_gene[g], b.gene_counts.per_gene[g])
        << "gene " << g;
  }
  EXPECT_EQ(a.gene_counts.n_unmapped, b.gene_counts.n_unmapped);
  EXPECT_EQ(a.gene_counts.n_multimapping, b.gene_counts.n_multimapping);
  EXPECT_EQ(a.gene_counts.n_no_feature, b.gene_counts.n_no_feature);
  EXPECT_EQ(a.gene_counts.n_ambiguous, b.gene_counts.n_ambiguous);

  ASSERT_EQ(a.junctions.size(), b.junctions.size());
  for (usize j = 0; j < a.junctions.size(); ++j) {
    EXPECT_EQ(a.junctions[j].contig, b.junctions[j].contig) << "junction " << j;
    EXPECT_EQ(a.junctions[j].intron_start, b.junctions[j].intron_start)
        << "junction " << j;
    EXPECT_EQ(a.junctions[j].intron_end, b.junctions[j].intron_end)
        << "junction " << j;
    EXPECT_EQ(a.junctions[j].unique_reads, b.junctions[j].unique_reads)
        << "junction " << j;
    EXPECT_EQ(a.junctions[j].multi_reads, b.junctions[j].multi_reads)
        << "junction " << j;
    EXPECT_EQ(a.junctions[j].max_overhang, b.junctions[j].max_overhang)
        << "junction " << j;
  }
}

TEST(Stream, MatchesBatchRunAcrossThreadCounts) {
  const auto& w = world();
  const ReadSet reads = stream_reads();

  AlignmentEngine batch_engine(w.index111, &w.synthesizer->annotation(),
                               stream_config(1));
  const AlignmentRun reference = batch_engine.run(reads);

  for (const usize threads : {usize{1}, usize{4}, usize{8}}) {
    AlignmentEngine engine(w.index111, &w.synthesizer->annotation(),
                           stream_config(threads));
    const AlignmentRun streamed = engine.run_stream_reads(reads, 32);
    expect_identical(reference, streamed,
                     "threads=" + std::to_string(threads));
    EXPECT_FALSE(streamed.aborted);
    EXPECT_EQ(streamed.stream_batches, (reads.size() + 31) / 32);
  }
}

TEST(Stream, EarlyStopAbortsAtIdenticalReadCount) {
  const auto& w = world();
  const ReadSet reads = stream_reads();

  // Abort at the first checkpoint: batch mode on one thread defines the
  // reference processed count; in-order commit must reproduce it exactly
  // at every thread count.
  auto abort_at_first = [](const ProgressSnapshot&) {
    return EngineCommand::kAbort;
  };
  EngineConfig reference_config = stream_config(1);
  reference_config.progress_check_interval = 100;
  AlignmentEngine batch_engine(w.index111, &w.synthesizer->annotation(),
                               reference_config);
  const AlignmentRun reference = batch_engine.run(reads, abort_at_first);
  ASSERT_TRUE(reference.aborted);
  ASSERT_LT(reference.stats.processed, reads.size());

  for (const usize threads : {usize{1}, usize{4}, usize{8}}) {
    EngineConfig config = stream_config(threads);
    config.progress_check_interval = 100;
    AlignmentEngine engine(w.index111, &w.synthesizer->annotation(), config);
    const AlignmentRun streamed =
        engine.run_stream_reads(reads, config.chunk_size, abort_at_first);
    expect_identical(reference, streamed,
                     "abort threads=" + std::to_string(threads));
    EXPECT_TRUE(streamed.aborted);
  }
}

void expect_same_progress_rows(const AlignmentRun& a, const AlignmentRun& b,
                               const std::string& label) {
  SCOPED_TRACE(label);
  const auto& rows_a = a.progress_log.entries();
  const auto& rows_b = b.progress_log.entries();
  ASSERT_EQ(rows_a.size(), rows_b.size());
  for (usize i = 0; i < rows_a.size(); ++i) {
    EXPECT_EQ(rows_a[i].total_reads, rows_b[i].total_reads) << "row " << i;
    EXPECT_EQ(rows_a[i].processed, rows_b[i].processed) << "row " << i;
    EXPECT_EQ(rows_a[i].unique, rows_b[i].unique) << "row " << i;
    EXPECT_EQ(rows_a[i].multi, rows_b[i].multi) << "row " << i;
    EXPECT_EQ(rows_a[i].too_many, rows_b[i].too_many) << "row " << i;
    EXPECT_EQ(rows_a[i].unmapped, rows_b[i].unmapped) << "row " << i;
  }
}

TEST(Stream, MemoryRunAbortIsIdenticalAcrossThreadsChunksAndModes) {
  const auto& w = world();
  const ReadSet reads = stream_reads();
  constexpr u64 kInterval = 100;
  // A slow callback gives concurrent workers time to claim and align later
  // chunks before the abort is known; those must still be discarded.
  auto abort_at_first = [](const ProgressSnapshot&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    return EngineCommand::kAbort;
  };

  // A small chunk (many chunks in flight per checkpoint) and one larger
  // than half the sample (two chunks: the second is usually aligned
  // concurrently with the first and must be discarded, not merged).
  for (const usize chunk : {usize{32}, usize{320}}) {
    const std::string chunk_label = "chunk=" + std::to_string(chunk);
    EngineConfig reference_config = stream_config(1);
    reference_config.chunk_size = chunk;
    reference_config.progress_check_interval = kInterval;
    AlignmentEngine reference_engine(
        w.index111, &w.synthesizer->annotation(), reference_config);
    const AlignmentRun reference = reference_engine.run(reads, abort_at_first);
    ASSERT_TRUE(reference.aborted) << chunk_label;
    // The abort lands on the first chunk boundary at or past the interval.
    EXPECT_EQ(reference.stats.processed,
              std::min<u64>(reads.size(),
                            (kInterval + chunk - 1) / chunk * chunk))
        << chunk_label;
    ASSERT_LT(reference.stats.processed, reads.size()) << chunk_label;

    for (const usize threads : {usize{1}, usize{2}, usize{4}, usize{8}}) {
      const std::string label =
          chunk_label + " threads=" + std::to_string(threads);
      EngineConfig config = stream_config(threads);
      config.chunk_size = chunk;
      config.progress_check_interval = kInterval;
      AlignmentEngine engine(w.index111, &w.synthesizer->annotation(),
                             config);

      const AlignmentRun memory = engine.run(reads, abort_at_first);
      EXPECT_TRUE(memory.aborted) << label;
      expect_identical(reference, memory, "memory " + label);
      expect_same_progress_rows(reference, memory, "memory " + label);
      // AlignmentRun::outcomes: reads past the abort stay kUnmapped, even
      // those a concurrent worker had already aligned.
      for (usize r = memory.stats.processed; r < memory.outcomes.size();
           ++r) {
        ASSERT_EQ(memory.outcomes[r], ReadOutcome::kUnmapped)
            << label << " read " << r;
      }

      const AlignmentRun streamed =
          engine.run_stream_reads(reads, chunk, abort_at_first);
      EXPECT_TRUE(streamed.aborted) << label;
      expect_identical(reference, streamed, "stream " + label);
      expect_same_progress_rows(reference, streamed, "stream " + label);
    }
  }
}

TEST(Stream, ReusedEngineInterleavesRunAndRunStream) {
  const auto& w = world();
  const ReadSet sample_a = stream_reads(400, 7);
  const ReadSet sample_b = stream_reads(250, 8);

  AlignmentEngine engine(w.index111, &w.synthesizer->annotation(),
                         stream_config(4));
  const AlignmentRun a_batch = engine.run(sample_a);
  const AlignmentRun b_stream = engine.run_stream_reads(sample_b, 32);
  const AlignmentRun a_stream = engine.run_stream_reads(sample_a, 32);
  const AlignmentRun b_batch = engine.run(sample_b);

  expect_identical(a_batch, a_stream, "sample_a batch vs stream");
  expect_identical(b_batch, b_stream, "sample_b batch vs stream");
}

TEST(Stream, ConsumerSideIsAllocationFreeAtSteadyState) {
  const auto& w = world();
  const ReadSet reads = stream_reads(500, 99);

  // Gene counting and junction collection merge into heap-backed tables
  // by design; the allocation-free claim is about the align/commit path.
  // One consumer thread pins the whole stream to one workspace: with
  // several consumers the scheduler decides which workspaces see work, so
  // a workspace left cold by the warm run can take batches in the
  // measured run and its first-touch growth would read as a steady-state
  // allocation. (The producer still runs on its own thread.)
  EngineConfig config;
  config.num_threads = 1;
  config.quant_gene_counts = false;
  config.collect_junctions = false;
  AlignmentEngine engine(w.index111, nullptr, config);

  // First run warms every slot arena, outcome buffer and workspace to the
  // workload's high-water marks.
  engine.run_stream_reads(reads, 64);
  const AlignmentRun warm = engine.run_stream_reads(reads, 64);
  EXPECT_EQ(warm.stream_consumer_allocs, 0u)
      << "streaming consumer path allocated at steady state";
  EXPECT_EQ(warm.stats.processed, reads.size());
}

TEST(Stream, PeakIngestMemoryBoundedByQueueDepth) {
  const auto& w = world();
  const ReadSet reads = stream_reads(2'000, 11);

  EngineConfig config;
  config.num_threads = 4;
  config.quant_gene_counts = false;
  config.stream_queue_depth = 4;
  AlignmentEngine engine(w.index111, nullptr, config);
  const AlignmentRun run = engine.run_stream_reads(reads, 50);

  EXPECT_EQ(run.stats.processed, reads.size());
  ASSERT_GT(run.stream_peak_arena_bytes, 0u);
  // 4 slots x 50 reads in flight out of 2000: the resident batch arenas
  // must stay well under the whole decoded FASTQ.
  EXPECT_LT(run.stream_peak_arena_bytes, reads.fastq_bytes.bytes());
}

TEST(Stream, EmptyStreamCompletesCleanly) {
  const auto& w = world();
  EngineConfig config;
  config.num_threads = 2;
  config.quant_gene_counts = false;
  AlignmentEngine engine(w.index111, nullptr, config);
  const BatchSource empty = [](ReadBatch&) { return false; };
  const AlignmentRun run = engine.run_stream(empty, 0);
  EXPECT_EQ(run.stats.processed, 0u);
  EXPECT_FALSE(run.aborted);
  EXPECT_TRUE(run.outcomes.empty());
  EXPECT_EQ(run.stream_batches, 0u);
}

TEST(Stream, ProducerExceptionPropagates) {
  const auto& w = world();
  const ReadSet reads = stream_reads(100, 3);
  EngineConfig config;
  config.num_threads = 2;
  config.quant_gene_counts = false;
  AlignmentEngine engine(w.index111, nullptr, config);
  usize calls = 0;
  const BatchSource flaky = [&](ReadBatch& batch) {
    if (++calls == 3) throw IoError("decoder blew up");
    for (usize i = 0; i < 10; ++i) {
      const auto& rec = reads.reads[(calls - 1) * 10 + i];
      batch.append(rec.name, rec.sequence, rec.quality);
    }
    return true;
  };
  EXPECT_THROW(engine.run_stream(flaky, reads.size()), IoError);
  // The engine must be reusable after a producer failure.
  const AlignmentRun run = engine.run_stream_reads(reads, 16);
  EXPECT_EQ(run.stats.processed, reads.size());
}

}  // namespace
}  // namespace staratlas
