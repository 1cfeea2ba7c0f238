// EngineRunRequest: the single validated entrypoint in front of the
// engine's in-memory, streaming and sharded paths. Validation rules live
// in exactly one place (EngineRunRequest::validate), and execute() must
// reproduce the legacy entrypoints' results identically — they are now
// thin wrappers over it.
#include "align/run_request.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <string_view>
#include <utility>

#include "align/aligner.h"
#include "align/engine.h"
#include "align/sam.h"
#include "align/sharded.h"
#include "common/error.h"
#include "io/fastq.h"
#include "sim/library_profile.h"
#include "sim/read_simulator.h"
#include "testutil.h"

namespace staratlas {
namespace {

using staratlas::testing::world;

ReadSet sample_reads(usize n = 400, u64 seed = 77) {
  const auto& w = world();
  return w.simulator->simulate(bulk_rna_profile(), n, Rng(seed));
}

std::string to_fastq(const ReadSet& reads) {
  std::ostringstream out;
  write_fastq(out, reads.reads);
  return out.str();
}

EngineConfig engine_config(usize threads = 2) {
  EngineConfig config;
  config.num_threads = threads;
  config.collect_junctions = true;
  return config;
}

void expect_same_outcomes(const AlignmentRun& a, const AlignmentRun& b) {
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (usize i = 0; i < a.outcomes.size(); ++i) {
    ASSERT_EQ(a.outcomes[i], b.outcomes[i]) << "read " << i;
  }
  EXPECT_EQ(a.stats.processed, b.stats.processed);
  EXPECT_EQ(a.stats.unique, b.stats.unique);
  EXPECT_EQ(a.stats.multi, b.stats.multi);
  EXPECT_EQ(a.stats.unmapped, b.stats.unmapped);
}

// ---- validation: every rule rejected in the one shared place ----------

TEST(RunRequest, RejectsMissingAndAmbiguousSources) {
  EngineRunRequest request;
  EXPECT_THROW(request.validate(), InvalidArgument);

  const ReadSet reads = sample_reads(10);
  const std::string fastq = to_fastq(reads);
  request.reads = &reads;
  request.fastq_text = fastq;
  EXPECT_THROW(request.validate(), InvalidArgument);
}

TEST(RunRequest, RejectsDegenerateCounts) {
  const ReadSet reads = sample_reads(10);
  EngineRunRequest request;
  request.reads = &reads;
  request.num_shards = 0;
  EXPECT_THROW(request.validate(), InvalidArgument);

  request.num_shards = 1;
  request.batch_reads = 0;
  EXPECT_THROW(request.validate(), InvalidArgument);
}

TEST(RunRequest, RejectsShardingWithoutRawText) {
  const ReadSet reads = sample_reads(10);
  EngineRunRequest request;
  request.reads = &reads;
  request.mode = EngineRunRequest::Mode::kSharded;
  EXPECT_THROW(request.validate(), InvalidArgument);

  EngineRunRequest implied;
  implied.reads = &reads;
  implied.num_shards = 4;  // kAuto resolves to sharded, which needs text
  EXPECT_THROW(implied.validate(), InvalidArgument);
}

TEST(RunRequest, RejectsEarlyStopWithSharding) {
  // Historically the CLI enforced this; now every caller inherits it.
  const std::string fastq = to_fastq(sample_reads(10));
  EngineRunRequest request;
  request.fastq_text = fastq;
  request.num_shards = 4;
  request.early_stop = EarlyStopPolicy{};
  EXPECT_THROW(request.validate(), InvalidArgument);
}

TEST(RunRequest, RejectsInvalidEarlyStopPolicy) {
  const ReadSet reads = sample_reads(10);
  EngineRunRequest request;
  request.reads = &reads;
  request.early_stop = EarlyStopPolicy{};
  request.early_stop.checkpoint_fraction = 1.5;
  EXPECT_THROW(request.validate(), InvalidArgument);
}

TEST(RunRequest, RejectsShardedOutOnNonShardedModes) {
  const ReadSet reads = sample_reads(10);
  ShardedRun sharded;
  EngineRunRequest request;
  request.reads = &reads;
  request.sharded_out = &sharded;
  EXPECT_THROW(request.validate(), InvalidArgument);
}

TEST(RunRequest, AutoModeResolution) {
  const ReadSet reads = sample_reads(10);
  const std::string fastq = to_fastq(reads);

  EngineRunRequest memory;
  memory.reads = &reads;
  EXPECT_EQ(memory.resolved_mode(), EngineRunRequest::Mode::kMemory);

  EngineRunRequest stream;
  stream.fastq_text = fastq;
  EXPECT_EQ(stream.resolved_mode(), EngineRunRequest::Mode::kStream);

  EngineRunRequest sharded;
  sharded.fastq_text = fastq;
  sharded.num_shards = 4;
  EXPECT_EQ(sharded.resolved_mode(), EngineRunRequest::Mode::kSharded);
}

// ---- execute() parity with the legacy entrypoints ---------------------

TEST(RunRequest, ExecuteMemoryMatchesLegacyRun) {
  const auto& w = world();
  const ReadSet reads = sample_reads();
  AlignmentEngine engine(w.index111, &w.synthesizer->annotation(),
                         engine_config());
  const AlignmentRun legacy = engine.run(reads);

  EngineRunRequest request;
  request.reads = &reads;
  const AlignmentRun via_request = engine.execute(request);
  expect_same_outcomes(legacy, via_request);
}

TEST(RunRequest, ExecuteStreamFromTextMatchesMemoryRun) {
  const auto& w = world();
  const ReadSet reads = sample_reads();
  const std::string fastq = to_fastq(reads);
  AlignmentEngine engine(w.index111, &w.synthesizer->annotation(),
                         engine_config());
  const AlignmentRun memory = engine.run(reads);

  EngineRunRequest request;
  request.fastq_text = fastq;
  request.batch_reads = 64;
  request.total_reads_hint = reads.size();
  const AlignmentRun streamed = engine.execute(request);
  expect_same_outcomes(memory, streamed);
}

TEST(RunRequest, ExecuteShardedMatchesDirectScatterGather) {
  const auto& w = world();
  const ReadSet reads = sample_reads();
  const std::string fastq = to_fastq(reads);
  const Annotation* annotation = &w.synthesizer->annotation();

  ShardedConfig direct_config;
  direct_config.engine = engine_config();
  direct_config.num_shards = 4;
  const ShardedRun direct =
      align_sharded(fastq, w.index111, annotation, direct_config);

  AlignmentEngine engine(w.index111, annotation, engine_config());
  ShardedRun details;
  EngineRunRequest request;
  request.fastq_text = fastq;
  request.num_shards = 4;
  const AlignmentRun merged = engine.execute(request);
  expect_same_outcomes(direct.merged, merged);

  // With sharded_out the per-shard detail comes back too.
  request.sharded_out = &details;
  const AlignmentRun merged_again = engine.execute(request);
  expect_same_outcomes(direct.merged, merged_again);
  EXPECT_EQ(details.plan.num_shards(), 4u);
}

TEST(RunRequest, EngineOwnedEarlyStopAborts) {
  const auto& w = world();
  // Single-cell-shaped reads map poorly, tripping the early-stop rule.
  const ReadSet reads =
      w.simulator->simulate(single_cell_profile(), 400, Rng(99));
  AlignmentEngine engine(w.index111, &w.synthesizer->annotation(),
                         engine_config());

  EngineRunRequest request;
  request.reads = &reads;
  request.early_stop = EarlyStopPolicy{};
  EarlyStopDecision decision;
  request.early_stop_out = &decision;
  const AlignmentRun run = engine.execute(request);
  EXPECT_TRUE(run.aborted);
  EXPECT_TRUE(decision.evaluated);
  EXPECT_TRUE(decision.stopped);
  EXPECT_LT(run.stats.processed, reads.size());
}

TEST(RunRequest, UserCallbackStillSeesSnapshots) {
  const auto& w = world();
  const ReadSet reads = sample_reads(200);
  AlignmentEngine engine(w.index111, &w.synthesizer->annotation(),
                         engine_config());
  usize snapshots = 0;
  EngineRunRequest request;
  request.reads = &reads;
  request.callback = [&](const ProgressSnapshot&) {
    ++snapshots;
    return EngineCommand::kContinue;
  };
  engine.execute(request);
  EXPECT_GT(snapshots, 0u);
}

// The SAM oracle: every read re-aligned on its own and written through
// SamWriter, the single-threaded second pass the engine's in-run SAM
// rendering replaces. Returns the records of the first `num_reads` reads
// (no header) and their count.
std::pair<std::string, u64> per_read_sam(const ReadSet& reads,
                                         usize num_reads) {
  const auto& w = world();
  std::ostringstream header_only;
  SamWriter header_writer(header_only, w.index111);
  std::ostringstream out;
  SamWriter writer(out, w.index111);
  const Aligner aligner(w.index111, AlignerParams{});
  MappingStats scratch;
  for (usize r = 0; r < num_reads; ++r) {
    writer.write_read(reads.reads[r],
                      aligner.align(reads.reads[r].sequence, scratch));
  }
  return {out.str().substr(header_only.str().size()),
          writer.records_written()};
}

TEST(RunRequest, SamSinkMatchesPerReadWriterInEveryMode) {
  const auto& w = world();
  const ReadSet reads = sample_reads(300, 5);
  const std::string fastq = to_fastq(reads);
  const auto [expect, expect_records] = per_read_sam(reads, reads.size());
  ASSERT_GT(expect_records, reads.size() / 2);

  for (const usize threads : {1, 4}) {
    AlignmentEngine engine(w.index111, &w.synthesizer->annotation(),
                           engine_config(threads));
    for (const usize shards : {1, 3}) {
      for (const bool from_text : {true, false}) {
        if (shards > 1 && !from_text) continue;
        std::string got;
        u64 records = 0;
        EngineRunRequest request;
        if (from_text) {
          request.fastq_text = fastq;
        } else {
          request.reads = &reads;
        }
        request.num_shards = shards;
        request.batch_reads = 64;
        request.sam = [&](std::string_view text, u64 count) {
          got += text;
          records += count;
        };
        engine.execute(request);
        EXPECT_EQ(got, expect) << threads << " threads, " << shards
                               << " shards, text " << from_text;
        EXPECT_EQ(records, expect_records);
      }
    }
  }
}

TEST(RunRequest, SamSinkStopsAtTheAbortPoint) {
  const auto& w = world();
  const ReadSet reads =
      w.simulator->simulate(single_cell_profile(), 1200, Rng(99));
  const std::string fastq = to_fastq(reads);
  for (const bool from_text : {true, false}) {
    for (const usize threads : {1, 4}) {
      AlignmentEngine engine(w.index111, &w.synthesizer->annotation(),
                             engine_config(threads));
      std::string got;
      u64 records = 0;
      EngineRunRequest request;
      if (from_text) {
        request.fastq_text = fastq;
        request.total_reads_hint = reads.size();
      } else {
        request.reads = &reads;
      }
      request.early_stop = EarlyStopPolicy{};
      request.sam = [&](std::string_view text, u64 count) {
        got += text;
        records += count;
      };
      const AlignmentRun run = engine.execute(request);
      ASSERT_TRUE(run.aborted);
      ASSERT_LT(run.stats.processed, reads.size());
      // Exactly the committed reads' records, none from units aligned
      // past the abort.
      const auto [expect, expect_records] =
          per_read_sam(reads, run.stats.processed);
      EXPECT_EQ(got, expect) << threads << " threads, text " << from_text;
      EXPECT_EQ(records, expect_records);
    }
  }
}

TEST(RunRequest, ReportsInputReadsAndBases) {
  const auto& w = world();
  const ReadSet reads = sample_reads(250, 8);
  const std::string fastq = to_fastq(reads);
  u64 bases = 0;
  for (const FastqRecord& read : reads.reads) bases += read.sequence.size();
  AlignmentEngine engine(w.index111, &w.synthesizer->annotation(),
                         engine_config());

  EngineRunRequest from_text;
  from_text.fastq_text = fastq;
  EngineRunRequest in_memory;
  in_memory.reads = &reads;
  EngineRunRequest sharded;
  sharded.fastq_text = fastq;
  sharded.num_shards = 3;
  for (const EngineRunRequest* request : {&from_text, &in_memory, &sharded}) {
    const AlignmentRun run = engine.execute(*request);
    EXPECT_EQ(run.input_reads, reads.size()) << to_string(request->resolved_mode());
    EXPECT_EQ(run.input_bases, bases) << to_string(request->resolved_mode());
  }
}

}  // namespace
}  // namespace staratlas
