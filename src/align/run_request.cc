#include "align/run_request.h"

#include <algorithm>
#include <optional>

#include "align/sharded.h"
#include "common/error.h"
#include "io/fastq_block.h"

namespace staratlas {

const char* to_string(EngineRunRequest::Mode mode) {
  switch (mode) {
    case EngineRunRequest::Mode::kAuto: return "auto";
    case EngineRunRequest::Mode::kMemory: return "memory";
    case EngineRunRequest::Mode::kStream: return "stream";
    case EngineRunRequest::Mode::kSharded: return "sharded";
  }
  return "unknown";
}

EngineRunRequest::Mode EngineRunRequest::resolved_mode() const {
  if (mode != Mode::kAuto) return mode;
  if (num_shards > 1) return Mode::kSharded;
  if (batches || !fastq_text.empty()) return Mode::kStream;
  return Mode::kMemory;
}

void EngineRunRequest::validate() const {
  const int sources = (reads != nullptr ? 1 : 0) + (batches ? 1 : 0) +
                      (!fastq_text.empty() ? 1 : 0);
  if (sources == 0) {
    throw InvalidArgument(
        "run request has no input: set reads, batches, or fastq_text");
  }
  if (sources > 1) {
    throw InvalidArgument(
        "run request has multiple inputs: set exactly one of reads, "
        "batches, fastq_text");
  }
  if (num_shards < 1) {
    throw InvalidArgument("run request needs num_shards >= 1");
  }
  if (batch_reads < 1) {
    throw InvalidArgument("run request needs batch_reads >= 1");
  }

  const Mode resolved = resolved_mode();
  switch (resolved) {
    case Mode::kMemory:
      if (reads == nullptr) {
        throw InvalidArgument("memory mode requires an in-memory ReadSet");
      }
      break;
    case Mode::kStream:
      // Any source streams: a BatchSource is pulled directly, fastq_text
      // is block-parsed, and a ReadSet is batched internally.
      break;
    case Mode::kSharded:
      if (fastq_text.empty()) {
        throw InvalidArgument(
            "sharded mode requires fastq_text (raw FASTQ bytes)");
      }
      break;
    case Mode::kAuto:
      break;  // unreachable: resolved_mode never returns kAuto
  }
  if (num_shards > 1 && resolved != Mode::kSharded) {
    throw InvalidArgument("num_shards > 1 requires sharded mode (fastq_text)");
  }
  if (early_stop.enabled) {
    early_stop.validate();
    if (resolved == Mode::kSharded) {
      // The scatter/gather layer has no cross-shard abort protocol; the
      // CLI used to enforce this, now every caller gets it.
      throw InvalidArgument(
          "early stopping cannot be combined with sharded alignment");
    }
  }
  if (sharded_out != nullptr && resolved != Mode::kSharded) {
    throw InvalidArgument("sharded_out is only produced by sharded mode");
  }
}

AlignmentRun AlignmentEngine::execute(const EngineRunRequest& request) {
  request.validate();
  const EngineRunRequest::Mode mode = request.resolved_mode();

  // Chain the caller's callback with the engine-owned early-stop
  // controller; the user callback sees every snapshot first and an abort
  // from either side wins.
  std::optional<EarlyStopController> controller;
  ProgressCallback callback = request.callback;
  if (request.early_stop.enabled) {
    controller.emplace(request.early_stop);
    const ProgressCallback user = request.callback;
    const ProgressCallback stop_cb = controller->callback();
    callback = [user, stop_cb](const ProgressSnapshot& snapshot) {
      EngineCommand command = EngineCommand::kContinue;
      if (user && user(snapshot) == EngineCommand::kAbort) {
        command = EngineCommand::kAbort;
      }
      if (stop_cb(snapshot) == EngineCommand::kAbort) {
        command = EngineCommand::kAbort;
      }
      return command;
    };
  }

  AlignmentRun run;
  switch (mode) {
    case EngineRunRequest::Mode::kMemory:
      run = run_memory(*request.reads, callback, request.sam);
      break;
    case EngineRunRequest::Mode::kStream: {
      if (request.batches) {
        run = run_streaming(request.batches, request.total_reads_hint,
                            callback, request.sam);
      } else if (request.reads != nullptr) {
        const ReadSet& reads = *request.reads;
        usize next = 0;
        const usize batch_size = request.batch_reads;
        const BatchSource source = [&reads, &next,
                                    batch_size](ReadBatch& batch) {
          if (next >= reads.size()) return false;
          const usize end = std::min(next + batch_size, reads.size());
          for (; next < end; ++next) {
            const FastqRecord& rec = reads.reads[next];
            batch.append(rec.name, rec.sequence, rec.quality);
          }
          return true;
        };
        run = run_streaming(source, reads.size(), callback, request.sam);
      } else {
        FastqBlockReader reader(request.fastq_text);
        const usize batch_size = request.batch_reads;
        const BatchSource source = [&reader, batch_size](ReadBatch& batch) {
          return reader.read_batch(batch, batch_size) > 0;
        };
        run = run_streaming(source, request.total_reads_hint, callback,
                            request.sam);
      }
      break;
    }
    case EngineRunRequest::Mode::kSharded: {
      ShardedConfig sharded_config;
      sharded_config.engine = config_;
      sharded_config.num_shards = request.num_shards;
      sharded_config.batch_reads = request.batch_reads;
      sharded_config.sam = request.sam;
      ShardedRun sharded = align_sharded(request.fastq_text, *index_,
                                         annotation_, sharded_config);
      run = std::move(sharded.merged);
      if (request.sharded_out != nullptr) {
        // The merged result is execute()'s return value; sharded_out
        // receives the plan and per-shard runs (merged left empty).
        sharded.merged = AlignmentRun{};
        *request.sharded_out = std::move(sharded);
      }
      break;
    }
    case EngineRunRequest::Mode::kAuto:
      STARATLAS_CHECK(false);  // resolved_mode never returns kAuto
  }
  if (request.early_stop_out != nullptr) {
    *request.early_stop_out = controller.has_value() ? controller->decision()
                                                     : EarlyStopDecision{};
  }
  return run;
}

// --- Legacy entrypoints: thin wrappers over execute() ----------------

AlignmentRun AlignmentEngine::run(const ReadSet& reads,
                                  const ProgressCallback& callback) {
  EngineRunRequest request;
  request.reads = &reads;
  request.mode = EngineRunRequest::Mode::kMemory;
  request.callback = callback;
  return execute(request);
}

AlignmentRun AlignmentEngine::run_stream(const BatchSource& source,
                                         u64 total_reads_hint,
                                         const ProgressCallback& callback) {
  EngineRunRequest request;
  request.batches = source;
  request.mode = EngineRunRequest::Mode::kStream;
  request.total_reads_hint = total_reads_hint;
  request.callback = callback;
  return execute(request);
}

AlignmentRun AlignmentEngine::run_stream_reads(const ReadSet& reads,
                                               usize batch_size,
                                               const ProgressCallback& callback) {
  EngineRunRequest request;
  request.reads = &reads;
  request.mode = EngineRunRequest::Mode::kStream;
  request.batch_reads = batch_size;
  request.callback = callback;
  return execute(request);
}

}  // namespace staratlas
