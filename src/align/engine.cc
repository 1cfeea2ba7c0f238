#include "align/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <future>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/alloc_counter.h"
#include "common/bounded_queue.h"
#include "common/error.h"

namespace staratlas {

/// One recycled unit of in-flight work: the accumulators of one chunk or
/// batch, kept per slot so the committer can merge units in input order.
/// Stream mode also fills the batch arena and batch-local outcomes; memory
/// mode writes outcomes straight into the run.
struct AlignmentEngine::StreamSlot {
  ReadBatch batch;
  std::vector<ReadOutcome> outcomes;  ///< batch-local, index-aligned
  ChunkSink sink;
  std::string sam;      ///< the unit's rendered SAM records (SAM runs only)
  u64 sam_records = 0;  ///< records in `sam`
  u64 seq = 0;         ///< batch sequence number in stream order
  u64 first_read = 0;  ///< global index of the batch's first read
};

namespace {

/// Zeroes a counts table in place, keeping per_gene capacity.
void reset_counts(GeneCountsTable& counts) {
  std::fill(counts.per_gene.begin(), counts.per_gene.end(), u64{0});
  counts.n_unmapped = 0;
  counts.n_multimapping = 0;
  counts.n_no_feature = 0;
  counts.n_ambiguous = 0;
}

/// Replaces `out` with one aligned unit's SAM records, read by read in
/// input order, and returns how many it wrote. `read(r)` is the unit's
/// r-th read and `results[r]` its alignment (the worker's result lanes).
template <typename ReadAt>
u64 render_unit_sam(std::string& out, const GenomeIndex& index,
                    std::span<const ReadAlignment> results, ReadAt read) {
  out.clear();
  u64 records = 0;
  for (usize r = 0; r < results.size(); ++r) {
    records += append_sam_records(out, index, read(r), results[r]);
  }
  return records;
}

/// The commit point both execution bodies share. Work units (memory
/// chunks, stream batches) are aligned in any order but committed here
/// strictly in input order, serialized by the caller. So the merged
/// totals, every progress snapshot and the read count an abort lands on
/// are the same at every thread count.
class OrderedCommit {
 public:
  OrderedCommit(AlignmentRun& run, const GenomeIndex& index,
                const EngineConfig& config, u64 total_reads,
                const ProgressCallback& callback,
                std::chrono::steady_clock::time_point wall_start)
      : run_(run),
        callback_(callback),
        wall_start_(wall_start),
        quant_(config.quant_gene_counts),
        collect_junctions_(config.collect_junctions),
        junctions_(index, config.junction_min_intron),
        tracker_(total_reads),
        check_interval_(config.progress_check_interval
                            ? config.progress_check_interval
                            : std::max<u64>(1, total_reads / 50)),
        next_check_(check_interval_) {}

  /// Merges the next unit in input order, then takes the progress
  /// checkpoint (and the callback's abort decision) if it crossed one.
  /// Once the run is aborted it merges nothing and returns false. The
  /// callback runs under the caller's lock on purpose: its abort must be
  /// known before the next unit commits.
  bool commit(const ChunkSink& unit) {
    if (aborted()) return false;
    run_.stats += unit.stats;
    tracker_.add(unit.stats);
    if (quant_) run_.gene_counts += unit.counts;
    if (unit.junctions) junctions_ += *unit.junctions;
    if (callback_ && tracker_.processed() >= next_check_) {
      const ProgressSnapshot snap = tracker_.snapshot(elapsed_secs());
      // Advance past every boundary this unit crossed so one large unit
      // produces one log row, not several duplicates.
      next_check_ = (snap.processed / check_interval_ + 1) * check_interval_;
      run_.progress_log.append(snap);
      if (callback_(snap) == EngineCommand::kAbort) abort();
    }
    return true;
  }

  /// Read lock-free by workers and the stream producer to stop early.
  bool aborted() const { return abort_.load(std::memory_order_relaxed); }
  void abort() { abort_.store(true, std::memory_order_relaxed); }

  /// Seals the run: abort flag, wall time, junction list, final snapshot.
  void finish() {
    run_.aborted = aborted();
    run_.wall_seconds = elapsed_secs();
    if (collect_junctions_) run_.junctions = junctions_.junctions();
    if (!run_.progress_log.entries().empty() || !callback_) {
      run_.progress_log.append(tracker_.snapshot(run_.wall_seconds));
    }
  }

 private:
  double elapsed_secs() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         wall_start_)
        .count();
  }

  AlignmentRun& run_;
  const ProgressCallback& callback_;
  const std::chrono::steady_clock::time_point wall_start_;
  const bool quant_;
  const bool collect_junctions_;
  JunctionCollector junctions_;
  ProgressTracker tracker_;
  const u64 check_interval_;
  u64 next_check_;
  std::atomic<bool> abort_{false};
};

}  // namespace

AlignmentEngine::AlignmentEngine(const GenomeIndex& index,
                                 const Annotation* annotation,
                                 EngineConfig config)
    : index_(&index), annotation_(annotation), config_(std::move(config)) {
  STARATLAS_CHECK(config_.num_threads >= 1);
  STARATLAS_CHECK(config_.chunk_size >= 1);
  if (config_.quant_gene_counts) {
    STARATLAS_CHECK(annotation_ != nullptr);
    counter_ = std::make_unique<GeneCounter>(*annotation_, *index_);
  }
}

AlignmentEngine::~AlignmentEngine() = default;

void AlignmentEngine::ensure_workers() {
  if (config_.num_threads > 1 && !pool_) {
    pool_ = std::make_unique<ThreadPool>(config_.num_threads);
  }
  while (workspaces_.size() < config_.num_threads) {
    workspaces_.push_back(std::make_unique<AlignWorkspace>());
  }
}

void AlignmentEngine::ensure_stream_slots(usize count) {
  while (stream_slots_.size() < count) {
    auto slot = std::make_unique<StreamSlot>();
    slot->sink = make_chunk_sink();
    stream_slots_.push_back(std::move(slot));
  }
}

AlignmentRun AlignmentEngine::run_memory(const ReadSet& reads,
                                         const ProgressCallback& callback,
                                         const SamSink& sam) {
  const auto wall_start = std::chrono::steady_clock::now();
  AlignmentRun run;
  run.outcomes.assign(reads.size(), ReadOutcome::kUnmapped);
  run.input_reads = reads.size();
  for (const FastqRecord& read : reads.reads) {
    run.input_bases += read.sequence.size();
  }
  // Pre-size like run_stream: unit tables merge under the strict
  // equal-dimension contract of GeneCountsTable::operator+=.
  if (counter_) run.gene_counts = GeneCountsTable(annotation_->num_genes());
  if (reads.empty()) return run;

  ensure_workers();
  // The reorder window: a chunk holds its slot's accumulators from claim
  // to commit, so at most nslots chunks are in flight.
  const usize nslots = config_.num_threads + 2;
  ensure_stream_slots(nslots);
  OrderedCommit ledger(run, *index_, config_, reads.size(), callback,
                       wall_start);
  const usize chunk_size = config_.chunk_size;
  const usize num_chunks = (reads.size() + chunk_size - 1) / chunk_size;

  // Claim and commit state, all guarded by commit_mu. Workers claim chunks
  // in input order, align them unlocked (outcomes in place, accumulators
  // into slot chunk % nslots), then mark them ready; the ready ring drains
  // strictly in chunk order. A claim waits while nslots chunks are
  // uncommitted, so no slot is reused before its last chunk committed.
  std::mutex commit_mu;
  std::condition_variable window_open;
  std::vector<char> ready(nslots, 0);
  usize next_chunk = 0;
  usize commit_next = 0;
  std::exception_ptr worker_error;
  std::atomic<usize> next_worker_slot{0};

  auto chunk_begin = [&](usize chunk) { return chunk * chunk_size; };
  auto chunk_end = [&](usize chunk) {
    return std::min(chunk_begin(chunk) + chunk_size, reads.size());
  };

  auto align_chunks = [&](usize worker_slot) {
    std::unique_lock lock(commit_mu);
    for (;;) {
      window_open.wait(lock, [&] {
        return ledger.aborted() || next_chunk >= num_chunks ||
               next_chunk < commit_next + nslots;
      });
      if (ledger.aborted() || next_chunk >= num_chunks) return;
      const usize chunk = next_chunk++;
      lock.unlock();
      const usize begin = chunk_begin(chunk);
      const usize end = chunk_end(chunk);
      StreamSlot& unit = *stream_slots_[chunk % nslots];
      align_chunk(reads, begin, end, worker_slot, unit.sink,
                  std::span(run.outcomes).subspan(begin, end - begin));
      if (sam) {
        unit.sam_records = render_unit_sam(
            unit.sam, *index_,
            std::span<const ReadAlignment>(
                workspaces_[worker_slot]->batch.results)
                .first(end - begin),
            [&reads, begin](usize r) {
              const FastqRecord& read = reads.reads[begin + r];
              return ReadView{read.name, read.sequence, read.quality};
            });
      }
      lock.lock();
      ready[chunk % nslots] = 1;
      const usize committed_before = commit_next;
      while (ready[commit_next % nslots]) {
        const usize done = commit_next++;
        ready[done % nslots] = 0;
        const StreamSlot& committed = *stream_slots_[done % nslots];
        if (!ledger.commit(committed.sink)) {
          // Aligned past the abort: not part of the run.
          std::fill(run.outcomes.begin() + chunk_begin(done),
                    run.outcomes.begin() + chunk_end(done),
                    ReadOutcome::kUnmapped);
        } else if (sam) {
          sam(committed.sam, committed.sam_records);
        }
      }
      if (commit_next != committed_before) window_open.notify_all();
    }
  };

  auto worker = [&] {
    try {
      align_chunks(next_worker_slot.fetch_add(1) % workspaces_.size());
    } catch (...) {
      // A failed chunk never commits: stop the run and wake every claim
      // waiting on the window so all workers can drain and exit.
      std::lock_guard lock(commit_mu);
      if (!worker_error) worker_error = std::current_exception();
      ledger.abort();
      window_open.notify_all();
    }
  };

  if (config_.num_threads == 1) {
    worker();
  } else {
    // Fan the persistent pool's workers over the chunk queue: one long
    // task per worker, so a run costs task dispatch, not thread spawn.
    std::vector<std::future<void>> futures;
    futures.reserve(config_.num_threads);
    for (usize t = 0; t < config_.num_threads; ++t) {
      futures.push_back(pool_->submit(worker));
    }
    for (auto& f : futures) f.wait();  // all workers park before unwinding
    for (auto& f : futures) f.get();
  }
  if (worker_error) std::rethrow_exception(worker_error);

  ledger.finish();
  return run;
}

usize AlignmentEngine::prepare_worker_slots() {
  // Workspaces only — the external scheduler brings its own threads, so
  // spinning up the internal pool here would double the thread count.
  while (workspaces_.size() < config_.num_threads) {
    workspaces_.push_back(std::make_unique<AlignWorkspace>());
  }
  return config_.num_threads;
}

ChunkSink AlignmentEngine::make_chunk_sink() const {
  ChunkSink sink;
  if (counter_) sink.counts = GeneCountsTable(annotation_->num_genes());
  if (config_.collect_junctions) {
    sink.junctions = std::make_unique<JunctionCollector>(
        *index_, config_.junction_min_intron);
  }
  return sink;
}

void AlignmentEngine::align_chunk(const ReadSet& reads, usize begin,
                                  usize end, usize slot, ChunkSink& sink,
                                  std::span<ReadOutcome> outcomes) const {
  STARATLAS_CHECK(slot < workspaces_.size());
  STARATLAS_CHECK(begin <= end && end <= reads.size());
  STARATLAS_CHECK(outcomes.size() >= end - begin);
  AlignWorkspace& ws = *workspaces_[slot];
  ws.batch.views.clear();
  for (usize r = begin; r < end; ++r) {
    ws.batch.views.push_back(reads.reads[r].sequence);
  }
  align_views(ws, sink, outcomes);
}

void AlignmentEngine::align_views(AlignWorkspace& ws, ChunkSink& sink,
                                  std::span<ReadOutcome> outcomes) const {
  sink.stats = MappingStats{};
  if (counter_) reset_counts(sink.counts);
  if (sink.junctions) sink.junctions->clear();

  const Aligner aligner(*index_, config_.params);
  AlignBatchLanes& lanes = ws.batch;
  const usize count = lanes.views.size();
  if (lanes.results.size() < count) lanes.results.resize(count);
  aligner.align_batch(lanes.views, ws, sink.stats,
                      std::span(lanes.results).first(count));
  for (usize r = 0; r < count; ++r) {
    const ReadAlignment& result = lanes.results[r];
    sink.stats.add_outcome(result.outcome);
    outcomes[r] = result.outcome;
    if (counter_) counter_->count(result, sink.counts);
    if (sink.junctions) sink.junctions->add(result);
  }
}

AlignmentRun AlignmentEngine::run_streaming(const BatchSource& source,
                                            u64 total_reads_hint,
                                            const ProgressCallback& callback,
                                            const SamSink& sam) {
  STARATLAS_CHECK(source != nullptr);
  const auto wall_start = std::chrono::steady_clock::now();
  AlignmentRun run;
  run.outcomes.assign(total_reads_hint, ReadOutcome::kUnmapped);

  ensure_workers();
  const usize nslots = std::max<usize>(
      2, config_.stream_queue_depth ? config_.stream_queue_depth
                                    : config_.num_threads + 2);
  ensure_stream_slots(nslots);
  if (counter_) run.gene_counts = GeneCountsTable(annotation_->num_genes());
  OrderedCommit ledger(run, *index_, config_, total_reads_hint, callback,
                       wall_start);

  // Slot recycling ring (backpressure) and the parsed-batch work queue.
  // Both hold at most nslots entries, so pushes never block; the producer
  // blocks only in free_q.pop(), i.e. exactly when every slot is in
  // flight — that wait IS the peak-memory bound.
  BoundedQueue<StreamSlot*> free_q(nslots);
  BoundedQueue<StreamSlot*> work_q(nslots);
  for (usize i = 0; i < nslots; ++i) free_q.push(stream_slots_[i].get());

  std::atomic<usize> next_worker_slot{0};
  std::atomic<u64> consumer_allocs{0};

  // In-order commit state, all guarded by commit_mu. Workers align batches
  // in any order, then park them in the reorder ring; the ring drains
  // strictly in sequence into the ledger.
  std::mutex commit_mu;
  std::vector<StreamSlot*> reorder(nslots, nullptr);
  u64 commit_next = 0;
  std::exception_ptr worker_error;

  auto commit = [&](StreamSlot* done) {
    std::lock_guard lock(commit_mu);
    reorder[done->seq % nslots] = done;
    while (StreamSlot* slot = reorder[commit_next % nslots]) {
      if (slot->seq != commit_next) break;
      reorder[commit_next % nslots] = nullptr;
      ++commit_next;
      if (ledger.commit(slot->sink)) {
        const usize n = slot->batch.size();
        if (run.outcomes.size() < slot->first_read + n) {
          run.outcomes.resize(slot->first_read + n, ReadOutcome::kUnmapped);
        }
        std::copy(slot->outcomes.begin(), slot->outcomes.begin() + n,
                  run.outcomes.begin() + slot->first_read);
        ++run.stream_batches;
        if (sam) sam(slot->sam, slot->sam_records);
      }
      free_q.push(slot);  // recycle even past abort: the producer may be
                          // blocked on a free slot and must wake to exit
    }
  };

  std::exception_ptr producer_error;
  std::thread producer([&] {
    try {
      u64 seq = 0;
      u64 first_read = 0;
      for (;;) {
        const auto popped = free_q.pop();
        if (!popped) break;
        StreamSlot* slot = *popped;
        if (ledger.aborted()) break;
        slot->batch.clear();
        if (!source(slot->batch) || slot->batch.empty()) break;
        run.input_reads += slot->batch.size();
        run.input_bases += slot->batch.bases();
        slot->seq = seq++;
        slot->first_read = first_read;
        first_read += slot->batch.size();
        work_q.push(slot);
      }
    } catch (...) {
      producer_error = std::current_exception();
      ledger.abort();
    }
    work_q.close();
  });

  auto consumer = [&] {
    AlignWorkspace& ws =
        *workspaces_[next_worker_slot.fetch_add(1) % workspaces_.size()];
    const u64 allocs_before = alloc_counter::thread_allocations();
    while (const auto popped = work_q.pop()) {
      StreamSlot* slot = *popped;
      if (!ledger.aborted()) {
        try {
          const usize count = slot->batch.size();
          slot->outcomes.resize(count);
          ws.batch.views.clear();
          for (usize r = 0; r < count; ++r) {
            ws.batch.views.push_back(slot->batch.sequence(r));
          }
          align_views(ws, slot->sink, slot->outcomes);
          if (sam) {
            slot->sam_records = render_unit_sam(
                slot->sam, *index_,
                std::span<const ReadAlignment>(ws.batch.results).first(count),
                [slot](usize r) { return slot->batch.view(r); });
          }
        } catch (...) {
          std::lock_guard lock(commit_mu);
          if (!worker_error) worker_error = std::current_exception();
          ledger.abort();
        }
      }
      commit(slot);  // always: recycling must not stall behind an abort
    }
    consumer_allocs.fetch_add(
        alloc_counter::thread_allocations() - allocs_before,
        std::memory_order_relaxed);
  };

  if (config_.num_threads == 1) {
    consumer();  // the caller thread aligns; the producer still overlaps
  } else {
    std::vector<std::future<void>> futures;
    futures.reserve(config_.num_threads);
    for (usize t = 0; t < config_.num_threads; ++t) {
      futures.push_back(pool_->submit(consumer));
    }
    for (auto& f : futures) f.wait();
    for (auto& f : futures) f.get();
  }
  producer.join();  // already exited: consumers only finish once it closed

  if (producer_error) std::rethrow_exception(producer_error);
  if (worker_error) std::rethrow_exception(worker_error);

  ledger.finish();
  // A completed stream knows the true total; an aborted one keeps the
  // hint-sized vector (unprocessed tail stays kUnmapped, like run()).
  if (!run.aborted && run.outcomes.size() > run.stats.processed) {
    run.outcomes.resize(run.stats.processed);
  }
  run.stream_consumer_allocs =
      consumer_allocs.load(std::memory_order_relaxed);
  for (usize i = 0; i < nslots; ++i) {
    run.stream_peak_arena_bytes +=
        stream_slots_[i]->batch.capacity_bytes() +
        stream_slots_[i]->outcomes.capacity() * sizeof(ReadOutcome);
  }
  return run;
}

}  // namespace staratlas
