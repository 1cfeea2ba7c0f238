// `perfbench_tool replay`: the traced half of a run. For every CLI
// invocation of the workload's round it repeats, in process, the public
// calls `staratlas_cli index` and `staratlas_cli align` make, with a span
// from this file around each call. Then it times what the CLI does not
// call separately: the block FASTQ parser over the same bytes, a
// single-thread seed pass and a single-thread align_batch pass split into
// seeding, gene counting and junction collection, and the service's
// in-process submit path.

#include <algorithm>
#include <filesystem>
#include <memory>
#include <thread>

#include "align/aligner.h"
#include "align/engine.h"
#include "align/final_log.h"
#include "align/gene_counts.h"
#include "align/junctions.h"
#include "align/run_request.h"
#include "align/seed.h"
#include "common.h"
#include "genome/annotation.h"
#include "index/genome_index.h"
#include "index/packed_sequence.h"
#include "io/fasta.h"
#include "io/fastq.h"
#include "io/fastq_block.h"
#include "io/gtf.h"
#include "service/service.h"

using namespace staratlas;

namespace perfbench {
namespace {

constexpr usize kChunk = 256;  // the engine's default chunk_size
constexpr double kMiB = 1024.0 * 1024.0;

// cmd_align's annotation path: rebuild an assembly view from the index
// text, then resolve the GTF against it.
Annotation annotation_from_index(const GenomeIndex& index,
                                 const std::string& gtf) {
  std::vector<FastaRecord> records;
  for (const ContigMeta& contig : index.contigs()) {
    records.push_back(
        {contig.name, "", index.text_substr(contig.text_offset, contig.length)});
  }
  const Assembly assembly = Assembly::from_fasta(
      "cli", index.release(), index.assembly_type(), records);
  return Annotation::from_gtf(read_gtf_file(gtf), assembly);
}

EngineConfig cli_engine_config(usize threads) {
  EngineConfig config;
  config.num_threads = threads;
  config.quant_gene_counts = true;
  config.collect_junctions = true;
  return config;
}

struct Totals {
  std::map<std::string, double> metrics;
  double st_align_batch_s = 0.0;
  double stop_fraction_sum = 0.0;
  void add(const std::string& name, double value) { metrics[name] += value; }
};

void replay_index(Tracer& tracer, const PlanLine& line, const std::string& out,
                  Totals& totals) {
  // index <fasta> <release> <threads>: cmd_index.
  const std::string& fasta = line.fields.at(0);
  const int release = std::stoi(line.fields.at(1));
  IndexParams params;
  params.num_threads = std::stoull(line.fields.at(2));
  tracer.name_track(0, "index");
  Tracer::Span cli(tracer, "cli.index", 0, "");
  Assembly assembly;
  {
    Tracer::Span span(tracer, "index.fasta_read", 0, "cli.index");
    assembly = Assembly::from_fasta("cli", release, AssemblyType::kToplevel,
                                    read_fasta_file(fasta));
  }
  Tracer::Span build(tracer, "index.build", 0, "cli.index");
  const GenomeIndex index = GenomeIndex::build(assembly, params);
  totals.add("index.build_s", build.end());
  Tracer::Span save(tracer, "index.save", 0, "cli.index");
  index.save_file(out + "/replay.idx", GenomeIndex::kVersionLatest);
  totals.add("index.save_s", save.end());
  cli.end();
  std::filesystem::remove(out + "/replay.idx");
}

// Single-thread passes over the first `count` reads in engine-sized
// chunks: seeding alone, then align_batch + gene counting + junctions.
void replay_single_thread(Tracer& tracer, int track, const GenomeIndex& index,
                          const Annotation& annotation,
                          const EngineConfig& config, const ReadSet& reads,
                          usize count, const AlignmentRun& run,
                          Totals& totals) {
  {
    Tracer::Span seed_pass(tracer, "align.seed", track, "");
    SeedBatchScratch scratch;
    std::vector<std::string> rc(kChunk);
    std::vector<std::string_view> walks;
    std::vector<SeedSearchResult> seeds(2 * kChunk);
    for (usize begin = 0; begin < count; begin += kChunk) {
      const usize n = std::min(kChunk, count - begin);
      walks.clear();
      for (usize i = 0; i < n; ++i) {
        const std::string& seq = reads.reads[begin + i].sequence;
        reverse_complement(seq, rc[i]);
        walks.push_back(seq);
        walks.push_back(rc[i]);
      }
      find_seeds_batch(index, walks, config.params,
                       std::span(seeds).first(2 * n), scratch);
    }
    totals.add("align.seed_s", seed_pass.end());
  }

  const Aligner aligner(index, config.params);
  const GeneCounter counter(annotation, index);
  AlignWorkspace ws;
  std::vector<ReadAlignment> results(kChunk);
  MappingStats work;
  GeneCountsTable table(annotation.num_genes());
  JunctionCollector junctions(index, config.junction_min_intron);
  std::vector<std::string_view> views;
  Tracer::Span pass(tracer, "align.single_thread_pass", track, "");
  for (usize begin = 0; begin < count; begin += kChunk) {
    const usize n = std::min(kChunk, count - begin);
    views.clear();
    for (usize i = 0; i < n; ++i) views.push_back(reads.reads[begin + i].sequence);
    {
      Tracer::Span span(tracer, "align.align_batch", track,
                        "align.single_thread_pass");
      aligner.align_batch(views, ws, work, std::span(results).first(n));
      totals.st_align_batch_s += span.end();
    }
    {
      Tracer::Span span(tracer, "align.gene_count", track,
                        "align.single_thread_pass");
      for (usize i = 0; i < n; ++i) counter.count(results[i], table);
      totals.add("align.gene_count_s", span.end());
    }
    {
      Tracer::Span span(tracer, "align.junction", track,
                        "align.single_thread_pass");
      for (usize i = 0; i < n; ++i) junctions.add(results[i]);
      totals.add("align.junction_s", span.end());
    }
  }
  pass.end();
  // The replay must do the engine's work, not some other work.
  if (work.seeds_generated != run.stats.seeds_generated ||
      work.windows_scored != run.stats.windows_scored ||
      work.bases_compared != run.stats.bases_compared ||
      table.per_gene != run.gene_counts.per_gene) {
    throw std::runtime_error("single-thread replay diverged from execute()");
  }
}

void replay_sample(Tracer& tracer, int track, const PlanLine& line,
                   const std::string& index_path, const std::string& gtf,
                   usize threads, const std::string& out, Totals& totals) {
  // sample <name> <fastq> <early_stop 0|1>: cmd_align with --gtf --no-sam.
  const std::string& name = line.fields.at(0);
  const std::string& fastq = line.fields.at(1);
  const bool early_stop = line.fields.at(2) == "1";
  const EngineConfig config = cli_engine_config(threads);

  tracer.name_track(track, name);
  Tracer::Span cli(tracer, "cli.align", track, "");
  Tracer::Span load(tracer, "index.load", track, "cli.align");
  const GenomeIndex index = GenomeIndex::load_file(index_path);
  totals.add("index.load_s", load.end());

  Tracer::Span ingest(tracer, "io.fastq_read", track, "cli.align");
  const ReadSet reads = make_read_set(read_fastq_file(fastq));
  totals.add("io.fastq_read_s", ingest.end());

  Tracer::Span annot(tracer, "genome.annotation", track, "cli.align");
  const Annotation annotation = annotation_from_index(index, gtf);
  totals.add("genome.annotation_s", annot.end());

  Tracer::Span setup(tracer, "align.engine_setup", track, "cli.align");
  AlignmentEngine engine(index, &annotation, config);
  totals.add("align.engine_setup_s", setup.end());

  EngineRunRequest request;
  request.reads = &reads;
  if (early_stop) request.early_stop = EarlyStopPolicy{};
  Tracer::Span execute(tracer, "align.execute", track, "cli.align");
  const AlignmentRun run = engine.execute(request);
  totals.add("align.execute_s", execute.end());

  Tracer::Span render(tracer, "align.render", track, "cli.align");
  double mean_length = 0.0;
  for (const auto& read : reads.reads) {
    mean_length += static_cast<double>(read.sequence.size());
  }
  mean_length /= static_cast<double>(reads.size());
  const std::string prefix = out + "/" + name;
  {
    std::ofstream log(prefix + ".Log.final.out");
    log << render_final_log(run, reads.size(), mean_length);
  }
  {
    std::ofstream sj(prefix + ".SJ.out.tab");
    write_junctions_tsv(sj, run.junctions, index);
  }
  {
    std::ofstream counts(prefix + ".ReadsPerGene.out.tab");
    run.gene_counts.write_tsv(counts, annotation);
  }
  totals.add("align.render_s", render.end());
  totals.add("sample." + name + ".cli_path_s", cli.end());

  // Work the CLI process does not expose: same bytes through the block
  // parser, and the engine's kernels on one thread.
  {
    Tracer::Span block(tracer, "io.fastq_block", track, "");
    std::ifstream in(fastq, std::ios::binary);
    FastqBlockReader reader(in);
    ReadBatch batch;
    u64 records = 0;
    while (const usize n = reader.read_batch(batch, kChunk)) {
      records += n;
      batch.clear();
    }
    totals.add("io.fastq_block_s", block.end());
    totals.add("io.fastq_mib",
               static_cast<double>(reader.serialized_bytes()) / kMiB);
    if (records != reads.size()) {
      throw std::runtime_error("block parser read " + std::to_string(records) +
                               " records, getline parser " +
                               std::to_string(reads.size()));
    }
  }
  replay_single_thread(tracer, track, index, annotation, config, reads,
                       run.stats.processed, run, totals);

  totals.add("align.seeds", static_cast<double>(run.stats.seeds_generated));
  totals.add("align.windows", static_cast<double>(run.stats.windows_scored));
  totals.add("align.bases_compared",
             static_cast<double>(run.stats.bases_compared));
  totals.add("align.unique_reads", static_cast<double>(run.stats.unique));
  totals.add("align.multi_reads", static_cast<double>(run.stats.multi));
  if (run.aborted) {
    totals.add("align.stopped_samples", 1.0);
    totals.stop_fraction_sum += static_cast<double>(run.stats.processed) /
                                static_cast<double>(reads.size());
  }
  const IndexStats stats = index.stats();
  totals.metrics["index.text_mib"] =
      static_cast<double>(stats.text_bytes.bytes()) / kMiB;
  totals.metrics["index.sa_mib"] =
      static_cast<double>(stats.suffix_array_bytes.bytes()) / kMiB;
  totals.metrics["index.lut_mib"] =
      static_cast<double>(stats.lut_bytes.bytes() +
                          stats.mini_lut_bytes.bytes()) / kMiB;
}

// The service's in-process path: a lone probe sample on an idle service
// (service.inproc_ms), then one pass of the tenant mix, every tenant a
// closed loop on its own thread, for light-sample queue waits.
void replay_service(Tracer& tracer, const std::vector<PlanLine>& plan,
                    const std::string& index_path, const std::string& gtf,
                    usize threads, Totals& totals) {
  const int track = 1'000'000;
  tracer.name_track(track, "service");
  auto index = std::make_shared<const GenomeIndex>(
      GenomeIndex::load_file(index_path));
  const Annotation annotation = annotation_from_index(*index, gtf);
  ServiceConfig config;
  config.engine = cli_engine_config(threads);
  config.chunk_size = kChunk;
  AlignmentService service(index, &annotation, config);

  std::string probe_path;
  std::map<std::string, std::vector<ReadSet>> mix;
  std::vector<std::string> tenants;
  for (const PlanLine& line : plan) {
    if (line.kind == "probe") probe_path = line.fields.at(0);
    if (line.kind == "tenant") {
      const std::string& tenant = line.fields.at(0);
      if (!mix.count(tenant)) tenants.push_back(tenant);
      mix[tenant].push_back(make_read_set(read_fastq_file(line.fields.at(2))));
    }
  }
  const ReadSet probe = make_read_set(read_fastq_file(probe_path));
  std::vector<double> inproc_ms;
  std::vector<double> queue_ms;
  for (int i = 0; i < 5; ++i) {
    SampleSubmission submission{"probe", "probe", probe};
    Tracer::Span span(tracer, "service.submit_and_wait", track, "");
    const SampleResult result = service.submit_and_wait(std::move(submission));
    inproc_ms.push_back(1e3 * span.end());
    queue_ms.push_back(1e3 * result.queue_secs);
  }
  totals.metrics["service.inproc_ms"] = median(inproc_ms);

  if (!tenants.empty()) {
    queue_ms.clear();
    std::mutex mu;
    std::vector<std::thread> clients;
    Tracer::Span span(tracer, "service.mix_pass", track, "");
    for (const std::string& tenant : tenants) {
      clients.emplace_back([&, tenant] {
        int n = 0;
        for (const ReadSet& reads : mix[tenant]) {
          SampleSubmission submission{tenant, tenant + std::to_string(n++),
                                      reads};
          const SampleResult result =
              service.submit_and_wait(std::move(submission));
          if (tenant.rfind("light", 0) == 0) {
            std::lock_guard lock(mu);
            queue_ms.push_back(1e3 * result.queue_secs);
          }
        }
      });
    }
    for (std::thread& client : clients) client.join();
  }
  totals.metrics["service.queue_ms"] = median(queue_ms);
  service.drain();
}

}  // namespace

int cmd_replay(const std::map<std::string, std::string>& args) {
  const std::vector<PlanLine> plan = read_plan(args.at("plan"));
  const std::string out = args.at("out");
  const std::string index_path = args.at("index");
  const std::string gtf = args.at("gtf");
  const usize threads = std::stoull(args.at("threads"));
  std::filesystem::create_directories(out);

  Tracer tracer;
  Totals totals;
  totals.metrics["align.stopped_samples"] = 0.0;
  int track = 0;
  for (const PlanLine& line : plan) {
    if (line.kind == "index") replay_index(tracer, line, out, totals);
    if (line.kind == "sample") {
      replay_sample(tracer, ++track, line, index_path, gtf, threads, out,
                    totals);
    }
  }
  replay_service(tracer, plan, index_path, gtf, threads, totals);

  const double execute_s = totals.metrics["align.execute_s"];
  totals.metrics["align.extend_classify_s"] =
      totals.st_align_batch_s - totals.metrics["align.seed_s"];
  totals.metrics["align.parallel_efficiency"] =
      totals.st_align_batch_s / (static_cast<double>(threads) * execute_s);
  const double stopped = totals.metrics["align.stopped_samples"];
  totals.metrics["align.stop_fraction"] =
      stopped > 0 ? totals.stop_fraction_sum / stopped : 0.0;
  tracer.write(args.at("spans"));
  write_metrics(args.at("metrics"), totals.metrics);
  return 0;
}

}  // namespace perfbench
