// perfbench_tool: the benchmark's in-process half.
//
//   perfbench_tool gen    --workload W --seed N --out DIR
//       generates the workload's genome, annotation and FASTQ samples
//       with the library (repeat reads included) and a manifest.json
//   perfbench_tool replay --plan FILE --out DIR ...
//       replays the calls `staratlas_cli index/align` make, with a span
//       around each, and writes per-layer metrics plus a trace-event file
//   perfbench_tool load   --socket S --plan FILE --seconds T ...
//       drives a running `staratlas_cli serve` with closed-loop tenants
//
// run.py is the only caller; see README.md for the workloads.

#include <algorithm>
#include <filesystem>
#include <iostream>

#include "common.h"
#include "common/error.h"
#include "common/rng.h"
#include "genome/synthesizer.h"
#include "io/fasta.h"
#include "io/gtf.h"
#include "sim/catalog.h"
#include "sim/read_simulator.h"

using namespace staratlas;

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) throw std::runtime_error("median of nothing");
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

// The reference every workload aligns to: the repository's paper-bench
// genome (three 300 kbp chromosomes, 30 genes each, synthesizer seed
// 2024). It is fixed, like a real reference, so index work is the same
// in every run; the run seed drives the reads.
GenomeSpec genome_spec() {
  GenomeSpec spec;
  spec.num_chromosomes = 3;
  spec.chromosome_length = 300'000;
  spec.genes_per_chromosome = 30;
  spec.seed = 2024;
  return spec;
}

struct SampleSpec {
  std::string name;
  LibraryType type = LibraryType::kBulk;
  u64 reads = 0;
  u64 rng_seed = 0;
  std::string tenant = "-";
};

constexpr u64 kBulkReads = 50'000;
constexpr u64 kProbeReads = 1'500;

// The corpus size mix is fixed (catalog seed 7) so every run seed aligns
// the same amount of work; the run seed drives genome and read content.
CatalogSpec atlas_catalog() {
  CatalogSpec spec;
  spec.num_samples = 53;  // round(53 * 3.8%) = 2 single-cell samples
  spec.single_cell_fraction = 0.038;
  spec.reads_at_mean = 3'000;
  spec.min_reads = 500;
  spec.seed = 7;
  return spec;
}

std::vector<SampleSpec> workload_samples(const std::string& workload,
                                         u64 seed, int* release) {
  std::vector<SampleSpec> samples;
  const u64 base = hash64(seed ^ 0x7265616473ULL);
  *release = 111;
  if (workload == "bulk_r111" || workload == "bulk_r108") {
    // Same reads on both releases: only the index differs (Fig 3).
    if (workload == "bulk_r108") *release = 108;
    samples.push_back({"bulk", LibraryType::kBulk, kBulkReads, base});
  } else if (workload == "atlas_corpus") {
    for (const SraSample& sample : make_catalog(atlas_catalog())) {
      samples.push_back({sample.accession, sample.type, sample.num_reads,
                         hash64(base * 1'000'003 + sample.seed)});
    }
  } else if (workload == "service_tenants") {
    // One heavy tenant with large samples, two light tenants with many
    // small ones (sizes in README.md).
    for (u64 i = 0; i < 2; ++i) {
      samples.push_back({"heavy_" + std::to_string(i), LibraryType::kBulk,
                         24'000, hash64(base + 100 + i), "heavy"});
    }
    for (const std::string tenant : {"light1", "light2"}) {
      for (u64 i = 0; i < 10; ++i) {
        samples.push_back({tenant + "_" + std::to_string(i),
                           LibraryType::kBulk, 1'500,
                           hash64(base + (tenant == "light1" ? 200 : 300) + i),
                           tenant});
      }
    }
  } else {
    throw InvalidArgument("unknown workload '" + workload + "'");
  }
  return samples;
}

}  // namespace

int cmd_gen(const std::map<std::string, std::string>& args) {
  const std::string workload = args.at("workload");
  const u64 seed = std::stoull(args.at("seed"));
  const std::string out = args.at("out");
  std::filesystem::create_directories(out);

  int release = 111;
  const std::vector<SampleSpec> samples =
      workload_samples(workload, seed, &release);

  const GenomeSpec spec = genome_spec();
  const GenomeSynthesizer synthesizer(spec);
  const Assembly assembly = synthesizer.make_release(
      release == 108 ? release108_style() : release111_style());
  write_fasta_file(out + "/genome.fa", assembly.to_fasta());
  write_gtf_file(out + "/annotation.gtf",
                 synthesizer.annotation().to_gtf(assembly));

  // Reads come from the chromosomes, which every release shares; the
  // repeat regions give the repeat reads `staratlas_cli simulate` lacks.
  const ReadSimulator simulator(assembly, synthesizer.annotation(),
                                synthesizer.repeat_regions());
  std::ofstream manifest(out + "/manifest.json");
  manifest << "{\"workload\": \"" << workload << "\", \"seed\": " << seed
           << ", \"release\": " << release
           << ", \"fasta\": \"genome.fa\", \"gtf\": \"annotation.gtf\""
           << ", \"genome\": {\"chromosomes\": " << spec.num_chromosomes
           << ", \"chromosome_length\": " << spec.chromosome_length
           << ", \"genes_per_chromosome\": " << spec.genes_per_chromosome
           << ", \"fasta_bytes\": " << assembly.fasta_size().bytes()
           << ", \"contigs\": " << assembly.num_contigs() << "},\n"
           << " \"samples\": [\n";
  auto write_sample = [&](const SampleSpec& sample) {
    const ReadSet reads = simulator.simulate(profile_for(sample.type),
                                             sample.reads, Rng(sample.rng_seed));
    write_fastq_file(out + "/" + sample.name + ".fastq", reads.reads);
  };
  for (size_t i = 0; i < samples.size(); ++i) {
    const SampleSpec& sample = samples[i];
    write_sample(sample);
    manifest << "  {\"name\": \"" << sample.name << "\", \"fastq\": \""
             << sample.name << ".fastq\", \"reads\": " << sample.reads
             << ", \"type\": \"" << library_type_name(sample.type)
             << "\", \"tenant\": \"" << sample.tenant << "\"}"
             << (i + 1 < samples.size() ? ",\n" : "\n");
  }
  // A small bulk sample every workload carries for the service probes.
  write_sample({"probe", LibraryType::kBulk, kProbeReads, hash64(seed + 17)});
  manifest << " ],\n \"probe\": {\"name\": \"probe\", \"fastq\": "
           << "\"probe.fastq\", \"reads\": " << kProbeReads << "}}\n";
  if (!manifest) throw IoError("cannot write manifest");
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: perfbench_tool gen|replay|load --flag value ...\n";
    return 1;
  }
  std::map<std::string, std::string> args;
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      std::cerr << "expected --flag, got '" << key << "'\n";
      return 1;
    }
    args[key.substr(2)] = argv[i + 1];
  }
  const std::string command = argv[1];
  try {
    if (command == "gen") return perfbench::cmd_gen(args);
    if (command == "replay") return perfbench::cmd_replay(args);
    if (command == "load") return perfbench::cmd_load(args);
    std::cerr << "unknown command " << command << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_tool " << command << ": " << e.what() << "\n";
    return 2;
  }
}
