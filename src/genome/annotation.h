// Gene annotation: the structure STAR's --quantMode GeneCounts consumes.
// Coordinates are 0-based half-open on the owning contig; GTF conversion
// handles the 1-based inclusive convention.
#pragma once

#include <string>
#include <vector>

#include "common/types.h"
#include "genome/model.h"
#include "io/gtf.h"

namespace staratlas {

struct Exon {
  u64 start = 0;  ///< 0-based inclusive
  u64 end = 0;    ///< 0-based exclusive

  u64 length() const { return end - start; }
};

struct Gene {
  std::string id;    ///< e.g. "SYNG00000123"
  std::string name;  ///< display symbol
  ContigId contig = 0;
  char strand = '+';
  std::vector<Exon> exons;  ///< sorted, non-overlapping

  u64 start() const { return exons.empty() ? 0 : exons.front().start; }
  u64 end() const { return exons.empty() ? 0 : exons.back().end; }
  u64 span() const { return end() - start(); }
  u64 exonic_length() const;

  /// Spliced transcript sequence (exons concatenated; forward strand —
  /// the read simulator handles reverse-complementing for '-' genes).
  std::string transcript_sequence(const Assembly& assembly) const;
};

class Annotation {
 public:
  Annotation() = default;
  explicit Annotation(std::vector<Gene> genes);

  const std::vector<Gene>& genes() const { return genes_; }
  const Gene& gene(GeneId id) const;
  usize num_genes() const { return genes_.size(); }

  /// Finds a gene index by its id string; returns kNoGene if absent.
  GeneId find_gene(const std::string& gene_id) const;

  /// All genes on one contig, in start order.
  std::vector<GeneId> genes_on_contig(ContigId contig) const;

  /// Total exonic residues across all genes.
  u64 total_exonic_length() const;

  /// Serializes to GTF features (gene + transcript + exon rows).
  std::vector<GtfFeature> to_gtf(const Assembly& assembly) const;

  /// Builds an annotation from GTF features, resolving contig names through
  /// the assembly. Exons are grouped by gene_id; gene/transcript rows are
  /// validated but exons define the structure. Throws on unknown contigs.
  static Annotation from_gtf(const std::vector<GtfFeature>& features,
                             const Assembly& assembly);

  /// Same, resolving contig names against a bare name table (contig id =
  /// position), such as a loaded index's contigs: no sequence is needed.
  static Annotation from_gtf(const std::vector<GtfFeature>& features,
                             const std::vector<std::string>& contig_names);

 private:
  std::vector<Gene> genes_;
};

}  // namespace staratlas
