#include "genome/annotation.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.h"

namespace staratlas {
namespace {

Assembly tiny_assembly() {
  // chromosome "1": positions 0..59 = known pattern for transcript checks.
  std::string seq;
  for (int i = 0; i < 25; ++i) seq += "ACGT";
  std::vector<Contig> contigs = {{"1", ContigClass::kChromosome, seq}};
  return Assembly("t", 1, AssemblyType::kToplevel, std::move(contigs));
}

TEST(Gene, ExonicLengthAndSpan) {
  Gene gene;
  gene.id = "G";
  gene.exons = {{10, 20}, {30, 45}};
  EXPECT_EQ(gene.exonic_length(), 25u);
  EXPECT_EQ(gene.start(), 10u);
  EXPECT_EQ(gene.end(), 45u);
  EXPECT_EQ(gene.span(), 35u);
}

TEST(Gene, TranscriptSequenceConcatenatesExons) {
  const Assembly assembly = tiny_assembly();
  Gene gene;
  gene.id = "G";
  gene.contig = 0;
  gene.exons = {{0, 4}, {8, 12}};
  EXPECT_EQ(gene.transcript_sequence(assembly), "ACGTACGT");
}

TEST(Annotation, SortsExonsAndValidates) {
  Gene gene;
  gene.id = "G";
  gene.exons = {{30, 40}, {10, 20}};
  const Annotation annotation({gene});
  EXPECT_EQ(annotation.gene(0).exons[0].start, 10u);
}

TEST(Annotation, RejectsOverlappingExons) {
  Gene gene;
  gene.id = "G";
  gene.exons = {{10, 25}, {20, 30}};
  EXPECT_THROW(Annotation({gene}), InternalError);
}

TEST(Annotation, RejectsEmptyExonList) {
  Gene gene;
  gene.id = "G";
  EXPECT_THROW(Annotation({gene}), InternalError);
}

TEST(Annotation, FindGene) {
  Gene g1;
  g1.id = "A";
  g1.exons = {{0, 10}};
  Gene g2;
  g2.id = "B";
  g2.exons = {{20, 30}};
  const Annotation annotation({g1, g2});
  EXPECT_EQ(annotation.find_gene("B"), 1u);
  EXPECT_EQ(annotation.find_gene("C"), kNoGene);
}

TEST(Annotation, GenesOnContigSortedByStart) {
  Gene g1;
  g1.id = "A";
  g1.contig = 0;
  g1.exons = {{50, 60}};
  Gene g2;
  g2.id = "B";
  g2.contig = 0;
  g2.exons = {{10, 20}};
  Gene g3;
  g3.id = "C";
  g3.contig = 1;
  g3.exons = {{0, 5}};
  const Annotation annotation({g1, g2, g3});
  const auto on0 = annotation.genes_on_contig(0);
  ASSERT_EQ(on0.size(), 2u);
  EXPECT_EQ(on0[0], 1u);  // B starts first
  EXPECT_EQ(on0[1], 0u);
  EXPECT_EQ(annotation.genes_on_contig(1).size(), 1u);
  EXPECT_TRUE(annotation.genes_on_contig(7).empty());
}

TEST(Annotation, TotalExonicLength) {
  Gene g1;
  g1.id = "A";
  g1.exons = {{0, 10}, {20, 25}};
  const Annotation annotation({g1});
  EXPECT_EQ(annotation.total_exonic_length(), 15u);
}

TEST(Annotation, GtfRoundTrip) {
  const Assembly assembly = tiny_assembly();
  Gene gene;
  gene.id = "SYNG1";
  gene.name = "SYNG1";
  gene.contig = 0;
  gene.strand = '-';
  gene.exons = {{4, 12}, {20, 32}};
  const Annotation annotation({gene});

  const auto features = annotation.to_gtf(assembly);
  // gene + transcript + 2 exons
  ASSERT_EQ(features.size(), 4u);
  EXPECT_EQ(features[0].start, 5u);  // 1-based
  EXPECT_EQ(features[0].end, 32u);

  const Annotation parsed = Annotation::from_gtf(features, assembly);
  ASSERT_EQ(parsed.num_genes(), 1u);
  EXPECT_EQ(parsed.gene(0).id, "SYNG1");
  EXPECT_EQ(parsed.gene(0).strand, '-');
  ASSERT_EQ(parsed.gene(0).exons.size(), 2u);
  EXPECT_EQ(parsed.gene(0).exons[0].start, 4u);
  EXPECT_EQ(parsed.gene(0).exons[0].end, 12u);
  EXPECT_EQ(parsed.gene(0).exons[1].start, 20u);
}

TEST(Annotation, FromGtfUnknownContigThrows) {
  const Assembly assembly = tiny_assembly();
  GtfFeature f;
  f.contig = "chrUnknown";
  f.type = FeatureType::kExon;
  f.start = 1;
  f.end = 10;
  f.gene_id = "G";
  EXPECT_THROW(Annotation::from_gtf({f}, assembly), InvalidArgument);
}

TEST(Annotation, FromGtfGeneWithoutExonsThrows) {
  const Assembly assembly = tiny_assembly();
  GtfFeature f;
  f.contig = "1";
  f.type = FeatureType::kGene;
  f.start = 1;
  f.end = 10;
  f.gene_id = "G";
  EXPECT_THROW(Annotation::from_gtf({f}, assembly), ParseError);
}

TEST(Annotation, FromGtfResolvesContigNamesWithoutSequence) {
  std::string seq;
  for (int i = 0; i < 25; ++i) seq += "ACGT";
  const Assembly assembly("t", 1, AssemblyType::kToplevel,
                          {{"1", ContigClass::kChromosome, seq},
                           {"2", ContigClass::kChromosome, seq}});
  Gene g1;
  g1.id = "G1";
  g1.name = "G1";
  g1.contig = 1;
  g1.strand = '+';
  g1.exons = {{4, 12}, {20, 32}};
  Gene g2 = g1;
  g2.id = "G2";
  g2.name = "G2";
  g2.contig = 0;
  const auto features = Annotation({g1, g2}).to_gtf(assembly);

  // A bare name table (a loaded index's contigs) resolves exactly as the
  // assembly does.
  const Annotation by_assembly = Annotation::from_gtf(features, assembly);
  const Annotation by_name = Annotation::from_gtf(
      features, std::vector<std::string>{"1", "2"});
  ASSERT_EQ(by_name.num_genes(), by_assembly.num_genes());
  for (usize g = 0; g < by_name.num_genes(); ++g) {
    EXPECT_EQ(by_name.gene(g).id, by_assembly.gene(g).id);
    EXPECT_EQ(by_name.gene(g).contig, by_assembly.gene(g).contig);
    ASSERT_EQ(by_name.gene(g).exons.size(), by_assembly.gene(g).exons.size());
    for (usize e = 0; e < by_name.gene(g).exons.size(); ++e) {
      EXPECT_EQ(by_name.gene(g).exons[e].start,
                by_assembly.gene(g).exons[e].start);
      EXPECT_EQ(by_name.gene(g).exons[e].end, by_assembly.gene(g).exons[e].end);
    }
  }

  // An unknown contig fails with the assembly path's message.
  std::string assembly_error;
  try {
    Annotation::from_gtf(features, tiny_assembly());
  } catch (const InvalidArgument& e) {
    assembly_error = e.what();
  }
  ASSERT_FALSE(assembly_error.empty());
  try {
    Annotation::from_gtf(features, std::vector<std::string>{"1"});
    FAIL() << "unknown contig accepted";
  } catch (const InvalidArgument& e) {
    EXPECT_EQ(std::string(e.what()), assembly_error);
  }
}

}  // namespace
}  // namespace staratlas
