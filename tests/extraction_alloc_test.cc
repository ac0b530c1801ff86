// Allocation budget of feature extraction on the serve path.
//
// This binary replaces the global operator new with a counting one, so a
// test can read exactly how many heap allocations one Extract call makes
// on the calling thread. On a warmed ExtractionScratch the only
// allocations left are the ones the returned ResultFeatures owns (its
// type list, one value list per type and a long label); the sweep, the
// aggregation table, the flush sort and the catalog's memoized lookups
// allocate nothing.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "data/movies.h"
#include "engine/snapshot.h"
#include "feature/catalog.h"
#include "feature/extractor.h"
#include "xml/path.h"

namespace {

thread_local uint64_t t_allocs = 0;

}  // namespace

void* operator new(std::size_t size) {
  ++t_allocs;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

// Out of line, so callers see a delete paired with their new rather than
// an inlined free() (which GCC would report as a mismatched pair).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }

[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace xsact::feature {
namespace {

class ExtractionAllocTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::MoviesConfig config;
    config.franchise_sizes = {4, 4};
    config.min_reviews = config.max_reviews = 27;
    snapshot_ = engine::CorpusSnapshot::Build(data::GenerateMovies(config));
    const std::vector<const xml::Node*> movies =
        xml::SelectByTag(*snapshot_->engine().document().root(), "movie");
    ASSERT_GE(movies.size(), 2u);
    for (const xml::Node* movie : movies) {
      roots_.push_back(snapshot_->table().IdOf(movie));
    }
  }

  struct Counted {
    ResultFeatures features;
    uint64_t allocs = 0;  ///< heap allocations the Extract call made
  };

  Counted CountedExtract(xml::NodeId root, FeatureCatalog* catalog) {
    const uint64_t before = t_allocs;
    ResultFeatures features =
        extractor_.Extract(snapshot_->table(), snapshot_->category_index(),
                           root, catalog, &scratch_);
    const uint64_t allocs = t_allocs - before;
    return Counted{std::move(features), allocs};
  }

  /// Heap blocks `features` itself owns: the type list, one value list
  /// per type, and the label when it does not fit the string's inline
  /// buffer.
  static uint64_t OwnedBlocks(const ResultFeatures& features) {
    const bool heap_label =
        features.label().capacity() > std::string().capacity();
    return (features.NumTypes() > 0 ? 1 : 0) + features.NumTypes() +
           (heap_label ? 1 : 0);
  }

  engine::SnapshotPtr snapshot_;
  std::vector<xml::NodeId> roots_;
  const FeatureExtractor extractor_;
  ExtractionScratch scratch_;
};

// Re-extracting a result on a warmed scratch through a catalog that has
// seen it: everything but the returned features is allocation-free.
TEST_F(ExtractionAllocTest, WarmReextractionAllocatesOnlyTheResult) {
  FeatureCatalog catalog;
  for (const xml::NodeId root : roots_) {
    CountedExtract(root, &catalog);  // warms the scratch and the catalog
  }
  for (const xml::NodeId root : roots_) {
    const Counted got = CountedExtract(root, &catalog);
    ASSERT_GT(got.features.NumTypes(), 10u);
    EXPECT_EQ(got.allocs, OwnedBlocks(got.features))
        << "root " << root << ": " << got.features.NumTypes() << " types";
  }
}

// The serve path's shape: a warmed scratch, and a fresh catalog per
// comparison, which must intern (and so copy) every new type and value
// string once. The budget stays a small multiple of the type count.
TEST_F(ExtractionAllocTest, FreshCatalogStaysWithinASmallMultipleOfTypes) {
  {
    FeatureCatalog warmup;
    for (const xml::NodeId root : roots_) CountedExtract(root, &warmup);
  }
  FeatureCatalog catalog;
  uint64_t total_allocs = 0;
  uint64_t total_types = 0;
  for (const xml::NodeId root : roots_) {
    const Counted got = CountedExtract(root, &catalog);
    total_allocs += got.allocs;
    total_types += got.features.NumTypes();
    EXPECT_LE(got.allocs, 4 * got.features.NumTypes())
        << "root " << root << ": " << got.features.NumTypes() << " types";
  }
  EXPECT_LE(total_allocs, 2 * total_types);
}

}  // namespace
}  // namespace xsact::feature
