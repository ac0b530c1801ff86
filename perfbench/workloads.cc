#include "workloads.h"

#include <cstdio>
#include <utility>

#include "common/rng.h"
#include "data/movies.h"
#include "data/outdoor_retailer.h"
#include "data/product_reviews.h"
#include "xml/io.h"

namespace perfbench {

namespace {

using xsact::Status;
namespace data = xsact::data;

std::string PercentEncode(const std::string& in) {
  std::string out;
  for (char c : in) {
    if (c == ' ') {
      out += "%20";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

MixQuery Query(const std::string& dataset, const std::string& query,
               size_t max_results = 0, const std::string& lift = "") {
  MixQuery q;
  q.dataset = dataset;
  q.query = query;
  q.max_results = max_results;
  q.options.lift_results_to = lift;
  q.url = "/query?dataset=" + dataset + "&q=" + PercentEncode(query);
  if (!lift.empty()) q.url += "&lift=" + lift;
  if (max_results > 0) q.url += "&max_results=" + std::to_string(max_results);
  return q;
}

// Generator seeds: the defaults the repository's tests use, moved by the
// workload seed so each seed is a different corpus of the same shape.
uint64_t GeneratorSeed(uint64_t base, uint64_t seed) {
  return base + 1000003ULL * seed;
}

// The movie generator at `scale` times the default franchise sizes. Every
// movie gets the mean review count of the default 6..48 range: a query
// compares its first few movies, so a drawn count would make the work per
// request, and with it every latency, depend on the seed.
data::MoviesConfig Movies(int scale, uint64_t seed) {
  data::MoviesConfig config;
  for (int& size : config.franchise_sizes) size *= scale;
  config.min_reviews = config.max_reviews = 27;
  config.seed = GeneratorSeed(config.seed, seed);
  return config;
}

// bench_index_compress's selective two-term queries on movies plus the
// paper's QM1..QM8 franchise terms, comparing the first 8 results.
std::vector<MixQuery> LargeMoviesMix() {
  std::vector<MixQuery> mix;
  for (const char* text : {"phantom kimura", "ember eclipse",
                           "crystal requiem", "thunder moreau"}) {
    mix.push_back(Query("movies", text, 8));
  }
  for (const data::QuerySpec& spec : data::MovieQueryWorkload()) {
    mix.push_back(Query("movies", spec.query, 8));
  }
  return mix;
}

std::vector<Workload> MakeWorkloads() {
  std::vector<Workload> out;
  {
    Workload w;
    w.name = "http_light";
    w.http = true;
    w.clients = 2;
    w.workers = 2;
    w.setups = 15;
    w.reloads = 100;
    w.reload_rounds = 10;
    w.reload_dataset = "movies";
    w.datasets = {"products", "outdoor", "movies"};
    w.generate = [](uint64_t seed) {
      // bench_server_serve's sizes.
      data::ProductReviewsConfig products;
      products.num_products = 48;
      products.seed = GeneratorSeed(products.seed, seed);
      data::OutdoorRetailerConfig outdoor;
      outdoor.seed = GeneratorSeed(outdoor.seed, seed);
      std::vector<xsact::xml::Document> docs;
      docs.push_back(data::GenerateProductReviews(products));
      docs.push_back(data::GenerateOutdoorRetailer(outdoor));
      docs.push_back(data::GenerateMovies(Movies(1, seed)));
      return docs;
    };
    // bench_server_serve's seven wire queries, then QM1..QM8.
    for (const char* text : {"gps", "camera", "phone"}) {
      w.mix.push_back(Query("products", text));
    }
    w.mix.push_back(Query("outdoor", "men jackets", 0, "brand"));
    const std::vector<data::QuerySpec> qm = data::MovieQueryWorkload();
    for (size_t i = 0; i < 3; ++i) {
      w.mix.push_back(Query("movies", qm[i].query));
    }
    for (const data::QuerySpec& spec : qm) {
      w.mix.push_back(Query("movies", spec.query));
    }
    out.push_back(std::move(w));
  }
  {
    Workload w;
    w.name = "engine_large";
    w.setups = 3;
    w.reloads = 5;
    w.reload_dataset = "movies";
    w.datasets = {"movies"};
    w.generate = [](uint64_t seed) {
      std::vector<xsact::xml::Document> docs;
      docs.push_back(data::GenerateMovies(Movies(60, seed)));
      return docs;
    };
    w.mix = LargeMoviesMix();
    out.push_back(std::move(w));
  }
  return out;
}

const std::vector<Workload>& AllWorkloads() {
  static const std::vector<Workload>* workloads =
      new std::vector<Workload>(MakeWorkloads());
  return *workloads;
}

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : AllWorkloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Status GenerateCorpora(const Workload& workload, uint64_t seed,
                       const std::string& dir) {
  const std::vector<xsact::xml::Document> docs = workload.generate(seed);
  for (size_t i = 0; i < docs.size(); ++i) {
    const std::string path = dir + "/" + workload.datasets[i] + ".xml";
    const Status status = xsact::xml::WriteDocumentToFile(docs[i], path);
    if (!status.ok()) return status;
    std::printf("wrote %s (%zu nodes)\n", path.c_str(), docs[i].NodeCount());
  }
  return Status::Ok();
}

std::vector<MixQuery> ShuffledMix(const Workload& workload, uint64_t seed) {
  std::vector<MixQuery> mix = workload.mix;
  xsact::Rng rng(seed);
  for (size_t i = mix.size(); i > 1; --i) {
    std::swap(mix[i - 1], mix[rng.Below(i)]);
  }
  return mix;
}

}  // namespace perfbench
