// Tests for the CLI option parser and application flow.

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "cli/app.h"
#include "cli/options.h"
#include "common/shutdown_signal.h"
#include "data/product_reviews.h"
#include "xml/io.h"
#include "xml/writer.h"

namespace xsact::cli {
namespace {

StatusOr<CliOptions> Parse(std::vector<const char*> args) {
  args.insert(args.begin(), "xsact");
  return ParseCliArgs(static_cast<int>(args.size()), args.data());
}

TEST(CliParseTest, DefaultsWithQuery) {
  auto options = Parse({"--query=tomtom gps"});
  ASSERT_TRUE(options.ok()) << options.status();
  EXPECT_EQ(options->query, "tomtom gps");
  EXPECT_EQ(options->dataset, "products");
  EXPECT_EQ(options->algorithm, core::SelectorKind::kMultiSwap);
  EXPECT_EQ(options->format, OutputFormat::kAscii);
  EXPECT_EQ(options->bound, 6);
  EXPECT_EQ(options->max_results, 4u);
  EXPECT_DOUBLE_EQ(options->threshold, 0.10);
  EXPECT_FALSE(options->list_only);
  EXPECT_FALSE(options->ranked);
}

TEST(CliParseTest, QueryIsMandatoryUnlessHelp) {
  EXPECT_EQ(Parse({}).status().code(), StatusCode::kInvalidArgument);
  auto help = Parse({"--help"});
  ASSERT_TRUE(help.ok());
  EXPECT_TRUE(help->help);
}

TEST(CliParseTest, AllFlagsParse) {
  auto options = Parse({"--query=men jackets", "--dataset=outdoor",
                        "--algorithm=single-swap", "--format=json",
                        "--lift=brand", "--bound=9", "--max-results=0",
                        "--threshold=0.25", "--seed=7", "--ranked", "--list",
                        "--show-dfs", "--weights=significance"});
  ASSERT_TRUE(options.ok()) << options.status();
  EXPECT_EQ(options->dataset, "outdoor");
  EXPECT_EQ(options->algorithm, core::SelectorKind::kSingleSwap);
  EXPECT_EQ(options->format, OutputFormat::kJson);
  EXPECT_EQ(options->lift, "brand");
  EXPECT_EQ(options->bound, 9);
  EXPECT_EQ(options->max_results, 0u);
  EXPECT_DOUBLE_EQ(options->threshold, 0.25);
  EXPECT_EQ(options->seed, 7u);
  EXPECT_TRUE(options->ranked);
  EXPECT_TRUE(options->list_only);
  EXPECT_TRUE(options->show_dfs);
  EXPECT_EQ(options->weight_scheme, core::WeightScheme::kSignificance);
}

TEST(CliParseTest, AlgorithmAliases) {
  EXPECT_EQ(Parse({"--query=q", "--algorithm=multi"})->algorithm,
            core::SelectorKind::kMultiSwap);
  EXPECT_EQ(Parse({"--query=q", "--algorithm=single"})->algorithm,
            core::SelectorKind::kSingleSwap);
  EXPECT_EQ(Parse({"--query=q", "--algorithm=weighted"})->algorithm,
            core::SelectorKind::kWeightedMultiSwap);
  EXPECT_EQ(Parse({"--query=q", "--format=md"})->format,
            OutputFormat::kMarkdown);
}

TEST(CliParseTest, RejectsMalformedValues) {
  EXPECT_FALSE(Parse({"--query=q", "--bound=zero"}).ok());
  EXPECT_FALSE(Parse({"--query=q", "--bound=0"}).ok());
  EXPECT_FALSE(Parse({"--query=q", "--bound=-3"}).ok());
  EXPECT_FALSE(Parse({"--query=q", "--threshold=abc"}).ok());
  EXPECT_FALSE(Parse({"--query=q", "--threshold=-1"}).ok());
  EXPECT_FALSE(Parse({"--query=q", "--max-results=-1"}).ok());
  EXPECT_FALSE(Parse({"--query=q", "--algorithm=quantum"}).ok());
  EXPECT_FALSE(Parse({"--query=q", "--format=pdf"}).ok());
  EXPECT_FALSE(Parse({"--query=q", "--weights=magic"}).ok());
  EXPECT_FALSE(Parse({"--query=q", "--bound"}).ok());
  EXPECT_FALSE(Parse({"--query=q", "--frobnicate=1"}).ok());
  EXPECT_FALSE(Parse({"--query=q", "positional"}).ok());
}

TEST(CliParseTest, UsageMentionsEveryFlag) {
  const std::string usage = CliUsage();
  for (const char* flag :
       {"--dataset", "--query", "--algorithm", "--weights", "--bound",
        "--max-results", "--threshold", "--lift", "--format", "--seed",
        "--ranked", "--list", "--show-dfs", "--help", "--deadline-ms",
        "--max-queue", "--threads", "--repeat", "--cache", "--watch",
        "--max-reloads", "--serve", "--port", "--drain-ms"}) {
    EXPECT_NE(usage.find(flag), std::string::npos) << flag;
  }
}

TEST(CliParseTest, SingleDatasetKeepsLegacyField) {
  auto options = Parse({"--query=gps", "--dataset=outdoor"});
  ASSERT_TRUE(options.ok()) << options.status();
  EXPECT_EQ(options->dataset, "outdoor");
  ASSERT_EQ(options->datasets.size(), 1u);
  EXPECT_EQ(options->datasets[0].name, "outdoor");
  EXPECT_EQ(options->datasets[0].source, "outdoor");
}

TEST(CliParseTest, RepeatedNamedDatasetsParse) {
  auto options = Parse({"--query=gps", "--dataset=shop=products",
                        "--dataset=films=movies",
                        "--dataset=extra=corpus/extra.xml"});
  ASSERT_TRUE(options.ok()) << options.status();
  ASSERT_EQ(options->datasets.size(), 3u);
  EXPECT_EQ(options->datasets[0].name, "shop");
  EXPECT_EQ(options->datasets[0].source, "products");
  EXPECT_EQ(options->datasets[1].name, "films");
  EXPECT_EQ(options->datasets[1].source, "movies");
  EXPECT_EQ(options->datasets[2].name, "extra");
  EXPECT_EQ(options->datasets[2].source, "corpus/extra.xml");
}

// A value whose pre-'=' part contains '/' or '.' is a verbatim file
// path, not a name=source binding — a file literally named
// "results=v2.xml" stays addressable.
TEST(CliParseTest, PathLikeDatasetValuesAreNotSplit) {
  auto dotted = Parse({"--query=q", "--dataset=./results=v2.xml"});
  ASSERT_TRUE(dotted.ok()) << dotted.status();
  EXPECT_EQ(dotted->dataset, "./results=v2.xml");
  ASSERT_EQ(dotted->datasets.size(), 1u);
  EXPECT_EQ(dotted->datasets[0].source, "./results=v2.xml");

  auto slashed = Parse({"--query=q", "--dataset=corpora/run=3/a.xml"});
  ASSERT_TRUE(slashed.ok()) << slashed.status();
  EXPECT_EQ(slashed->dataset, "corpora/run=3/a.xml");
}

TEST(CliParseTest, RejectsBadDatasetBindings) {
  EXPECT_FALSE(Parse({"--query=q", "--dataset==products"}).ok());
  EXPECT_FALSE(Parse({"--query=q", "--dataset=name="}).ok());
  EXPECT_FALSE(
      Parse({"--query=q", "--dataset=a=products", "--dataset=a=movies"})
          .ok())
      << "duplicate names must be rejected";
  EXPECT_FALSE(Parse({"--query=q", "--dataset=a=products",
                      "--dataset=b=movies", "--list"})
                   .ok())
      << "--list is a single-dataset mode";
}

TEST(CliParseTest, AdmissionFlagsParse) {
  auto options = Parse(
      {"--query=q", "--threads=2", "--deadline-ms=250", "--max-queue=16"});
  ASSERT_TRUE(options.ok()) << options.status();
  EXPECT_EQ(options->deadline_ms, 250);
  EXPECT_EQ(options->max_queue, 16);
  EXPECT_FALSE(Parse({"--query=q", "--threads=2", "--deadline-ms=-1"}).ok());
  EXPECT_FALSE(Parse({"--query=q", "--threads=2", "--max-queue=-2"}).ok());
  EXPECT_FALSE(Parse({"--query=q", "--threads=2", "--deadline-ms"}).ok());
}

// The synchronous single-dataset path never constructs a QueryService,
// so admission flags there would be silently ignored — reject instead.
TEST(CliParseTest, AdmissionFlagsNeedAServingMode) {
  EXPECT_FALSE(Parse({"--query=q", "--deadline-ms=250"}).ok());
  EXPECT_FALSE(Parse({"--query=q", "--max-queue=16"}).ok());
  EXPECT_TRUE(Parse({"--query=q", "--cache", "--max-queue=16"}).ok());
  EXPECT_TRUE(Parse({"--query=q", "--repeat=4", "--deadline-ms=250"}).ok());
  EXPECT_TRUE(Parse({"--query=q", "--dataset=a=products",
                     "--dataset=b=movies", "--deadline-ms=250"})
                  .ok());
}

TEST(CliParseTest, RouterWatchNeedsAFileDataset) {
  EXPECT_FALSE(Parse({"--query=q", "--dataset=a=products",
                      "--dataset=b=movies", "--watch"})
                   .ok());
  auto ok = Parse({"--query=q", "--dataset=a=products",
                   "--dataset=b=corpus/b.xml", "--watch"});
  EXPECT_TRUE(ok.ok()) << ok.status();
}

TEST(CliParseTest, ServeFlagsParse) {
  // --serve needs no --query; it is a network serving mode.
  auto options = Parse({"--serve", "--port=8080", "--drain-ms=500",
                        "--dataset=outdoor"});
  ASSERT_TRUE(options.ok()) << options.status();
  EXPECT_TRUE(options->serve);
  EXPECT_EQ(options->port, 8080);
  EXPECT_EQ(options->drain_ms, 500);
  EXPECT_TRUE(options->query.empty());

  auto defaults = Parse({"--serve"});
  ASSERT_TRUE(defaults.ok()) << defaults.status();
  EXPECT_EQ(defaults->port, 0) << "port 0 = kernel-assigned";
}

TEST(CliParseTest, ServeRejectsConflictsAndBadValues) {
  EXPECT_FALSE(Parse({"--serve", "--watch"}).ok());
  EXPECT_FALSE(Parse({"--serve", "--list"}).ok());
  EXPECT_FALSE(Parse({"--serve", "--ranked"}).ok());
  EXPECT_FALSE(Parse({"--serve", "--repeat=4"}).ok());
  EXPECT_FALSE(Parse({"--serve", "--port=70000"}).ok());
  EXPECT_FALSE(Parse({"--serve", "--port=-1"}).ok());
  EXPECT_FALSE(Parse({"--serve", "--port=http"}).ok());
  EXPECT_FALSE(Parse({"--serve", "--drain-ms=-5"}).ok());
  // Serve-only flags are meaningless (silently ignored) elsewhere.
  EXPECT_FALSE(Parse({"--query=q", "--port=8080"}).ok());
  EXPECT_FALSE(Parse({"--query=q", "--drain-ms=100"}).ok());
}

TEST(CliAppTest, HelpPrintsUsage) {
  CliOptions options;
  options.help = true;
  std::ostringstream out, err;
  EXPECT_EQ(RunApp(options, out, err), 0);
  EXPECT_NE(out.str().find("usage:"), std::string::npos);
}

TEST(CliAppTest, UnknownDatasetFails) {
  CliOptions options;
  options.dataset = "nope";
  options.query = "gps";
  std::ostringstream out, err;
  EXPECT_EQ(RunApp(options, out, err), 1);
  EXPECT_NE(err.str().find("unknown dataset"), std::string::npos);
}

TEST(CliAppTest, StatsReportPerStructureMemory) {
  CliOptions options;
  options.stats = true;
  std::ostringstream out, err;
  EXPECT_EQ(RunApp(options, out, err), 0) << err.str();
  for (const char* line :
       {"index: ", "memory: ", "  node records: ", "  node table: ",
        "  source text: ", "  postings: ", "  category index: "}) {
    EXPECT_NE(out.str().find(line), std::string::npos) << line;
  }
  // The node table's three columns: 16 bytes per node.
  EXPECT_NE(out.str().find("(16.0 B/node)"), std::string::npos);
}

TEST(CliAppTest, ListModeShowsSnippets) {
  CliOptions options;
  options.query = "gps";
  options.list_only = true;
  std::ostringstream out, err;
  EXPECT_EQ(RunApp(options, out, err), 0);
  EXPECT_NE(out.str().find("results"), std::string::npos);
  EXPECT_NE(out.str().find("1. "), std::string::npos);
  EXPECT_NE(out.str().find("name:"), std::string::npos);
}

TEST(CliAppTest, CompareProducesTable) {
  CliOptions options;
  options.query = "gps";
  options.show_dfs = true;
  std::ostringstream out, err;
  EXPECT_EQ(RunApp(options, out, err), 0) << err.str();
  EXPECT_NE(out.str().find("total DoD:"), std::string::npos);
  EXPECT_NE(out.str().find("selected DFSs"), std::string::npos);
}

TEST(CliAppTest, JsonFormatEmitsJson) {
  CliOptions options;
  options.query = "gps";
  options.format = OutputFormat::kJson;
  std::ostringstream out, err;
  EXPECT_EQ(RunApp(options, out, err), 0) << err.str();
  EXPECT_EQ(out.str().find("total DoD:"), std::string::npos);
  EXPECT_NE(out.str().find("\"total_dod\":"), std::string::npos);
}

TEST(CliAppTest, WeightedAlgorithmWithSchemes) {
  for (core::WeightScheme scheme :
       {core::WeightScheme::kUniform, core::WeightScheme::kInterestingness,
        core::WeightScheme::kSignificance}) {
    CliOptions options;
    options.query = "gps";
    options.algorithm = core::SelectorKind::kWeightedMultiSwap;
    options.weight_scheme = scheme;
    std::ostringstream out, err;
    EXPECT_EQ(RunApp(options, out, err), 0) << err.str();
    EXPECT_NE(out.str().find("total DoD:"), std::string::npos);
  }
}

TEST(CliAppTest, OutdoorLiftScenario) {
  CliOptions options;
  options.dataset = "outdoor";
  options.query = "men jackets";
  options.lift = "brand";
  std::ostringstream out, err;
  EXPECT_EQ(RunApp(options, out, err), 0) << err.str();
  EXPECT_NE(out.str().find("product.category"), std::string::npos);
}

// One invocation, two datasets, one router: each dataset renders under
// its own header and the admission/cache counters are printed.
TEST(CliAppTest, RouterServesMultipleDatasets) {
  CliOptions options;
  options.query = "gps";
  options.datasets = {{"left", "products"}, {"right", "products"}};
  options.cache = true;
  options.repeat = 2;
  options.deadline_ms = 60000;
  options.max_queue = 64;
  std::ostringstream out, err;
  EXPECT_EQ(RunApp(options, out, err), 0) << err.str();
  EXPECT_NE(out.str().find("=== left (epoch 0) ==="), std::string::npos);
  EXPECT_NE(out.str().find("=== right (epoch 0) ==="), std::string::npos);
  EXPECT_NE(out.str().find("total DoD:"), std::string::npos);
  EXPECT_NE(out.str().find("router stats:"), std::string::npos);
  EXPECT_NE(out.str().find("shed 0"), std::string::npos);
  EXPECT_NE(out.str().find("deadline-exceeded 0"), std::string::npos);
}

TEST(CliAppTest, RouterReportsUnknownSource) {
  CliOptions options;
  options.query = "gps";
  options.datasets = {{"a", "products"}, {"b", "nope"}};
  std::ostringstream out, err;
  EXPECT_EQ(RunApp(options, out, err), 1);
  EXPECT_NE(err.str().find("dataset 'b'"), std::string::npos);
  EXPECT_NE(err.str().find("unknown dataset"), std::string::npos);
}

TEST(CliAppTest, NoResultsQueryFailsGracefully) {
  CliOptions options;
  options.query = "zzzznothing";
  std::ostringstream out, err;
  EXPECT_EQ(RunApp(options, out, err), 1);
  EXPECT_NE(err.str().find("at least two results"), std::string::npos);
}

// --serve with a shutdown already requested (the signal beat the
// server to its poll loop): the server must start, drain immediately,
// and exit 0 — the startup race the wakeup pipe exists for.
TEST(CliAppTest, ServeModeDrainsOnPresetShutdown) {
  RequestShutdown();
  CliOptions options;
  options.serve = true;
  options.drain_ms = 500;
  std::ostringstream out, err;
  const int rc = RunApp(options, out, err);
  ResetShutdownState();
  EXPECT_EQ(rc, 0) << err.str();
  EXPECT_NE(out.str().find("serving 1 dataset(s) on http://127.0.0.1:"),
            std::string::npos);
  EXPECT_NE(out.str().find("drained:"), std::string::npos);
}

// --watch with a shutdown already requested: serve once, then stop at
// the first loop iteration instead of polling forever.
TEST(CliAppTest, WatchModeStopsOnPresetShutdown) {
  data::ProductReviewsConfig config;
  config.num_products = 8;
  config.seed = 3;
  const std::string path = ::testing::TempDir() + "/xsact_cli_watch.xml";
  ASSERT_TRUE(
      xml::WriteStringToFile(
          path, xml::WriteDocument(data::GenerateProductReviews(config)))
          .ok());

  RequestShutdown();
  CliOptions options;
  options.query = "gps";
  options.dataset = path;
  options.datasets = {{path, path}};
  options.watch = true;
  std::ostringstream out, err;
  const int rc = RunApp(options, out, err);
  ResetShutdownState();
  EXPECT_EQ(rc, 0) << err.str();
  EXPECT_NE(out.str().find("shutdown requested; stopping watch"),
            std::string::npos)
      << out.str();
}

}  // namespace
}  // namespace xsact::cli
