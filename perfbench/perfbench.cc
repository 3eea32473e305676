// End-to-end benchmark of the PSPC library: parallel index build, label
// queries, and serving under edge churn, driven only through the public
// API and checked against oracles that do not use the index.
//
//   pspc_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  --work-dir <dir>
//
// Every workload runs the same phases on its own graph, interleaved in
// cycles so that each metric is sampled across the whole run and a
// slow spell of the machine moves its median less:
//
//   setup  the edge-list file is loaded through the library's loader
//          (setup_s is the median over groups of loads of the mean
//          load time);
//   build  ComputeOrder + build at the parallel thread count, then the
//          same on one thread; the two indexes must be equal;
//   query  single-thread passes over one fixed random pair set;
//   serve  a ServingEngine over a DynamicSpcIndex (DynamicDspcIndex for
//          the directed workload) made once from the first build: per
//          cycle, one closed-loop client sends batched reads while one
//          open-loop writer applies the next slice of a pre-generated
//          closure-churn stream at a fixed rate.
//
// The workloads differ in graph family, ordering, and in how a cycle
// divides its time (see README.md).
//
// Oracles: BFS (src/baseline, DiBfsSpcPair for directed graphs) on the
// benchmark's own copy of the edge list — never on a graph the library
// loaded or maintained — for sampled sources after the build and again
// after the churn (on a replica the benchmark updates from the stream
// itself); and 1-thread == parallel index equality every build round.
// A self-test feeds the checker a corrupted answer and requires it to
// be rejected.
//
// The last line of stdout is one JSON object:
//   {"correct":..., "attempted":..., "failed":..., "metrics":{...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). The process exits 1 on any oracle mismatch.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "span_trace.h"
#include "src/baseline/bfs_spc.h"
#include "src/common/random.h"
#include "src/core/builder_facade.h"
#include "src/digraph/dbfs_spc.h"
#include "src/digraph/digraph.h"
#include "src/digraph/digraph_io.h"
#include "src/digraph/dpspc_builder.h"
#include "src/dynamic/closure_churn.h"
#include "src/dynamic/dynamic_dspc_index.h"
#include "src/dynamic/dynamic_spc_index.h"
#include "src/graph/generators.h"
#include "src/graph/graph_builder.h"
#include "src/graph/graph_io.h"
#include "src/label/query_engine.h"
#include "src/obs/metric_names.h"
#include "src/obs/metrics.h"
#include "src/serve/serving_engine.h"

namespace perfbench {
namespace {

using pspc::SpcResult;
using pspc::VertexId;
using Edge = std::pair<VertexId, VertexId>;

// ------------------------------------------------------------ workloads

struct WorkloadSpec {
  const char* name;
  bool directed;
  // The workload's graph: one fixed instance of its family (generator
  // seeds fixed, as in src/graph/datasets.cc), as undirected edges once
  // each or as directed arcs. --seed draws the query pairs, read pairs
  // and oracle sources and, where `rename` is set, a renaming of the
  // vertices; the update stream is drawn once on the fixed instance and
  // renamed with it. Runs with different seeds thus repeat the same
  // work under different pairs and ids, rather than on graphs and
  // streams whose costs differ by seed: BarabasiAlbert label sizes vary
  // by up to 18% between generator seeds.
  std::function<std::vector<Edge>()> make_edges;
  // Off where ids change the work itself: the road-network order breaks
  // elimination ties by id, and a renaming moves its index size by 13%.
  bool rename;
  pspc::OrderingScheme ordering;  // undirected only
  double cycle_s;        // nominal cycle length; --seconds sets the count
  int build_rounds;      // per cycle
  size_t write_batch;    // updates per ApplyUpdates
  double write_rate_hz;  // scheduled update batches per second
  size_t slice_batches;  // update batches per cycle
};

std::vector<Edge> UndirectedEdges(const pspc::Graph& g) {
  std::vector<Edge> edges;
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    for (const VertexId v : g.Neighbors(u)) {
      if (u < v) edges.push_back({u, v});
    }
  }
  return edges;
}

// GO-analog arcs: R-MAT edges, each kept both ways with probability
// 0.2, otherwise given one direction by a fair coin.
std::vector<Edge> DirectedRmatArcs(int scale, uint64_t seed) {
  const pspc::Graph g = pspc::GenerateRmat(
      scale, pspc::EdgeId{5} << scale, 0.57, 0.19, 0.19, seed);
  pspc::Rng rng(seed + 1);
  std::vector<Edge> arcs;
  for (const auto& [u, v] : UndirectedEdges(g)) {
    const double x = rng.NextDouble();
    if (x < 0.2) {
      arcs.push_back({u, v});
      arcs.push_back({v, u});
    } else if (x < 0.6) {
      arcs.push_back({u, v});
    } else {
      arcs.push_back({v, u});
    }
  }
  return arcs;
}

// A random renaming of `[0, n)` drawn from `seed`; the identity when
// `rename` is false.
std::vector<VertexId> Renaming(VertexId n, bool rename, uint64_t seed) {
  std::vector<VertexId> id(n);
  for (VertexId v = 0; v < n; ++v) id[v] = v;
  if (!rename) return id;
  pspc::Rng rng(seed);
  for (VertexId i = n; i > 1; --i) {
    std::swap(id[i - 1], id[rng.NextBounded(i)]);
  }
  return id;
}

// Shared by every workload.
constexpr int kQueryPasses = 4;        // per cycle; traced mode alternates
constexpr size_t kQueryPairs = 20000;  // fixed pair set of the query phase
constexpr size_t kReadBatch = 256;     // pairs per SubmitBatch

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {.name = "fb-static",
       .directed = false,
       .make_edges =
           [] {
             return UndirectedEdges(
                 pspc::GenerateBarabasiAlbert(4096, 10, 0xFB01));
           },
       .rename = true,
       .ordering = pspc::OrderingScheme::kDegree,
       .cycle_s = 7.0,
       .build_rounds = 1,
       .write_batch = 1,
       .write_rate_hz = 1.0,
       .slice_batches = 4},
      {.name = "rd-static",
       .directed = false,
       .make_edges =
           [] {
             return UndirectedEdges(
                 pspc::GenerateRoadGrid(64, 64, 0.92, 0.06, 0xAD01));
           },
       .rename = false,
       .ordering = pspc::OrderingScheme::kRoadNetwork,
       .cycle_s = 6.5,
       .build_rounds = 2,
       .write_batch = 1,
       .write_rate_hz = 0.5,
       .slice_batches = 2},
      {.name = "go-directed",
       .directed = true,
       .make_edges = [] { return DirectedRmatArcs(13, 0x6001); },
       .rename = true,
       .ordering = pspc::OrderingScheme::kDegree,
       .cycle_s = 5.5,
       .build_rounds = 3,
       .write_batch = 1,
       .write_rate_hz = 4.0,
       .slice_batches = 12},
      {.name = "ba-serve-churn",
       .directed = false,
       .make_edges =
           [] {
             return UndirectedEdges(
                 pspc::GenerateBarabasiAlbert(4000, 4, 0xBA01));
           },
       .rename = true,
       .ordering = pspc::OrderingScheme::kDegree,
       .cycle_s = 5.0,
       .build_rounds = 2,
       .write_batch = 2,
       .write_rate_hz = 2.5,
       .slice_batches = 8},
  };
  return kWorkloads;
}

// ------------------------------------------------------------- helpers

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank quantile of exact samples.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Sum(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum;
}

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : Sum(v) / static_cast<double>(v.size());
}

double Max(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

// a / b, or 0 when b is 0.
double Ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// Counts oracle checks; remembers the first few mismatches.
class Checker {
 public:
  explicit Checker(bool quiet = false) : quiet_(quiet) {}
  void Expect(bool ok, const std::string& what) {
    ++checks_;
    if (ok) return;
    ++failures_;
    if (!quiet_ && failures_ <= 5) {
      std::fprintf(stderr, "MISMATCH: %s\n", what.c_str());
    }
  }
  void ExpectAnswer(const SpcResult& got, const SpcResult& want,
                    const char* where, VertexId s, VertexId t) {
    const bool ok = got == want;
    if (ok) {
      ++checks_;
      return;
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s (%u,%u): got d=%u c=%llu, oracle d=%u c=%llu", where, s,
                  t, got.distance, static_cast<unsigned long long>(got.count),
                  want.distance, static_cast<unsigned long long>(want.count));
    Expect(false, buf);
  }
  uint64_t Checks() const { return checks_; }
  uint64_t Failures() const { return failures_; }

 private:
  bool quiet_;
  uint64_t checks_ = 0;
  uint64_t failures_ = 0;
};

SpcResult FromBfs(const pspc::SingleSourceSpc& bfs, VertexId t) {
  if (bfs.distance[t] == pspc::kInfDistance) return {};
  return {bfs.distance[t], bfs.count[t]};
}

// The (source, targets) pairs an oracle pass checks.
struct OraclePlan {
  std::vector<VertexId> sources;
  std::vector<std::vector<VertexId>> targets;  // per source
};

// Undirected: 8 sources, every target (one BFS answers them all).
// Directed: 16 sources x 16 targets, one DiBfsSpcPair each.
OraclePlan MakeOraclePlan(VertexId n, bool directed, uint64_t seed) {
  pspc::Rng rng(seed);
  OraclePlan plan;
  for (int i = 0; i < (directed ? 16 : 8); ++i) {
    plan.sources.push_back(static_cast<VertexId>(rng.NextBounded(n)));
    std::vector<VertexId> targets;
    if (directed) {
      for (int j = 0; j < 16; ++j) {
        targets.push_back(static_cast<VertexId>(rng.NextBounded(n)));
      }
    } else {
      for (VertexId t = 0; t < n; ++t) targets.push_back(t);
    }
    plan.targets.push_back(std::move(targets));
  }
  return plan;
}

// ------------------------------------------------ graph-kind adapters

struct Undirected {
  using GraphT = pspc::Graph;
  using IndexT = pspc::SpcIndex;
  using DynamicT = pspc::DynamicSpcIndex;

  static pspc::Result<GraphT> Load(const std::string& path) {
    return pspc::LoadEdgeList(path);
  }
  static GraphT FromEdges(VertexId n, const std::vector<Edge>& edges) {
    return pspc::MakeGraph(n, edges);
  }
  static Edge Key(VertexId u, VertexId v) {
    return u < v ? Edge{u, v} : Edge{v, u};
  }
  static pspc::VertexOrder Order(const GraphT& g, const WorkloadSpec& spec) {
    return pspc::ComputeOrder(g, spec.ordering, pspc::kDefaultHybridDelta);
  }
  static pspc::BuildOptions Options(const WorkloadSpec& spec, int threads) {
    pspc::BuildOptions options;
    options.ordering = spec.ordering;
    options.num_threads = threads;
    return options;
  }
  static std::pair<IndexT, pspc::BuildStats> Build(
      const GraphT& g, const pspc::VertexOrder& order,
      const WorkloadSpec& spec, int threads) {
    pspc::BuildResult r =
        pspc::BuildIndexWithOrder(g, order, Options(spec, threads));
    return {std::move(r.index), r.stats};
  }
  static size_t EntriesForPair(const IndexT& index, VertexId s, VertexId t) {
    return index.Labels(s).size() + index.Labels(t).size();
  }
  static std::vector<SpcResult> OracleAnswers(
      const GraphT& g, VertexId s, const std::vector<VertexId>& targets) {
    const pspc::SingleSourceSpc bfs = pspc::BfsSpcFromSource(g, s);
    std::vector<SpcResult> out;
    for (const VertexId t : targets) out.push_back(FromBfs(bfs, t));
    return out;
  }
  static std::unique_ptr<DynamicT> MakeDynamic(
      GraphT g, IndexT index, const WorkloadSpec& spec, int threads,
      pspc::obs::MetricsRegistry* registry) {
    pspc::DynamicOptions options;
    options.num_threads = threads;
    options.rebuild_options = Options(spec, threads);
    options.metrics = registry;
    return std::make_unique<DynamicT>(std::move(g), std::move(index),
                                      options);
  }
};

struct Directed {
  using GraphT = pspc::DiGraph;
  using IndexT = pspc::DiSpcIndex;
  using DynamicT = pspc::DynamicDspcIndex;

  static pspc::Result<GraphT> Load(const std::string& path) {
    return pspc::LoadDirectedEdgeList(path);
  }
  static GraphT FromEdges(VertexId n, const std::vector<Edge>& edges) {
    return pspc::MakeDiGraph(n, edges);
  }
  static Edge Key(VertexId u, VertexId v) { return {u, v}; }
  static pspc::VertexOrder Order(const GraphT& g, const WorkloadSpec&) {
    return pspc::DirectedDegreeOrder(g);
  }
  static std::pair<IndexT, pspc::BuildStats> Build(
      const GraphT& g, const pspc::VertexOrder& order, const WorkloadSpec&,
      int threads) {
    pspc::DiPspcBuildResult r =
        pspc::BuildDirectedPspcIndex(g, order, pspc::DiPspcOptions{threads});
    return {std::move(r.index), r.stats};
  }
  static size_t EntriesForPair(const IndexT& index, VertexId s, VertexId t) {
    return index.OutLabels(s).size() + index.InLabels(t).size();
  }
  static std::vector<SpcResult> OracleAnswers(
      const GraphT& g, VertexId s, const std::vector<VertexId>& targets) {
    std::vector<SpcResult> out;
    for (const VertexId t : targets) out.push_back(pspc::DiBfsSpcPair(g, s, t));
    return out;
  }
  static std::unique_ptr<DynamicT> MakeDynamic(
      GraphT g, IndexT index, const WorkloadSpec&, int threads,
      pspc::obs::MetricsRegistry* registry) {
    pspc::DynamicDiOptions options;
    options.num_threads = threads;
    options.rebuild_options.num_threads = threads;
    options.metrics = registry;
    return std::make_unique<DynamicT>(std::move(g), std::move(index),
                                      options);
  }
};

// ------------------------------------------------------------ results

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct RunReport {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  void E2e(const char* name, double value, const char* unit) {
    end_to_end.push_back({name, value, unit});
  }
  void Layer(const std::string& name, double value, const char* unit) {
    per_layer.push_back({name, value, unit});
  }
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";
};

// -------------------------------------------------------- the workload

template <typename Kind>
class Runner {
 public:
  using GraphT = typename Kind::GraphT;
  using IndexT = typename Kind::IndexT;
  using DynamicT = typename Kind::DynamicT;

  Runner(const WorkloadSpec& spec, const Args& args)
      : spec_(spec), args_(args) {
    // Thread counts are explicit and never exceed the cores. The build
    // runs on all cores but one, at most 4: its distance levels end in
    // barriers, so one thread descheduled by another process would
    // stall every level (measured on a shared 4-core VM: 4-thread
    // builds of rd-static ranged 0.13-0.42 s). The serving side runs
    // two query workers beside one writer (repair and staleness
    // rebuilds on one thread) and one client.
    const int hw = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
    threads_ = std::clamp(hw - 1, 1, 4);
    serve_workers_ = std::min(2, std::max(1, hw - 2));
    cycles_ = std::max<int>(2, static_cast<int>(std::llround(
                                   args.seconds / spec.cycle_s)));
    spans_.SetEnabled(args.trace);
  }

  int Run() {
    Generate();
    for (int cycle = 0; cycle < cycles_; ++cycle) {
      ScopedSpan span(spans_, "bench.cycle", cycle + 1);
      // Setup samples are taken between the phases: one load's time
      // follows the state the machine is in, which changes within a
      // cycle more than within a group of loads.
      LoadGroup(cycle, 0);
      for (int r = 0; r < spec_.build_rounds; ++r) BuildRound(cycle, r);
      LoadGroup(cycle, 1);
      QueryPasses(cycle);
      LoadGroup(cycle, 2);
      ServeSlice(cycle);
    }
    FinishServe();
    return Finish();
  }

 private:
  // All inputs come from --seed and are made before any timing.
  void Generate() {
    const std::vector<Edge> base = spec_.make_edges();
    VertexId base_n = 0;
    for (const auto& [u, v] : base) base_n = std::max({base_n, u + 1, v + 1});
    const std::vector<VertexId> id = Renaming(base_n, spec_.rename, args_.seed);
    for (const auto& [u, v] : base) {
      edges_.push_back({id[u], id[v]});
      n_ = std::max({n_, id[u] + 1, id[v] + 1});
    }
    own_graph_ = Kind::FromEdges(n_, edges_);
    path_ = args_.work_dir + "/" + spec_.name + "-" +
            std::to_string(args_.seed) + ".txt";
    FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) Die("cannot write " + path_);
    for (const auto& [u, v] : edges_) std::fprintf(f, "%u %u\n", u, v);
    if (std::fclose(f) != 0) Die("cannot write " + path_);

    pairs_ = pspc::MakeRandomQueries(n_, kQueryPairs, args_.seed * 3 + 1);
    read_pool_ =
        pspc::MakeRandomQueries(n_, size_t{1} << 20, args_.seed * 3 + 2);
    static_plan_ = MakeOraclePlan(n_, spec_.directed, args_.seed * 3 + 3);
    serve_plan_ = MakeOraclePlan(n_, spec_.directed, args_.seed * 3 + 4);

    // The update stream: closure churn over the fixed instance, renamed.
    pspc::ClosureChurn churn(Kind::FromEdges(base_n, base));
    pspc::Rng rng(0x5EED);
    for (size_t i = 0; i < cycles_ * spec_.slice_batches; ++i) {
      pspc::EdgeUpdateBatch batch;
      for (size_t j = 0; j < spec_.write_batch; ++j) {
        const pspc::EdgeUpdate u = churn.Next(rng);
        batch.Add({id[u.u], id[u.v], u.kind});
      }
      stream_.push_back(std::move(batch));
    }
    statuses_.resize(stream_.size());
  }

  // One setup sample: the mean time of a group of loads, since one load
  // of a small graph takes a few milliseconds, too short to time alone.
  void LoadGroup(int cycle, int group) {
    std::vector<GraphT> loaded;  // freed after the timing
    loaded.reserve(kLoadsPerGroup);
    const int64_t start = NowNs();
    for (int i = 0; i < kLoadsPerGroup; ++i) {
      ScopedSpan span(spans_, "graph.load", cycle + 1);
      pspc::Result<GraphT> g = Kind::Load(path_);
      if (!g.ok()) Die("load failed: " + g.status().ToString());
      loaded.push_back(std::move(g).value());
    }
    load_s_.push_back(Seconds(NowNs() - start) / kLoadsPerGroup);
    if (cycle == 0 && group == 0) {
      graph_ = std::move(loaded.front());
      checker_.Expect(graph_ == own_graph_,
                      "loaded graph differs from the generated edge list");
    }
  }

  void BuildRound(int cycle, int r) {
    const uint64_t round = cycle * spec_.build_rounds + r + 1;
    auto [parallel, stats] = TimedBuild(threads_, round, &build_s_);
    auto [single, stats_1t] = TimedBuild(1, round, &build_1t_s_);
    report_.attempted += 2;
    checker_.Expect(parallel == single, "1-thread and parallel indexes differ");
    landmark_s_.push_back(stats.landmark_seconds);
    construct_s_.push_back(stats.construction_seconds);
    construct_1t_s_.push_back(stats_1t.construction_seconds);
    stats_ = stats;
    index_ = std::move(parallel);
    if (round == 1) {
      CheckAgainstOracle(own_graph_, static_plan_, "index",
                         [&](VertexId s, const std::vector<VertexId>& ts) {
                           std::vector<SpcResult> out;
                           for (const VertexId t : ts) {
                             out.push_back(index_.Query(s, t));
                           }
                           return out;
                         });
    }
  }

  std::pair<IndexT, pspc::BuildStats> TimedBuild(int threads, uint64_t round,
                                                 std::vector<double>* out) {
    ScopedSpan span(spans_, threads == 1 ? "bench.build_1t" : "bench.build",
                    round);
    const int64_t start = NowNs();
    pspc::VertexOrder order;
    {
      ScopedSpan order_span(spans_, "order.compute", round);
      order = Kind::Order(graph_, spec_);
    }
    const int64_t order_end = NowNs();
    std::pair<IndexT, pspc::BuildStats> built;
    {
      ScopedSpan core_span(spans_, "core.build", round);
      built = Kind::Build(graph_, order, spec_, threads);
      // The build's own phase split, as child spans of the call.
      const int64_t landmark_ns =
          static_cast<int64_t>(built.second.landmark_seconds * 1e9);
      const int64_t construct_ns =
          static_cast<int64_t>(built.second.construction_seconds * 1e9);
      spans_.AddChild(core_span.Id(), "core.landmark", order_end,
                      order_end + landmark_ns, round);
      spans_.AddChild(core_span.Id(), "core.construct",
                      order_end + landmark_ns,
                      order_end + landmark_ns + construct_ns, round);
    }
    out->push_back(Seconds(NowNs() - start));
    if (threads != 1) {
      const double order_s = Seconds(order_end - start);
      order_s_.push_back(order_s);
      build_layer_sum_.push_back(order_s + built.second.landmark_seconds +
                                 built.second.construction_seconds);
    }
    return built;
  }

  // One pass over the pair set; returns seconds. With `chunk_spans`
  // every 64 queries (the engine's micro-batch cap) get a span.
  double QueryPass(uint64_t pass, bool chunk_spans, uint64_t* checksum) {
    ScopedSpan span(spans_, "label.query_pass", pass);
    const int64_t start = NowNs();
    uint64_t sum = 0;
    for (size_t i = 0; i < pairs_.size(); i += 64) {
      const size_t end = std::min(pairs_.size(), i + 64);
      ScopedSpan chunk(chunk_spans ? spans_ : disabled_, "label.query_chunk",
                       pass);
      for (size_t j = i; j < end; ++j) {
        const SpcResult r = index_.Query(pairs_[j].first, pairs_[j].second);
        sum += r.count + r.distance;
      }
    }
    *checksum = sum;
    return Seconds(NowNs() - start);
  }

  void QueryPasses(int cycle) {
    if (cycle == 0) {
      // One untimed pass warms the caches and fixes the answers every
      // later pass must reproduce.
      QueryPass(0, false, &query_reference_);
      size_t entries = 0;
      for (const auto& [s, t] : pairs_) {
        entries += Kind::EntriesForPair(index_, s, t);
      }
      entries_per_query_ =
          static_cast<double>(entries) / static_cast<double>(pairs_.size());
    }
    for (int i = 0; i < kQueryPasses; ++i) {
      const uint64_t pass = cycle * kQueryPasses + i + 1;
      // In traced mode every other pass carries per-chunk spans: their
      // cost against the untraced passes is the tracing overhead.
      const bool chunk_spans = args_.trace && i % 2 == 1;
      uint64_t checksum = 0;
      const double s = QueryPass(pass, chunk_spans, &checksum);
      (chunk_spans ? traced_pass_s_ : untraced_pass_s_).push_back(s);
      checker_.Expect(checksum == query_reference_,
                      "query pass answers changed");
      ++report_.attempted;
    }
  }

  void StartEngine() {
    const int64_t start = NowNs();
    dynamic_ = Kind::MakeDynamic(graph_, index_, spec_, /*threads=*/1,
                                 &registry_);
    pspc::ServingOptions options;
    options.num_workers = serve_workers_;
    options.metrics = &registry_;
    options.update_trace_capacity = stream_.size() + 1;
    engine_ = std::make_unique<pspc::ServingEngine>(dynamic_.get(), options);
    serve_start_s_ = Seconds(NowNs() - start);
  }

  // One slice of the churn window: the writer applies the cycle's
  // batches on schedule while the reader sends reads until it is done.
  void ServeSlice(int cycle) {
    if (cycle == 0) StartEngine();
    ScopedSpan phase(spans_, "bench.serve", cycle + 1);
    const size_t first = cycle * spec_.slice_batches;
    const int64_t period_ns = static_cast<int64_t>(1e9 / spec_.write_rate_hz);
    const int64_t t0 = NowNs() + 1'000'000;  // both clients start together
    std::atomic<bool> writer_done{false};

    std::thread writer([&] {
      for (size_t k = 0; k < spec_.slice_batches; ++k) {
        const size_t i = first + k;
        const int64_t scheduled = t0 + static_cast<int64_t>(k) * period_ns;
        while (NowNs() < scheduled) {
          std::this_thread::sleep_for(
              std::chrono::nanoseconds(scheduled - NowNs()));
        }
        const double rebuild_before = dynamic_->Stats().rebuild_seconds;
        const int64_t begin = NowNs();
        {
          ScopedSpan span(spans_, "serve.apply_updates", kUpdateRequest + i);
          apply_spans_.push_back(span.Id());
          statuses_[i] = engine_->ApplyUpdates(stream_[i]);
        }
        const int64_t end = NowNs();
        rebuild_us_.push_back(
            (dynamic_->Stats().rebuild_seconds - rebuild_before) * 1e6);
        lag_ms_.push_back(std::max<int64_t>(0, begin - scheduled) * 1e-6);
        update_ms_.push_back((end - scheduled) * 1e-6);
        apply_ms_.push_back((end - begin) * 1e-6);
      }
      writer_done.store(true);
    });

    // Queries answered in each write period of the scheduled window: a
    // period holds one batch's repair and publish, so each slot's rate
    // carries the same share of the write path's cost. The reader covers
    // the whole window, and past it while the writer is late.
    const int64_t window_ns =
        static_cast<int64_t>(spec_.slice_batches) * period_ns;
    const size_t slots = spec_.slice_batches;
    std::vector<double> per_slot(slots, 0.0);
    std::thread reader([&] {
      while (NowNs() < t0) std::this_thread::yield();
      uint64_t answered = 0;
      while (!writer_done.load() || NowNs() < t0 + window_ns) {
        pspc::QueryBatch batch(read_pool_.begin() + read_cursor_,
                               read_pool_.begin() + read_cursor_ +
                                   kReadBatch);
        read_cursor_ =
            (read_cursor_ + kReadBatch) % (read_pool_.size() - kReadBatch);
        const uint64_t request = ++reads_;
        const int64_t begin = NowNs();
        bool ok;
        {
          ScopedSpan span(spans_, "serve.read", request);
          try {
            ok = engine_->SubmitBatch(batch).get().size() == batch.size();
          } catch (...) {
            ok = false;
          }
        }
        const int64_t end = NowNs();
        read_us_.push_back((end - begin) * 1e-3);
        if (!ok) {
          ++reads_failed_;
          continue;
        }
        answered += batch.size();
        const size_t slot = static_cast<size_t>((end - t0) / period_ns);
        if (slot < slots) per_slot[slot] += batch.size();
        if (request % 32 == 0) {
          retired_pending_max_ = std::max<uint64_t>(
              retired_pending_max_,
              engine_->Counters().snapshots_retired_pending);
        }
      }
      window_queries_ += answered;
      window_s_ += Seconds(NowNs() - t0);
    });
    writer.join();
    reader.join();
    for (const double queries : per_slot) {
      read_qps_.push_back(queries * 1e9 / static_cast<double>(period_ns));
    }
  }

  // Quiesces the engine and checks it against BFS on the replica: the
  // benchmark's own edge set, updated from the stream for every batch
  // the engine accepted.
  void FinishServe() {
    engine_->Drain();
    std::set<Edge> replica;
    for (const auto& [u, v] : edges_) replica.insert(Kind::Key(u, v));
    for (size_t i = 0; i < stream_.size(); ++i) {
      if (!statuses_[i].ok()) {
        ++updates_failed_;
        continue;
      }
      ++batches_applied_;
      for (const pspc::EdgeUpdate& u : stream_[i]) {
        if (u.kind == pspc::EdgeUpdateKind::kInsert) {
          replica.insert(Kind::Key(u.u, u.v));
        } else {
          replica.erase(Kind::Key(u.u, u.v));
        }
      }
    }
    report_.attempted += reads_ + stream_.size();
    report_.failed += reads_failed_ + updates_failed_;
    const GraphT replica_graph =
        Kind::FromEdges(n_, std::vector<Edge>(replica.begin(), replica.end()));
    CheckAgainstOracle(replica_graph, serve_plan_, "engine after churn",
                       [&](VertexId s, const std::vector<VertexId>& ts) {
                         pspc::QueryBatch batch;
                         for (const VertexId t : ts) batch.push_back({s, t});
                         return engine_->SubmitBatch(batch).get();
                       });

    // Each batch's stage costs, as child spans of its ApplyUpdates span.
    const std::vector<pspc::obs::UpdateTrace> traces =
        engine_->UpdateTraces().Log();
    for (size_t i = 0; i < traces.size() && i < stream_.size(); ++i) {
      const pspc::obs::UpdateTrace& tr = traces[i];
      const double stage_us[] = {tr.plan_us, tr.repair_us, rebuild_us_[i],
                                 tr.publish_us, tr.reclaim_us};
      const char* names[] = {"dynamic.plan", "dynamic.repair",
                             "dynamic.rebuild", "serve.publish",
                             "serve.reclaim"};
      int64_t at = tr.start_ns;
      for (int k = 0; k < 5; ++k) {
        const int64_t ns = static_cast<int64_t>(stage_us[k] * 1e3);
        spans_.AddChild(apply_spans_[i], names[k], at, at + ns,
                        kUpdateRequest + i);
        at += ns;
        update_stage_ms_ += stage_us[k] * 1e-3;
      }
    }
  }

  template <typename AnswerFn>
  void CheckAgainstOracle(const GraphT& oracle_graph, const OraclePlan& plan,
                          const char* where, AnswerFn answers) {
    for (size_t i = 0; i < plan.sources.size(); ++i) {
      const VertexId s = plan.sources[i];
      const std::vector<SpcResult> want =
          Kind::OracleAnswers(oracle_graph, s, plan.targets[i]);
      const std::vector<SpcResult> got = answers(s, plan.targets[i]);
      if (got.size() != want.size()) {
        checker_.Expect(false, std::string(where) + ": short answer batch");
        continue;
      }
      for (size_t j = 0; j < want.size(); ++j) {
        checker_.ExpectAnswer(got[j], want[j], where, s, plan.targets[i][j]);
      }
      if (!self_tested_ && !want.empty()) SelfTest(want[0]);
    }
  }

  // The checker must reject a corrupted answer (count or distance).
  void SelfTest(const SpcResult& truth) {
    self_tested_ = true;
    Checker probe(/*quiet=*/true);
    SpcResult bad_count = truth;
    bad_count.count += 1;
    SpcResult bad_distance = truth;
    bad_distance.distance += 1;
    probe.ExpectAnswer(truth, truth, "self-test", 0, 0);
    probe.ExpectAnswer(bad_count, truth, "self-test", 0, 0);
    probe.ExpectAnswer(bad_distance, truth, "self-test", 0, 0);
    self_test_ok_ = probe.Checks() == 3 && probe.Failures() == 2;
  }

  int Finish() {
    const double build_s = Median(build_s_);
    const double build_1t_s = Median(build_1t_s_);
    const double query_ns =
        Median(untraced_pass_s_) / static_cast<double>(pairs_.size()) * 1e9;
    report_.E2e("setup_s", Median(load_s_), "s");
    report_.E2e("build_s", build_s, "s");
    report_.E2e("build_1t_s", build_1t_s, "s");
    report_.E2e("index_bytes", static_cast<double>(index_.SizeBytes()), "B");
    report_.E2e("query_ns", query_ns, "ns");
    report_.E2e("peak_rss_mb", PeakRssMb(), "MB");
    report_.E2e("read_p50_us", Median(read_us_), "us");
    report_.E2e("update_p50_ms", Median(update_ms_), "ms");
    report_.E2e("update_mean_ms", Mean(update_ms_), "ms");
    LayerMetrics(build_s, build_1t_s, query_ns);

    const bool correct = checker_.Failures() == 0 && checker_.Checks() > 0 &&
                         self_test_ok_;
    PrintSummary(correct);
    if (args_.trace) {
      const std::string path = args_.work_dir + "/trace-" + spec_.name + "-" +
                               std::to_string(args_.seed) + ".json";
      if (!spans_.WriteJson(path)) Die("cannot write " + path);
      std::fprintf(stderr, "spans: %s\n", path.c_str());
    }
    std::remove(path_.c_str());
    PrintJson(correct, args_.trace ? report_.per_layer : report_.end_to_end);
    return correct ? 0 : 1;
  }

  void LayerMetrics(double build_s, double build_1t_s, double query_ns) {
    const auto L = [&](const std::string& name, double v, const char* unit) {
      report_.Layer(name, v, unit);
    };
    L("graph.load_s", Median(load_s_), "s");
    L("order.compute_s", Median(order_s_), "s");
    L("core.landmark_s", Median(landmark_s_), "s");
    L("core.construct_s", Median(construct_s_), "s");
    L("core.construct_1t_s", Median(construct_1t_s_), "s");
    L("core.levels", stats_.num_iterations, "count");
    L("core.candidates", stats_.candidates_after_merge, "count");
    L("core.pruned_by_landmark", stats_.pruned_by_landmark, "count");
    L("core.pruned_by_query", stats_.pruned_by_query, "count");
    L("core.labels_inserted", stats_.labels_inserted, "count");
    L("core.insert_yield",
      Ratio(stats_.labels_inserted, stats_.candidates_after_merge), "ratio");
    L("core.parallel_efficiency", build_1t_s / (threads_ * build_s), "ratio");
    L("label.entries", index_.TotalEntries(), "count");
    L("label.entries_per_query", entries_per_query_, "count");
    L("label.merge_ns_per_entry", query_ns / entries_per_query_, "ns");
    L("label.bytes_per_query", entries_per_query_ * sizeof(pspc::LabelEntry),
      "B");

    const pspc::DynamicStats& ds = dynamic_->Stats();
    const double mean_repair = Ratio(ds.repair_seconds, ds.batches_applied);
    const double mean_rebuild = Ratio(ds.rebuild_seconds, ds.rebuilds);
    L("dynamic.rebuilds", ds.rebuilds, "count");
    L("dynamic.rebuild_s_total", ds.rebuild_seconds, "s");
    L("dynamic.repair_s_total", ds.repair_seconds, "s");
    L("dynamic.hub_runs", ds.TotalHubRuns(), "count");
    L("dynamic.full_hub_repairs", ds.affected_hubs, "count");
    L("dynamic.subtract_repairs", ds.subtract_repairs, "count");
    L("dynamic.repair_to_rebuild", Ratio(mean_repair, mean_rebuild), "ratio");
    L("dynamic.staleness_end", dynamic_->StalenessRatio(), "ratio");
    L("dynamic.apply_p90_ms", Quantile(apply_ms_, 0.9), "ms");

    const pspc::ServingCounters counters = engine_->Counters();
    const auto mean_of = [&](const char* histogram) {
      return registry_.GetHistogram(histogram)->Snapshot().Mean();
    };
    L("serve.start_s", serve_start_s_, "s");
    L("serve.queue_wait_us_mean", mean_of(pspc::obs::kServeQueueWaitUs), "us");
    L("serve.micro_batch_mean", mean_of(pspc::obs::kServeMicroBatchSize),
      "count");
    L("serve.cache_hit_ratio",
      Ratio(counters.cache_hits, counters.cache_hits + counters.cache_misses),
      "ratio");
    L("serve.label_bytes_per_query",
      mean_of(pspc::obs::kServeLabelBytesPerQuery), "B");
    L("serve.publish_us_mean", mean_of(pspc::obs::kServePublishUs), "us");
    L("serve.publish_copied_vertices_mean",
      Ratio(counters.publish_copied_vertices_total,
            counters.generations_published),
      "count");
    L("serve.retired_pending_max", retired_pending_max_, "count");
    L("serve.writer_lag_ms_max", Max(lag_ms_), "ms");
    L("serve.writer_lag_ms_mean", Mean(lag_ms_), "ms");
    L("serve.batches_applied", batches_applied_, "count");
    L("serve.reads", reads_, "count");
    L("serve.read_p99_us", Quantile(read_us_, 0.99), "us");
    L("serve.read_qps", Median(read_qps_), "1/s");
    L("serve.read_qps_window", Ratio(window_queries_, window_s_), "1/s");

    // Reconciliation: do the layer times add up to the end-to-end ones?
    //  build:  order + landmark + construction against the timed build;
    //  query:  the traced passes' chunk spans against those passes;
    //  update: plan + repair + rebuild + publish + reclaim against the
    //          client-timed ApplyUpdates calls (lag excluded).
    build_gap_ = 1.0 - Median(build_layer_sum_) / build_s;
    query_gap_ = traced_pass_s_.empty()
                     ? 0.0
                     : 1.0 - spans_.TotalSeconds("label.query_chunk") /
                                 Sum(traced_pass_s_);
    update_gap_ = 1.0 - update_stage_ms_ / Sum(apply_ms_);
    reconcile_ok_ = std::fabs(build_gap_) <= kReconcileSlack &&
                    std::fabs(query_gap_) <= kReconcileSlack &&
                    std::fabs(update_gap_) <= kReconcileSlack;
    overhead_ = traced_pass_s_.empty()
                    ? 0.0
                    : Median(traced_pass_s_) / Median(untraced_pass_s_) - 1.0;
    for (const auto& [layer, self] : spans_.SelfSecondsByLayer()) {
      L("self." + layer + "_s", self, "s");
    }
    L("trace.spans", spans_.Size(), "count");
    L("trace.overhead", overhead_, "ratio");
    L("reconcile.build_gap", build_gap_, "ratio");
    L("reconcile.query_gap", query_gap_, "ratio");
    L("reconcile.update_gap", update_gap_, "ratio");
    L("reconcile.ok", reconcile_ok_ ? 1.0 : 0.0, "count");
    L("oracle.checks", checker_.Checks(), "count");
  }

  void PrintSummary(bool correct) {
    std::fprintf(stderr,
                 "workload %s seed %llu: n=%u m=%zu; %d cycles; build "
                 "threads %d, serve: %d workers + 1 writer + 1 client\n",
                 spec_.name, static_cast<unsigned long long>(args_.seed), n_,
                 edges_.size(), cycles_, threads_, serve_workers_);
    std::fprintf(
        stderr,
        "reads %llu of %zu pairs (failed %llu); update batches %zu of %zu "
        "at %.2f/s (failed %llu, applied %llu); writer lag mean %.3f ms, "
        "max %.3f ms\n",
        static_cast<unsigned long long>(reads_), kReadBatch,
        static_cast<unsigned long long>(reads_failed_), stream_.size(),
        spec_.write_batch, spec_.write_rate_hz,
        static_cast<unsigned long long>(updates_failed_),
        static_cast<unsigned long long>(batches_applied_), Mean(lag_ms_),
        Max(lag_ms_));
    std::fprintf(stderr,
                 "oracle checks %llu, failed %llu; checker self-test %s -> "
                 "%s\n",
                 static_cast<unsigned long long>(checker_.Checks()),
                 static_cast<unsigned long long>(checker_.Failures()),
                 self_test_ok_ ? "rejects corrupted answers" : "FAILED",
                 correct ? "CORRECT" : "INCORRECT");
    if (args_.trace) {
      std::fprintf(stderr,
                   "reconcile %s (slack %.2f): build gap %.4f, query gap "
                   "%.4f, update gap %.4f; tracing overhead %.4f\n",
                   reconcile_ok_ ? "PASS" : "FAIL", kReconcileSlack,
                   build_gap_, query_gap_, update_gap_, overhead_);
    }
    for (const Metric& m :
         args_.trace ? report_.per_layer : report_.end_to_end) {
      std::printf("%-36s %18.6f %s\n", m.name.c_str(), m.value, m.unit);
    }
  }

  void PrintJson(bool correct, const std::vector<Metric>& metrics) {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(report_.attempted);
    out += ", \"failed\": " + std::to_string(report_.failed);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
      out += (i == 0 ? "\"" : ", \"") + metrics[i].name +
             "\": {\"value\": " + value + ", \"unit\": \"" + metrics[i].unit +
             "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
  }

  [[noreturn]] static void Die(const std::string& why) {
    std::fprintf(stderr, "perfbench: %s\n", why.c_str());
    std::exit(2);
  }

  static constexpr int kLoadsPerGroup = 4;
  static constexpr double kReconcileSlack = 0.05;
  static constexpr uint64_t kUpdateRequest = uint64_t{1} << 40;

  const WorkloadSpec& spec_;
  const Args& args_;
  int threads_ = 1;
  int serve_workers_ = 1;
  int cycles_ = 2;
  SpanLog spans_;
  SpanLog disabled_;
  Checker checker_;
  RunReport report_;

  // Inputs.
  std::vector<Edge> edges_;
  VertexId n_ = 0;
  GraphT own_graph_;
  std::string path_;
  pspc::QueryBatch pairs_;
  pspc::QueryBatch read_pool_;
  size_t read_cursor_ = 0;
  OraclePlan static_plan_;
  OraclePlan serve_plan_;
  std::vector<pspc::EdgeUpdateBatch> stream_;
  bool self_tested_ = false;
  bool self_test_ok_ = false;

  // Setup, build and query.
  GraphT graph_;
  std::vector<double> load_s_, build_s_, build_1t_s_, order_s_, landmark_s_,
      construct_s_, construct_1t_s_, build_layer_sum_;
  pspc::BuildStats stats_;
  IndexT index_;
  uint64_t query_reference_ = 0;
  std::vector<double> untraced_pass_s_, traced_pass_s_;
  double entries_per_query_ = 0.0;

  // Serving. The registry outlives the engine and index that record
  // into it.
  pspc::obs::MetricsRegistry registry_;
  std::unique_ptr<DynamicT> dynamic_;
  std::unique_ptr<pspc::ServingEngine> engine_;
  double serve_start_s_ = 0.0;
  std::vector<pspc::Status> statuses_;
  std::vector<int64_t> apply_spans_;
  std::vector<double> rebuild_us_, update_ms_, apply_ms_, lag_ms_;
  // Read rates of the write periods of the churn windows;
  // serve.read_qps is their median, so a rare slow period (a staleness
  // rebuild that runs past its slot) does not move it.
  // serve.read_qps_window is the rate over the whole windows instead.
  std::vector<double> read_us_, read_qps_;
  double window_queries_ = 0.0, window_s_ = 0.0;
  uint64_t reads_ = 0, reads_failed_ = 0;
  uint64_t updates_failed_ = 0, batches_applied_ = 0;
  uint64_t retired_pending_max_ = 0;
  double update_stage_ms_ = 0.0;

  double build_gap_ = 0.0, query_gap_ = 0.0, update_gap_ = 0.0;
  double overhead_ = 0.0;
  bool reconcile_ok_ = false;
};

int Usage() {
  std::fprintf(stderr,
               "usage: pspc_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>]\nworkloads:");
  for (const WorkloadSpec& w : Workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--work-dir") {
      args.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || args.seconds <= 0) return Usage();
  for (const WorkloadSpec& spec : Workloads()) {
    if (args.workload != spec.name) continue;
    if (spec.directed) return Runner<Directed>(spec, args).Run();
    return Runner<Undirected>(spec, args).Run();
  }
  return Usage();
}
