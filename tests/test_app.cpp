// End-to-end tests of the esva CLI subcommands (src/app/commands.h), run
// in-process against temp files.

#include "app/commands.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ilp/model.h"
#include "ilp/validate.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "test_util.h"
#include "util/logging.h"
#include "workload/trace.h"

namespace esva {
namespace {

class AppTest : public ::testing::Test {
 protected:
  std::string path(const std::string& name) const {
    return ::testing::TempDir() + "/esva_app_" + name;
  }

  int run(const std::string& command, std::vector<std::string> args) {
    out_.str("");
    err_.str("");
    std::vector<const char*> argv{"esva", command.c_str()};
    std::vector<std::string> storage = std::move(args);
    for (const std::string& arg : storage) argv.push_back(arg.c_str());
    return app::esva_main(static_cast<int>(argv.size()), argv.data(), out_,
                          err_);
  }

  std::string out() const { return out_.str(); }
  std::string err() const { return err_.str(); }

 private:
  std::ostringstream out_;
  std::ostringstream err_;
};

TEST_F(AppTest, HelpPrintsUsage) {
  EXPECT_EQ(run("help", {}), 0);
  EXPECT_NE(out().find("subcommands"), std::string::npos);
}

TEST_F(AppTest, UnknownSubcommandFails) {
  EXPECT_EQ(run("frobnicate", {}), 2);
  EXPECT_NE(err().find("unknown subcommand"), std::string::npos);
}

TEST_F(AppTest, MissingSubcommandFails) {
  const char* argv[] = {"esva"};
  std::ostringstream out_stream;
  std::ostringstream err_stream;
  EXPECT_EQ(app::esva_main(1, argv, out_stream, err_stream), 2);
}

TEST_F(AppTest, GenerateWritesTraces) {
  ASSERT_EQ(run("generate",
                {"--vms", "30", "--servers", "15", "--out-vms",
                 path("g_vms.csv"), "--out-servers", path("g_srv.csv")}),
            0)
      << err();
  EXPECT_EQ(load_vm_trace(path("g_vms.csv")).size(), 30u);
  EXPECT_EQ(load_server_trace(path("g_srv.csv")).size(), 15u);
  EXPECT_NE(out().find("wrote 30 VMs"), std::string::npos);
}

TEST_F(AppTest, GenerateStandardTypesOnly) {
  ASSERT_EQ(run("generate",
                {"--vms", "50", "--vm-types", "standard", "--server-types",
                 "1-3", "--out-vms", path("s_vms.csv"), "--out-servers",
                 path("s_srv.csv")}),
            0)
      << err();
  for (const VmSpec& vm : load_vm_trace(path("s_vms.csv")))
    EXPECT_EQ(vm.type_name.rfind("m1.", 0), 0u) << vm.type_name;
  for (const ServerSpec& s : load_server_trace(path("s_srv.csv")))
    EXPECT_NE(s.type_name, "server-type-4");
}

TEST_F(AppTest, GenerateRejectsBadTypeSet) {
  EXPECT_EQ(run("generate", {"--vm-types", "bogus", "--out-vms",
                             path("x.csv"), "--out-servers", path("y.csv")}),
            1);
  EXPECT_NE(err().find("unknown VM type set"), std::string::npos);
}

TEST_F(AppTest, GenerateDiurnalWorks) {
  ASSERT_EQ(run("generate",
                {"--vms", "40", "--diurnal", "--out-vms", path("d_vms.csv"),
                 "--out-servers", path("d_srv.csv")}),
            0)
      << err();
  EXPECT_EQ(load_vm_trace(path("d_vms.csv")).size(), 40u);
}

TEST_F(AppTest, FullPipelineGenerateAllocateEvaluateSimulate) {
  ASSERT_EQ(run("generate",
                {"--vms", "40", "--servers", "20", "--out-vms",
                 path("p_vms.csv"), "--out-servers", path("p_srv.csv")}),
            0);
  ASSERT_EQ(run("allocate",
                {"--vms", path("p_vms.csv"), "--servers", path("p_srv.csv"),
                 "--out-assignment", path("p_assign.csv")}),
            0)
      << err();
  EXPECT_NE(out().find("min-incremental"), std::string::npos);
  EXPECT_NE(out().find("total energy"), std::string::npos);

  ASSERT_EQ(run("evaluate",
                {"--vms", path("p_vms.csv"), "--servers", path("p_srv.csv"),
                 "--assignment", path("p_assign.csv"), "--timeout", "5"}),
            0)
      << err();
  EXPECT_NE(out().find("fixed timeout 5"), std::string::npos);

  ASSERT_EQ(run("simulate",
                {"--vms", path("p_vms.csv"), "--servers", path("p_srv.csv"),
                 "--assignment", path("p_assign.csv"), "--power-csv",
                 path("p_power.csv")}),
            0)
      << err();
  EXPECT_NE(out().find("simulated energy"), std::string::npos);
  std::ifstream power(path("p_power.csv"));
  ASSERT_TRUE(power.good());
  std::string header;
  std::getline(power, header);
  EXPECT_EQ(header, "t,total_power_w,active_servers,running_vms");
}

// The candidate scan has one path, so its former tuning flags are gone:
// each must fail as a usage error naming the flag (exit 2), not abort and
// not be silently ignored. The flag is rejected before any input is read.
TEST_F(AppTest, RemovedScanFlagsFailAsUnknownFlags) {
  const struct {
    const char* command;
    std::vector<std::string> args;
    const char* flag;
  } cases[] = {
      {"allocate", {"--threads", "4"}, "--threads"},
      {"stream", {"--shards", "4"}, "--shards"},
      {"serve", {"--threads", "2"}, "--threads"},
  };
  for (const auto& c : cases) {
    ::testing::internal::CaptureStderr();
    const int rc = run(c.command, c.args);
    const std::string stderr_text = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(rc, 2) << c.command << ' ' << c.flag;
    EXPECT_NE(stderr_text.find(std::string("unknown flag ") + c.flag),
              std::string::npos)
        << c.command << ": " << stderr_text;
  }
}

// Every scan flag that allocate, stream and serve used to declare — seven on
// the first two, three on serve — is an unknown flag now: a clean exit 2
// with "unknown flag --<name>" on stderr, never an abort or a silently
// ignored option.
struct RemovedFlag {
  const char* command;
  const char* flag;   // without the leading dashes
  const char* value;  // nullptr for the former booleans
};

class RemovedScanFlagTest : public AppTest,
                            public ::testing::WithParamInterface<RemovedFlag> {
};

TEST_P(RemovedScanFlagTest, FailsAsUnknownFlag) {
  const RemovedFlag& c = GetParam();
  std::vector<std::string> args{std::string("--") + c.flag};
  if (c.value != nullptr) args.emplace_back(c.value);
  ::testing::internal::CaptureStderr();
  const int rc = run(c.command, args);
  const std::string stderr_text = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(rc, 2);
  EXPECT_NE(stderr_text.find(std::string("unknown flag --") + c.flag + "\n"),
            std::string::npos)
      << stderr_text;
}

INSTANTIATE_TEST_SUITE_P(
    AppTest, RemovedScanFlagTest,
    ::testing::Values(RemovedFlag{"allocate", "threads", "4"},
                      RemovedFlag{"allocate", "cache", nullptr},
                      RemovedFlag{"allocate", "cache-warmup", "64"},
                      RemovedFlag{"allocate", "cache-min-hit-rate", "0.1"},
                      RemovedFlag{"allocate", "no-envelope", nullptr},
                      RemovedFlag{"allocate", "shards", "4"},
                      RemovedFlag{"allocate", "shard-by", "type"},
                      RemovedFlag{"stream", "threads", "4"},
                      RemovedFlag{"stream", "cache", nullptr},
                      RemovedFlag{"stream", "cache-warmup", "64"},
                      RemovedFlag{"stream", "cache-min-hit-rate", "0.1"},
                      RemovedFlag{"stream", "no-envelope", nullptr},
                      RemovedFlag{"stream", "shards", "4"},
                      RemovedFlag{"stream", "shard-by", "type"},
                      RemovedFlag{"serve", "threads", "2"},
                      RemovedFlag{"serve", "shards", "4"},
                      RemovedFlag{"serve", "shard-by", "band"}),
    [](const ::testing::TestParamInfo<RemovedFlag>& flag_case) {
      std::string name = std::string(flag_case.param.command) + "_" +
                         flag_case.param.flag;
      for (char& ch : name)
        if (ch == '-') ch = '_';
      return name;
    });

// The per-command usage text advertises none of the removed scan flags.
TEST_F(AppTest, CommandUsageListsNoRemovedScanFlag) {
  for (const char* command : {"allocate", "stream", "serve"}) {
    ::testing::internal::CaptureStdout();
    const int rc = run(command, {"--help"});
    const std::string usage_text = ::testing::internal::GetCapturedStdout();
    EXPECT_EQ(rc, 0) << command;
    EXPECT_NE(usage_text.find("--servers"), std::string::npos) << command;
    for (const char* flag : {"--threads", "--cache", "--no-envelope",
                             "--shards", "--shard-by"}) {
      EXPECT_EQ(usage_text.find(flag), std::string::npos)
          << command << " still lists " << flag;
    }
  }
}

TEST_F(AppTest, StreamReplaysTraceWithLatencyJsonIdenticalToBatch) {
  // The acceptance instance: 220 VMs on 44 servers, replayed end-to-end
  // through the streaming engine with per-request latency metrics.
  ASSERT_EQ(run("generate",
                {"--vms", "220", "--servers", "44", "--seed", "7", "--out-vms",
                 path("st_vms.csv"), "--out-servers", path("st_srv.csv")}),
            0);
  ASSERT_EQ(run("allocate",
                {"--vms", path("st_vms.csv"), "--servers", path("st_srv.csv"),
                 "--out-assignment", path("st_batch.csv")}),
            0)
      << err();
  ASSERT_EQ(run("stream",
                {"--vms", path("st_vms.csv"), "--servers", path("st_srv.csv"),
                 "--out-assignment", path("st_stream.csv"), "--latency-json",
                 path("st_latency.json"), "--stats", path("st_stats.json")}),
            0)
      << err();
  EXPECT_NE(out().find("requests/sec"), std::string::npos);
  EXPECT_NE(out().find("submit latency p99"), std::string::npos);

  // Streaming with rolling GC must reproduce the batch assignment exactly.
  std::ifstream batch(path("st_batch.csv"));
  std::ifstream stream(path("st_stream.csv"));
  std::stringstream batch_body, stream_body;
  batch_body << batch.rdbuf();
  stream_body << stream.rdbuf();
  EXPECT_EQ(batch_body.str(), stream_body.str());

  std::ifstream latency(path("st_latency.json"));
  ASSERT_TRUE(latency.good());
  std::stringstream latency_body;
  latency_body << latency.rdbuf();
  EXPECT_NE(latency_body.str().find("\"p50\""), std::string::npos);
  EXPECT_NE(latency_body.str().find("\"p99\""), std::string::npos);
  EXPECT_NE(latency_body.str().find("\"requests\": 220"), std::string::npos);

  std::ifstream stats(path("st_stats.json"));
  std::stringstream stats_body;
  stats_body << stats.rdbuf();
  EXPECT_NE(stats_body.str().find("engine.submit_ms"), std::string::npos);
  EXPECT_NE(stats_body.str().find("engine.requests"), std::string::npos);
}

TEST_F(AppTest, StreamGeneratesLazilyAndRejectsAmbiguousSource) {
  ASSERT_EQ(run("generate",
                {"--vms", "10", "--servers", "16", "--out-vms",
                 path("sg_vms.csv"), "--out-servers", path("sg_srv.csv")}),
            0);
  ASSERT_EQ(run("stream", {"--generate", "50", "--servers",
                           path("sg_srv.csv"), "--allocator", "ffps"}),
            0)
      << err();
  EXPECT_NE(out().find("ffps"), std::string::npos);

  // Neither or both of --vms/--generate is an error.
  EXPECT_EQ(run("stream", {"--servers", path("sg_srv.csv")}), 1);
  EXPECT_NE(err().find("exactly one"), std::string::npos);
  EXPECT_EQ(run("stream", {"--vms", path("sg_vms.csv"), "--generate", "5",
                           "--servers", path("sg_srv.csv")}),
            1);
}

TEST_F(AppTest, StreamAppliesFaultPlanWithRetries) {
  ASSERT_EQ(run("generate",
                {"--vms", "80", "--servers", "6", "--seed", "7", "--out-vms",
                 path("sf_vms.csv"), "--out-servers", path("sf_srv.csv")}),
            0);
  {
    std::ofstream plan(path("sf_faults.csv"));
    plan << "time,event,server\n20,fail,0\n40,recover,0\n30,drain,1\n";
  }
  ASSERT_EQ(run("stream",
                {"--vms", path("sf_vms.csv"), "--servers", path("sf_srv.csv"),
                 "--faults", path("sf_faults.csv"), "--retry-max", "3",
                 "--retry-delay", "4", "--latency-json",
                 path("sf_latency.json"), "--stats", path("sf_stats.json")}),
            0)
      << err();
  EXPECT_NE(out().find("fault events"), std::string::npos);
  EXPECT_NE(out().find("downtime (units)"), std::string::npos);

  std::ifstream latency(path("sf_latency.json"));
  std::stringstream latency_body;
  latency_body << latency.rdbuf();
  EXPECT_NE(latency_body.str().find("\"fault_events\": 3"), std::string::npos);
  EXPECT_NE(latency_body.str().find("\"downtime_units\""), std::string::npos);

  std::ifstream stats(path("sf_stats.json"));
  std::stringstream stats_body;
  stats_body << stats.rdbuf();
  EXPECT_NE(stats_body.str().find("engine.rejected_final"), std::string::npos);

  // A plan referencing a server outside the fleet is rejected up front.
  {
    std::ofstream plan(path("sf_bad.csv"));
    plan << "time,event,server\n20,fail,99\n";
  }
  EXPECT_EQ(run("stream",
                {"--vms", path("sf_vms.csv"), "--servers", path("sf_srv.csv"),
                 "--faults", path("sf_bad.csv")}),
            1);
  EXPECT_NE(err().find("outside the fleet"), std::string::npos);
}

TEST_F(AppTest, StreamRejectsBatchOnlyAllocators) {
  ASSERT_EQ(run("generate",
                {"--vms", "10", "--servers", "8", "--out-vms",
                 path("sb_vms.csv"), "--out-servers", path("sb_srv.csv")}),
            0);
  EXPECT_EQ(run("stream",
                {"--vms", path("sb_vms.csv"), "--servers", path("sb_srv.csv"),
                 "--allocator", "lookahead-8"}),
            1);
  EXPECT_NE(err().find("batch-only"), std::string::npos);
}

TEST_F(AppTest, AllocateAcceptsExtensionAllocators) {
  ASSERT_EQ(run("generate",
                {"--vms", "25", "--servers", "12", "--out-vms",
                 path("l_vms.csv"), "--out-servers", path("l_srv.csv")}),
            0);
  ASSERT_EQ(run("allocate",
                {"--vms", path("l_vms.csv"), "--servers", path("l_srv.csv"),
                 "--allocator", "lookahead-8"}),
            0)
      << err();
  EXPECT_NE(out().find("lookahead-8"), std::string::npos);
}

TEST_F(AppTest, AllocateFailsOnUnknownAllocator) {
  ASSERT_EQ(run("generate",
                {"--vms", "10", "--servers", "5", "--out-vms",
                 path("u_vms.csv"), "--out-servers", path("u_srv.csv")}),
            0);
  EXPECT_EQ(run("allocate",
                {"--vms", path("u_vms.csv"), "--servers", path("u_srv.csv"),
                 "--allocator", "does-not-exist"}),
            1);
  EXPECT_NE(err().find("unknown allocator"), std::string::npos);
}

TEST_F(AppTest, EvaluateRejectsInfeasibleAssignment) {
  // Build a trivially infeasible assignment by hand: both big VMs on one
  // tiny server.
  using testing::server;
  using testing::vm;
  const std::vector<VmSpec> vms{vm(0, 1, 10, 6.0, 6.0), vm(1, 3, 12, 6.0, 6.0)};
  const std::vector<ServerSpec> servers{server(0, 10, 10, 100, 200),
                                        server(1, 10, 10, 100, 200)};
  save_vm_trace(path("i_vms.csv"), vms);
  save_server_trace(path("i_srv.csv"), servers);
  Allocation bad;
  bad.assignment = {0, 0};
  save_assignment(path("i_assign.csv"), bad);

  EXPECT_EQ(run("evaluate",
                {"--vms", path("i_vms.csv"), "--servers", path("i_srv.csv"),
                 "--assignment", path("i_assign.csv")}),
            1);
  EXPECT_NE(err().find("infeasible"), std::string::npos);
}

TEST_F(AppTest, ExportLpAndImportSolutionRoundTrip) {
  ASSERT_EQ(run("generate",
                {"--vms", "6", "--servers", "3", "--interarrival", "3",
                 "--duration", "8", "--out-vms", path("e_vms.csv"),
                 "--out-servers", path("e_srv.csv")}),
            0);
  ASSERT_EQ(run("export-lp",
                {"--vms", path("e_vms.csv"), "--servers", path("e_srv.csv"),
                 "--out", path("e.lp")}),
            0)
      << err();
  std::ifstream lp(path("e.lp"));
  ASSERT_TRUE(lp.good());

  // Produce a "solver solution" with our own machinery: allocate, derive
  // states, dump name/value pairs, then import it.
  ASSERT_EQ(run("allocate",
                {"--vms", path("e_vms.csv"), "--servers", path("e_srv.csv"),
                 "--out-assignment", path("e_assign.csv")}),
            0);
  const auto vms = load_vm_trace(path("e_vms.csv"));
  const auto servers = load_server_trace(path("e_srv.csv"));
  const ProblemInstance problem = make_problem(vms, servers);
  const Allocation alloc =
      load_assignment(path("e_assign.csv"), problem.num_vms());
  const auto active = derive_active_sets(problem, alloc);
  const IlpModel model = build_ilp(problem);
  const auto values = to_variable_assignment(model, problem, alloc, active);
  {
    std::ofstream sol(path("e.sol"));
    sol << "Objective " << model.objective_value(values) << "\n";
    for (std::size_t v = 0; v < values.size(); ++v)
      if (values[v] != 0.0) sol << model.var_name(v) << ' ' << values[v] << '\n';
  }
  ASSERT_EQ(run("import-solution",
                {"--vms", path("e_vms.csv"), "--servers", path("e_srv.csv"),
                 "--solution", path("e.sol"), "--out-assignment",
                 path("e_assign2.csv")}),
            0)
      << err();
  EXPECT_NE(out().find("feasible"), std::string::npos);
  EXPECT_NE(out().find("(matches)"), std::string::npos);
  EXPECT_EQ(load_assignment(path("e_assign2.csv"), problem.num_vms()).assignment,
            alloc.assignment);
}

TEST_F(AppTest, MissingTraceFileGivesCleanError) {
  EXPECT_EQ(run("allocate", {"--vms", "/nonexistent/vms.csv"}), 1);
  EXPECT_NE(err().find("allocate:"), std::string::npos);
}

TEST_F(AppTest, AllocateWritesDecisionTraceAndStats) {
  ASSERT_EQ(run("generate",
                {"--vms", "20", "--servers", "10", "--out-vms",
                 path("t_vms.csv"), "--out-servers", path("t_srv.csv")}),
            0)
      << err();
  ASSERT_EQ(run("allocate",
                {"--vms", path("t_vms.csv"), "--servers", path("t_srv.csv"),
                 "--allocator", "min-incremental", "--out-assignment",
                 path("t_assign.csv"), "--trace", path("t_trace.jsonl"),
                 "--stats", path("t_stats.json")}),
            0)
      << err();
  EXPECT_NE(out().find("decision trace written to"), std::string::npos);
  EXPECT_NE(out().find("stats written to"), std::string::npos);

  // One decision per VM, replaying to the emitted assignment.
  const std::vector<VmDecisionTrace> decisions =
      load_trace_jsonl_file(path("t_trace.jsonl"));
  ASSERT_EQ(decisions.size(), 20u);
  const std::vector<VmSpec> vms = load_vm_trace(path("t_vms.csv"));
  const std::vector<ServerId> replayed = assignment_from_trace(decisions, 20);
  std::ifstream assign_file(path("t_assign.csv"));
  std::string header;
  std::getline(assign_file, header);
  std::string row;
  std::size_t rows = 0;
  while (std::getline(assign_file, row)) {
    const std::size_t comma = row.find(',');
    ASSERT_NE(comma, std::string::npos);
    const int vm_id = std::stoi(row.substr(0, comma));
    const int server = std::stoi(row.substr(comma + 1));
    EXPECT_EQ(replayed[static_cast<std::size_t>(vm_id)], server) << row;
    ++rows;
  }
  EXPECT_EQ(rows, 20u);

  // Stats JSON must carry nonzero timer aggregates.
  std::ifstream stats_file(path("t_stats.json"));
  std::stringstream stats;
  stats << stats_file.rdbuf();
  EXPECT_NE(stats.str().find("\"timers\""), std::string::npos);
  EXPECT_NE(stats.str().find("allocator.min-incremental.allocate_ms"),
            std::string::npos);
  EXPECT_NE(stats.str().find("\"count\": 1"), std::string::npos);
}

TEST_F(AppTest, EvaluateWritesTraceAndStats) {
  ASSERT_EQ(run("generate",
                {"--vms", "12", "--servers", "8", "--out-vms",
                 path("e_vms.csv"), "--out-servers", path("e_srv.csv")}),
            0)
      << err();
  ASSERT_EQ(run("allocate",
                {"--vms", path("e_vms.csv"), "--servers", path("e_srv.csv"),
                 "--out-assignment", path("e_assign.csv")}),
            0)
      << err();
  ASSERT_EQ(run("evaluate",
                {"--vms", path("e_vms.csv"), "--servers", path("e_srv.csv"),
                 "--assignment", path("e_assign.csv"), "--trace",
                 path("e_trace.jsonl"), "--stats", path("e_stats.json")}),
            0)
      << err();
  const std::vector<VmDecisionTrace> decisions =
      load_trace_jsonl_file(path("e_trace.jsonl"));
  ASSERT_EQ(decisions.size(), 12u);
  for (const VmDecisionTrace& d : decisions)
    EXPECT_EQ(d.allocator, "assignment");
  std::ifstream stats_file(path("e_stats.json"));
  std::stringstream stats;
  stats << stats_file.rdbuf();
  EXPECT_NE(stats.str().find("cost.total"), std::string::npos);
}

TEST_F(AppTest, StreamWritesTelemetryArtifacts) {
  ASSERT_EQ(run("generate",
                {"--vms", "60", "--servers", "12", "--seed", "7", "--out-vms",
                 path("tm_vms.csv"), "--out-servers", path("tm_srv.csv")}),
            0);
  ASSERT_EQ(run("stream",
                {"--vms", path("tm_vms.csv"), "--servers", path("tm_srv.csv"),
                 "--prom-out", path("tm.prom"), "--timeseries-out",
                 path("tm_series.csv"), "--timeseries-every", "2",
                 "--ledger-out", path("tm_ledger.jsonl"), "--latency-json",
                 path("tm_latency.json")}),
            0)
      << err();
  EXPECT_NE(out().find("prometheus metrics written to"), std::string::npos);
  EXPECT_NE(out().find("time series ("), std::string::npos);
  EXPECT_NE(out().find("energy ledger ("), std::string::npos);
  EXPECT_NE(out().find("ledger conserves energy"), std::string::npos);

  // Prometheus exposition: sanitized names, typed families, histogram-backed
  // submit latency as summary quantiles.
  std::stringstream prom;
  prom << std::ifstream(path("tm.prom")).rdbuf();
  EXPECT_NE(prom.str().find("# TYPE esva_engine_submit_ms summary"),
            std::string::npos);
  EXPECT_NE(prom.str().find("esva_engine_submit_ms{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(prom.str().find("esva_engine_requests_total 60"),
            std::string::npos);

  // Time series CSV: exact header + at least one sample row.
  std::ifstream series(path("tm_series.csv"));
  std::string header;
  ASSERT_TRUE(std::getline(series, header));
  EXPECT_EQ(header, TimeSeriesSampler::csv_header());
  std::string row;
  EXPECT_TRUE(std::getline(series, row));

  // Ledger JSONL: cause-tagged entries.
  std::stringstream ledger;
  ledger << std::ifstream(path("tm_ledger.jsonl")).rdbuf();
  EXPECT_NE(ledger.str().find("\"cause\":\"run\""), std::string::npos);

  // Latency JSON carries both the exact and the histogram percentiles.
  std::stringstream latency;
  latency << std::ifstream(path("tm_latency.json")).rdbuf();
  EXPECT_NE(latency.str().find("\"p50\""), std::string::npos);
  EXPECT_NE(latency.str().find("\"p50_hist\""), std::string::npos);
  EXPECT_NE(latency.str().find("\"p99_hist\""), std::string::npos);
}

TEST_F(AppTest, AllocateStatsCarriesSubmitHistogramPercentiles) {
  ASSERT_EQ(run("generate",
                {"--vms", "30", "--servers", "10", "--out-vms",
                 path("hp_vms.csv"), "--out-servers", path("hp_srv.csv")}),
            0);
  ASSERT_EQ(run("allocate",
                {"--vms", path("hp_vms.csv"), "--servers", path("hp_srv.csv"),
                 "--stats", path("hp_stats.json")}),
            0)
      << err();
  // The batch path drives the same engine, so engine.submit_ms is
  // histogram-backed and the stats JSON carries percentiles for it.
  std::stringstream stats;
  stats << std::ifstream(path("hp_stats.json")).rdbuf();
  EXPECT_NE(stats.str().find("\"engine.submit_ms\""), std::string::npos);
  EXPECT_NE(stats.str().find("\"p50_ms\""), std::string::npos);
  EXPECT_NE(stats.str().find("\"p99_ms\""), std::string::npos);
}

TEST_F(AppTest, TopRendersDashboardWithEnergyAttribution) {
  ASSERT_EQ(run("generate",
                {"--vms", "10", "--servers", "12", "--out-vms",
                 path("tp_vms.csv"), "--out-servers", path("tp_srv.csv")}),
            0);
  ASSERT_EQ(run("top", {"--generate", "60", "--servers", path("tp_srv.csv"),
                        "--seed", "7", "--every", "2"}),
            0)
      << err();
  EXPECT_NE(out().find("trend"), std::string::npos);
  EXPECT_NE(out().find("active VMs"), std::string::npos);
  EXPECT_NE(out().find("power (W)"), std::string::npos);
  EXPECT_NE(out().find("submit latency (ms)"), std::string::npos);
  EXPECT_NE(out().find("energy cause"), std::string::npos);
  EXPECT_NE(out().find("conserved"), std::string::npos);
  EXPECT_EQ(out().find("NOT CONSERVED"), std::string::npos);

  // Exactly one of --vms / --generate, same contract as stream.
  EXPECT_EQ(run("top", {"--servers", path("tp_srv.csv")}), 1);
  EXPECT_NE(err().find("exactly one"), std::string::npos);
  EXPECT_EQ(run("top", {"--vms", path("tp_vms.csv"), "--generate", "5",
                        "--servers", path("tp_srv.csv")}),
            1);
}

TEST_F(AppTest, GlobalLogLevelFlagIsAcceptedAnywhere) {
  const LogLevel before = log_level();
  std::ostringstream out_stream;
  std::ostringstream err_stream;
  const char* argv[] = {"esva", "--log-level", "debug", "help"};
  EXPECT_EQ(app::esva_main(4, argv, out_stream, err_stream), 0);
  EXPECT_EQ(log_level(), LogLevel::Debug);

  const char* argv2[] = {"esva", "help", "--log-level=off"};
  EXPECT_EQ(app::esva_main(3, argv2, out_stream, err_stream), 0);
  EXPECT_EQ(log_level(), LogLevel::Off);
  set_log_level(before);
}

TEST_F(AppTest, BadLogLevelIsRejected) {
  std::ostringstream out_stream;
  std::ostringstream err_stream;
  const char* argv[] = {"esva", "--log-level", "loud", "help"};
  EXPECT_EQ(app::esva_main(4, argv, out_stream, err_stream), 2);
  EXPECT_NE(err_stream.str().find("--log-level"), std::string::npos);
}

}  // namespace
}  // namespace esva
