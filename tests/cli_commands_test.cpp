// Command-level tests of the routenet CLI: each cmd_* is driven through
// its real flag interface against temp-file artifacts, covering the full
// make-topology → … → train → predict pipeline at miniature scale.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "commands.h"
#include "core/routenet.h"
#include "dataset/shard.h"
#include "dataset/stream.h"
#include "serve/net.h"
#include "serve/registry.h"
#include "routing/text_io.h"
#include "topology/text_io.h"
#include "traffic/text_io.h"
#include "util/bytes.h"

namespace rn::cli {
namespace {

class CliCommands : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "cli_cmd_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    // Start empty: an earlier run's files must not satisfy (or trip) this
    // run's assertions.
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }

  std::string path(const std::string& name) const { return dir_ + "/" + name; }

  // Builds Flags from a flat list like {"--kind", "ring", "--out", f}.
  static Flags flags_of(std::vector<std::string> args) {
    std::vector<const char*> argv = {"routenet", "cmd"};
    for (const std::string& a : args) argv.push_back(a.c_str());
    return Flags(static_cast<int>(argv.size()), argv.data(), 2, {"bursty"});
  }

  std::string dir_;
};

TEST_F(CliCommands, MakeTopologyWritesLoadableFile) {
  EXPECT_EQ(cmd_make_topology(flags_of(
                {"--kind", "ring", "--nodes", "6", "--out", path("r.topo")})),
            0);
  const topo::Topology t = topo::load_topology_file(path("r.topo"));
  EXPECT_EQ(t.num_nodes(), 6);
  EXPECT_EQ(t.num_links(), 12);
}

TEST_F(CliCommands, MakeTopologyRejectsUnknownKind) {
  EXPECT_THROW(cmd_make_topology(flags_of(
                   {"--kind", "mobius", "--out", path("x.topo")})),
               std::runtime_error);
}

TEST_F(CliCommands, MakeTopologyRejectsTypoFlag) {
  EXPECT_THROW(cmd_make_topology(flags_of({"--kind", "ring", "--node", "6",
                                           "--out", path("x.topo")})),
               std::runtime_error);
}

TEST_F(CliCommands, FullPipelineEndToEnd) {
  // topology → routing → traffic → simulate → dataset → train → eval →
  // predict → whatif, all through the public command surface.
  ASSERT_EQ(cmd_make_topology(flags_of(
                {"--kind", "ring", "--nodes", "6", "--out", path("n.topo")})),
            0);
  ASSERT_EQ(cmd_make_routing(flags_of({"--topology", path("n.topo"), "--k",
                                       "2", "--seed", "3", "--out",
                                       path("n.routes")})),
            0);
  ASSERT_EQ(cmd_make_traffic(flags_of(
                {"--topology", path("n.topo"), "--routing", path("n.routes"),
                 "--kind", "gravity", "--util", "0.6", "--out",
                 path("n.traffic")})),
            0);
  ASSERT_EQ(cmd_simulate(flags_of(
                {"--topology", path("n.topo"), "--routing", path("n.routes"),
                 "--traffic", path("n.traffic"), "--pkts-per-flow", "40",
                 "--out", path("sim.csv")})),
            0);
  EXPECT_TRUE(std::filesystem::exists(path("sim.csv")));

  ASSERT_EQ(cmd_dataset("gen", flags_of({"--topology", path("n.topo"),
                                         "--count", "8", "--pkts-per-flow",
                                         "40", "--seed", "5", "--out",
                                         path("train.rnds")})),
            0);
  const std::vector<dataset::Sample> ds =
      dataset::load_dataset(path("train.rnds"));
  EXPECT_EQ(ds.size(), 8u);

  ASSERT_EQ(cmd_train(flags_of(
                {"--dataset", path("train.rnds"), "--epochs", "3", "--dim",
                 "8", "--iterations", "2", "--out", path("m.model")})),
            0);
  const core::RouteNet model = core::RouteNet::load(path("m.model"));
  EXPECT_EQ(model.config().link_state_dim, 8);

  EXPECT_EQ(cmd_eval(flags_of(
                {"--model", path("m.model"), "--dataset", path("train.rnds")})),
            0);
  EXPECT_EQ(cmd_predict(flags_of(
                {"--model", path("m.model"), "--topology", path("n.topo"),
                 "--routing", path("n.routes"), "--traffic",
                 path("n.traffic"), "--top", "3", "--out", path("pred.csv")})),
            0);
  // The CSV carries every double at max_digits10, so each value parses
  // back to exactly what the model predicts for the same scenario.
  {
    auto topology = std::make_shared<const topo::Topology>(
        topo::load_topology_file(path("n.topo")));
    routing::RoutingScheme scheme =
        routing::load_routing_file(path("n.routes"), *topology);
    traffic::TrafficMatrix tm = traffic::load_traffic_csv_file(
        path("n.traffic"), topology->num_nodes());
    const core::RouteNet::Prediction want =
        model.predict(dataset::make_inference_sample(
            topology, std::move(scheme), std::move(tm)));
    std::ifstream csv(path("pred.csv"));
    std::string line;
    ASSERT_TRUE(std::getline(csv, line));  // header
    std::size_t idx = 0;
    for (; std::getline(csv, line); ++idx) {
      ASSERT_LT(idx, want.delay_s.size());
      std::istringstream row(line);
      std::string src, dst, delay, jitter;
      std::getline(row, src, ',');
      std::getline(row, dst, ',');
      std::getline(row, delay, ',');
      std::getline(row, jitter, ',');
      EXPECT_EQ(std::stod(delay), want.delay_s[idx]) << line;
      EXPECT_EQ(std::stod(jitter), want.jitter_s[idx]) << line;
    }
    EXPECT_EQ(idx, want.delay_s.size());
  }

  EXPECT_EQ(cmd_whatif(flags_of(
                {"--model", path("m.model"), "--topology", path("n.topo"),
                 "--routing", path("n.routes"), "--traffic",
                 path("n.traffic"), "--upgrades", "2", "--failures", "2"})),
            0);

  EXPECT_EQ(cmd_info(flags_of({"--model", path("m.model")})), 0);
  EXPECT_EQ(cmd_info(flags_of({"--dataset", path("train.rnds")})), 0);
  EXPECT_EQ(cmd_info(flags_of({"--topology", path("n.topo")})), 0);
}

TEST_F(CliCommands, DatasetGenBurstyFlag) {
  ASSERT_EQ(cmd_dataset("gen", flags_of({"--topology", "gbn", "--count", "2",
                                         "--pkts-per-flow", "30", "--bursty",
                                         "--out", path("b.rnds")})),
            0);
  EXPECT_EQ(dataset::load_dataset(path("b.rnds")).size(), 2u);
}

TEST_F(CliCommands, Rndata1CorpusIsRejected) {
  // RNDS1 is the one dataset format. A file in the retired RNDATA1
  // container (magic, u32 count, the same records back to back) must be
  // refused by every command that reads a corpus, naming the file and the
  // magic it lacks.
  ASSERT_EQ(cmd_make_topology(flags_of(
                {"--kind", "ring", "--nodes", "6", "--out", path("n.topo")})),
            0);
  ASSERT_EQ(cmd_dataset("gen", flags_of({"--topology", path("n.topo"),
                                         "--count", "2", "--seed", "5",
                                         "--pkts-per-flow", "30", "--out",
                                         path("train.rnds")})),
            0);
  const dataset::ShardReader shard(path("train.rnds"));
  std::string rndata1("RNDATA1\n");
  util::put_pod(rndata1, static_cast<std::uint32_t>(shard.size()));
  for (std::uint64_t i = 0; i < shard.size(); ++i) rndata1 += shard.record(i);
  const std::string legacy = path("legacy.ds");
  util::atomic_write_file(legacy, rndata1);
  core::RouteNetConfig mcfg;
  mcfg.link_state_dim = mcfg.path_state_dim = 8;
  mcfg.iterations = 2;
  mcfg.readout_hidden = 8;
  core::RouteNet(mcfg).save(path("m.model"));

  const auto expect_rejected = [&](const char* what, auto&& run) {
    try {
      run();
      ADD_FAILURE() << what << " accepted an RNDATA1 file";
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(legacy), std::string::npos) << what << ": " << msg;
      EXPECT_NE(msg.find("RNDS1 magic"), std::string::npos)
          << what << ": " << msg;
    }
  };
  expect_rejected("train --dataset", [&] {
    cmd_train(flags_of({"--dataset", legacy, "--epochs", "1", "--dim", "8",
                        "--iterations", "2", "--out", path("t.model")}));
  });
  expect_rejected("train --eval", [&] {
    cmd_train(flags_of({"--dataset", path("train.rnds"), "--eval", legacy,
                        "--epochs", "1", "--dim", "8", "--iterations", "2",
                        "--out", path("t.model")}));
  });
  expect_rejected("eval", [&] {
    cmd_eval(flags_of({"--model", path("m.model"), "--dataset", legacy}));
  });
  expect_rejected("info", [&] { cmd_info(flags_of({"--dataset", legacy})); });
}

TEST_F(CliCommands, NamedTopologiesResolve) {
  for (const char* name : {"nsfnet", "geant2", "gbn"}) {
    EXPECT_EQ(cmd_info(flags_of({"--topology", name})), 0) << name;
  }
}

TEST_F(CliCommands, QueryLoadGenToDeadAddressThrows) {
  // Every client connection is opened before the load threads start, so a
  // dead address surfaces as one exception on the caller (the CLI's
  // `error: ...` path, rc 1) rather than escaping a client thread.
  ASSERT_EQ(cmd_make_topology(flags_of(
                {"--kind", "ring", "--nodes", "5", "--out", path("n.topo")})),
            0);
  ASSERT_EQ(cmd_make_routing(flags_of({"--topology", path("n.topo"), "--k",
                                       "1", "--out", path("n.routes")})),
            0);
  ASSERT_EQ(cmd_make_traffic(flags_of(
                {"--topology", path("n.topo"), "--routing", path("n.routes"),
                 "--kind", "gravity", "--util", "0.5", "--out",
                 path("n.traffic")})),
            0);
  EXPECT_THROW(
      cmd_query(flags_of({"--connect", "unix:" + path("absent.sock"),
                          "--topology", path("n.topo"), "--routing",
                          path("n.routes"), "--traffic", path("n.traffic"),
                          "--requests", "4", "--clients", "2"})),
      std::runtime_error);
}

TEST_F(CliCommands, QueryLoadGenOverTheServerConnectionCapThrows) {
  // One client more than the server serves at once: the connection it
  // refuses must fail the run on the caller, with the server's reason,
  // before any load is sent, not count as backpressure in the summary.
  ASSERT_EQ(cmd_make_topology(flags_of(
                {"--kind", "ring", "--nodes", "5", "--out", path("n.topo")})),
            0);
  ASSERT_EQ(cmd_make_routing(flags_of({"--topology", path("n.topo"), "--k",
                                       "1", "--out", path("n.routes")})),
            0);
  ASSERT_EQ(cmd_make_traffic(flags_of(
                {"--topology", path("n.topo"), "--routing", path("n.routes"),
                 "--kind", "gravity", "--util", "0.5", "--out",
                 path("n.traffic")})),
            0);
  core::RouteNetConfig mcfg;
  mcfg.link_state_dim = 4;
  mcfg.path_state_dim = 4;
  mcfg.iterations = 1;
  mcfg.readout_hidden = 4;
  serve::ModelRegistry registry(serve::ServerConfig{});
  registry.install("default", std::make_unique<core::RouteNet>(mcfg));
  serve::NetServerConfig ncfg;
  ncfg.listen = "tcp:127.0.0.1:0";
  serve::NetServer server(registry, ncfg);
  server.start();
  const std::string clients =
      std::to_string(serve::NetServer::kMaxConnections + 1);
  try {
    cmd_query(flags_of({"--connect", server.address(), "--topology",
                        path("n.topo"), "--routing", path("n.routes"),
                        "--traffic", path("n.traffic"), "--requests", "2",
                        "--clients", clients}));
    ADD_FAILURE() << "query over the connection cap did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("connection limit reached"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(server.stats().requests, 0u);
  EXPECT_EQ(server.stats().refused_connections, 1u);
  server.stop();
}

TEST_F(CliCommands, TrainRejectsMissingDataset) {
  EXPECT_THROW(cmd_train(flags_of({"--dataset", path("nope.ds"), "--out",
                                   path("m.model")})),
               std::runtime_error);
}

TEST_F(CliCommands, InfoWithoutSelectorReturnsUsageCode) {
  EXPECT_EQ(cmd_info(flags_of({})), 2);
}

TEST_F(CliCommands, ObsTraceSummarizesValidFile) {
  {
    std::ofstream out(path("ok.trace.json"));
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
           "{\"name\":\"outer\",\"cat\":\"rn\",\"ph\":\"X\",\"pid\":1,"
           "\"tid\":1,\"ts\":0.0,\"dur\":100.0,"
           "\"args\":{\"id\":1,\"parent\":0}},"
           "{\"name\":\"inner\",\"cat\":\"rn\",\"ph\":\"X\",\"pid\":1,"
           "\"tid\":1,\"ts\":10.0,\"dur\":50.0,"
           "\"args\":{\"id\":2,\"parent\":1}}]}";
  }
  EXPECT_EQ(cmd_obs({"trace", path("ok.trace.json")}), 0);
  EXPECT_EQ(cmd_obs({"trace", path("ok.trace.json"), "5"}), 0);
  // The file is valid, so only the top_n's leftover characters can fail.
  EXPECT_EQ(cmd_obs({"trace", path("ok.trace.json"), "5x"}), 1);
  EXPECT_EQ(cmd_obs({"trace", path("ok.trace.json"), "1.5"}), 1);
}

TEST_F(CliCommands, ObsTraceErrorsAreOneLineNonzeroExits) {
  // Missing file, malformed JSON, and a non-integer top_n: each is an
  // operator mistake, reported as rc 1 — never an uncaught exception.
  EXPECT_EQ(cmd_obs({"trace", path("missing.json")}), 1);
  {
    std::ofstream out(path("garbage.json"));
    out << "this is not a trace";
  }
  EXPECT_EQ(cmd_obs({"trace", path("garbage.json")}), 1);
  EXPECT_EQ(cmd_obs({"trace", path("garbage.json"), "soon"}), 1);
}

TEST_F(CliCommands, ObsTopRejectsBadOptionsBeforeConnecting) {
  // Nothing listens on port 1; a value that parsed would reach the scrape
  // and fail it with rc 1, so rc 2 shows the option was refused first.
  const std::string addr = "tcp:127.0.0.1:1";
  EXPECT_EQ(cmd_obs({"top", addr, "--count", "2x"}), 2);
  EXPECT_EQ(cmd_obs({"top", addr, "--count", "-1"}), 2);
  EXPECT_EQ(cmd_obs({"top", addr, "--every-s", "inf"}), 2);
  EXPECT_EQ(cmd_obs({"top", addr, "--every-s", "nan"}), 2);
  EXPECT_EQ(cmd_obs({"top", addr, "--every-s", "0"}), 2);
  EXPECT_EQ(cmd_obs({"top", addr, "--every-s", "0.5s"}), 2);
  EXPECT_EQ(cmd_obs({"top", addr, "--count", "1"}), 1);
}

TEST_F(CliCommands, ObsSummarizeMissingFileReturnsError) {
  EXPECT_EQ(cmd_obs({"summarize", path("missing.jsonl")}), 1);
}

TEST_F(CliCommands, ObsBadUsageReturnsUsageCode) {
  EXPECT_EQ(cmd_obs({}), 2);
  EXPECT_EQ(cmd_obs({"frobnicate"}), 2);
  EXPECT_EQ(cmd_obs({"trace"}), 2);
  EXPECT_EQ(cmd_obs({"diff", "only_one.json"}), 2);
}

TEST_F(CliCommands, ObsDiffGatesOnDirectionAwareRegressions) {
  {
    std::ofstream out(path("base.json"));
    out << "{\"telemetry\":{\"gauges\":{\"bench.wall_s\":10.0,"
           "\"serve.throughput_rps\":100.0}}}";
  }
  {
    std::ofstream out(path("same.json"));
    out << "{\"telemetry\":{\"gauges\":{\"bench.wall_s\":10.0,"
           "\"serve.throughput_rps\":100.0}}}";
  }
  {
    std::ofstream out(path("worse.json"));
    out << "{\"telemetry\":{\"gauges\":{\"bench.wall_s\":30.0,"
           "\"serve.throughput_rps\":100.0}}}";
  }
  // Identical reports pass; a 3x wall-time regression fails the gate; a
  // loose enough threshold lets the same pair pass again.
  EXPECT_EQ(cmd_obs({"diff", path("base.json"), path("same.json")}), 0);
  EXPECT_EQ(cmd_obs({"diff", path("base.json"), path("worse.json")}), 1);
  EXPECT_EQ(cmd_obs({"diff", path("base.json"), path("worse.json"),
                     "--threshold", "500"}),
            0);
  // Improvements never fail: worse -> base is wall-time shrinking.
  EXPECT_EQ(cmd_obs({"diff", path("worse.json"), path("base.json")}), 0);
}

TEST_F(CliCommands, ObsDiffErrorAndUsageExits) {
  {
    std::ofstream out(path("ok.json"));
    out << "{\"x\":1.0}";
  }
  // Operator mistakes: missing file and bad threshold are rc 1.
  EXPECT_EQ(cmd_obs({"diff", path("missing.json"), path("ok.json")}), 1);
  EXPECT_EQ(cmd_obs({"diff", path("ok.json"), path("ok.json"), "--threshold",
                     "soon"}),
            1);
  EXPECT_EQ(cmd_obs({"diff", path("ok.json"), path("ok.json"), "--threshold",
                     "-5"}),
            1);
  // The whole value must be the number: "10%" is not 10.
  EXPECT_EQ(cmd_obs({"diff", path("ok.json"), path("ok.json"), "--threshold",
                     "10"}),
            0);
  EXPECT_EQ(cmd_obs({"diff", path("ok.json"), path("ok.json"), "--threshold",
                     "10%"}),
            1);
  EXPECT_EQ(cmd_obs({"diff", path("ok.json"), path("ok.json"), "--threshold",
                     "nan"}),
            1);
  // Unknown extra flag is a usage error.
  EXPECT_EQ(cmd_obs({"diff", path("ok.json"), path("ok.json"), "--frob"}), 2);
}

}  // namespace
}  // namespace rn::cli
