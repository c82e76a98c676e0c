// The routenet command line: help, global flags and dispatch to the cmd_*
// handlers (see commands.h).
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "commands.h"
#include "obs/event.h"
#include "obs/snapshot.h"
#include "obs/trace.h"
#include "par/thread_pool.h"

namespace rn::cli {

namespace {

void print_usage(std::FILE* out) {
  std::fprintf(
      out,
      "routenet — RouteNet GNN network modeling toolkit\n\n"
      "commands:\n"
      "  make-topology  build a named or synthetic topology file\n"
      "  make-routing   derive a (k-)shortest-path routing file\n"
      "  make-traffic   draw a traffic matrix at a target utilization\n"
      "  simulate       run the packet-level simulator on a scenario\n"
      "  dataset        labeled RNDS1 corpus pipeline:\n"
      "                 `dataset gen --topology T --count TOTAL --out F`\n"
      "                 generates a training/eval dataset; --shard I/N\n"
      "                 writes exactly the index range shard I of N\n"
      "                 owns (CRC-indexed, atomically written; N merged\n"
      "                 shards are bitwise identical to one unsharded\n"
      "                 run); `dataset verify --inputs a,b,...` checks\n"
      "                 header coherence + every record CRC;\n"
      "                 `dataset merge --inputs a,b,... --out F` combines\n"
      "                 a complete shard set\n"
      "  train          train RouteNet on an RNDS1 dataset streamed from\n"
      "                 disk; --ckpt-state BASE + --ckpt-every N\n"
      "                 checkpoint full training state\n"
      "                 (params, Adam moments, RNG streams, cursor) with\n"
      "                 keep-last-K rotation; --resume BASE continues a\n"
      "                 killed run to a bitwise-identical final model;\n"
      "                 SIGINT/SIGTERM save state before exiting\n"
      "  eval           report MRE / Pearson r / R^2 of a model\n"
      "  predict        per-path delay/jitter for a scenario + Top-N\n"
      "  serve          RNP/1 network server: --listen tcp:HOST:PORT (or\n"
      "                 unix:PATH) is required; --model FILE and/or\n"
      "                 --models name=path,... route by model name with\n"
      "                 hot reload; --batch-max caps a batch and\n"
      "                 --queue-cap sets backpressure (a free worker\n"
      "                 ships what is queued at once; workers follow\n"
      "                 --threads); --address-file publishes the bound\n"
      "                 address, --read-timeout-s bounds idle gaps\n"
      "                 and each frame's arrival\n"
      "  query          RNP/1 client: --connect ADDR + a scenario for one\n"
      "                 remote predict (--top N; prints the request id and\n"
      "                 the server's queue-wait attribution),\n"
      "                 --requests/--clients for the closed-loop load generator\n"
      "                 reporting client p50/p99 + the server's queue-wait\n"
      "                 share, --reload for a hot reload, --shutdown to\n"
      "                 drain the server\n"
      "  whatif         rank link upgrades & failures with a trained model\n"
      "  info           describe a topology / dataset / model artifact\n"
      "  obs            telemetry tools: `obs summarize <file.jsonl>`,\n"
      "                 `obs trace <trace.json> [top_n]`,\n"
      "                 `obs diff BASELINE.json CANDIDATE.json\n"
      "                 [--threshold pct]` — bench-regression gate, exits 1\n"
      "                 on regressions past the threshold (default 10%%);\n"
      "                 `obs top ADDR [--every-s N] [--count N]` — live\n"
      "                 view of a serving process over the RNP/1 stats\n"
      "                 scrape (window p99s, exemplars, counter deltas)\n\n"
      "global flags: --metrics-out PATH (or RN_METRICS_OUT) streams JSONL\n"
      "telemetry events; run `routenet obs summarize PATH` to roll it up.\n"
      "--stats-every-s S (or RN_STATS_EVERY_S) additionally emits a\n"
      "periodic `obs.snapshot` event — counter deltas, sliding-window\n"
      "latency quantiles, tracer losses — every S seconds.\n"
      "--trace-out PATH (or RN_TRACE_OUT) records hierarchical spans as\n"
      "Chrome trace-event JSON (open in Perfetto / chrome://tracing, or\n"
      "`routenet obs trace PATH`). With --resume, both files are appended\n"
      "to instead of truncated. --trace-min-us U (or RN_TRACE_MIN_US)\n"
      "records only spans at least U microseconds long; --trace-sample\n"
      "\"prefix=N[,prefix=N]\" (or RN_TRACE_SAMPLE) keeps 1 in N spans per\n"
      "name prefix. Suppressed spans are counted in the export, so\n"
      "`obs trace` stays honest about what is missing.\n"
      "--threads N (or RN_THREADS) sets the worker-pool width (default:\n"
      "one per hardware core); generation and training are bitwise\n"
      "deterministic at any thread count.\n"
      "`routenet --help`, `routenet help` and `routenet <command> --help`\n"
      "print this text; README.md lists the flags of each command.\n");
}

// After a usage error: the usage on stderr, rc 2.
int usage_error() {
  print_usage(stderr);
  return 2;
}

// `help` as the command, or --help anywhere on the line.
bool wants_help(int argc, const char* const* argv) {
  if (argc >= 2 && std::strcmp(argv[1], "help") == 0) return true;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0) return true;
  }
  return false;
}

}  // namespace

int run(int argc, const char* const* argv) {
  if (wants_help(argc, argv)) {
    print_usage(stdout);
    return 0;
  }
  if (argc < 2) return usage_error();
  const std::string cmd = argv[1];
  bool resumed = false;
  try {
    if (cmd == "obs") {
      const std::vector<std::string> args(argv + 2, argv + argc);
      return cmd_obs(args);
    }
    // `dataset` carries a subcommand at argv[2]; its flags start after it.
    const bool is_dataset = (cmd == "dataset");
    if (is_dataset && argc < 3) {
      std::fprintf(stderr, "dataset: expected a subcommand "
                           "(gen|verify|merge)\n\n");
      return usage_error();
    }
    const std::vector<std::string> bool_flags = {"bursty", "reload",
                                                 "shutdown"};
    const Flags flags(argc, argv, is_dataset ? 3 : 2, bool_flags);
    // Telemetry sink is process-global: open it before dispatch so every
    // layer (trainer, simulator, message passing) streams to one file.
    // A resumed run appends instead of truncating, so the pre-crash
    // events (and spans) survive; `peek` leaves --resume for cmd_train to
    // consume, so a stray --resume elsewhere still fails reject_unused.
    resumed = flags.peek("resume");
    obs::EventSink::global().open_or_env(
        flags.get_string("metrics-out", ""), resumed);
    // Sampling must precede open_or_env: the spec is immutable once the
    // tracer is enabled.
    obs::Tracer::global().configure_sampling_or_env(
        flags.get_double("trace-min-us", -1.0),
        flags.get_string("trace-sample", ""));
    obs::Tracer::global().open_or_env(flags.get_string("trace-out", ""));
    obs::StatsReporter::global().start_or_env(
        flags.get_double("stats-every-s", -1.0));
    // Worker threads for dataset generation and the matmul kernels:
    // --threads N beats RN_THREADS beats hardware_concurrency.
    par::set_global_threads(flags.get_int("threads", 0));
    const int rc = [&]() -> int {
      if (is_dataset) return cmd_dataset(argv[2], flags);
      if (cmd == "make-topology") return cmd_make_topology(flags);
      if (cmd == "make-routing") return cmd_make_routing(flags);
      if (cmd == "make-traffic") return cmd_make_traffic(flags);
      if (cmd == "simulate") return cmd_simulate(flags);
      if (cmd == "train") return cmd_train(flags);
      if (cmd == "eval") return cmd_eval(flags);
      if (cmd == "predict") return cmd_predict(flags);
      if (cmd == "serve") return cmd_serve(flags);
      if (cmd == "query") return cmd_query(flags);
      if (cmd == "info") return cmd_info(flags);
      if (cmd == "whatif") return cmd_whatif(flags);
      std::fprintf(stderr, "unknown command '%s'\n\n", cmd.c_str());
      return usage_error();
    }();
    // Drain the stats reporter (its stop() emits a final obs.snapshot)
    // before the terminal registry rollup and sink close.
    obs::StatsReporter::global().stop();
    // Append the final registry rollup so `obs summarize` reports counter
    // totals and timer percentiles even without per-event reconstruction.
    obs::emit_registry_snapshot();
    obs::EventSink::global().close();
    obs::Tracer::global().export_and_close(resumed);
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    // Spans collected up to the failure are still worth keeping — a
    // watchdog abort is exactly when the trace gets read.
    try {
      obs::StatsReporter::global().stop();
      obs::Tracer::global().export_and_close(resumed);
    } catch (...) {
    }
    return 1;
  }
}

}  // namespace rn::cli
