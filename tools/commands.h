// Subcommand implementations for the routenet CLI. Each returns a process
// exit code and reads its options from Flags.
#pragma once

#include <string>
#include <vector>

#include "flags.h"

namespace rn::cli {

// The whole command line, argv[0] included; returns the process exit code.
// `routenet --help`, `routenet help` and `routenet <command> --help` print
// the usage to stdout and return 0; a usage error prints it to stderr and
// returns 2.
int run(int argc, const char* const* argv);

// Writes a topology text file: --kind nsfnet|geant2|gbn|ba|er|ring|line|star
// [--nodes N] [--seed S] [--edges M] [--prob P] --out FILE
int cmd_make_topology(const Flags& flags);

// Writes a routing file: --topology FILE [--k K] [--seed S] --out FILE
int cmd_make_routing(const Flags& flags);

// Writes a traffic CSV: --topology FILE --routing FILE
// [--kind uniform|gravity|hotspot] [--util U] [--seed S] --out FILE
int cmd_make_traffic(const Flags& flags);

// Runs the packet simulator on a scenario and writes per-path results:
// --topology FILE --routing FILE --traffic FILE [--pkts-per-flow N]
// [--bursty] [--out CSV]
int cmd_simulate(const Flags& flags);

// Labeled RNDS1 corpus pipeline (subcommand is argv[2]):
//   dataset gen    --topology FILE|nsfnet|geant2|gbn|ba50 --count TOTAL
//                  [--shard I/N] [--seed S] [--k K] [--min-util U]
//                  [--max-util U] [--pkts-per-flow P] [--bursty] --out FILE
//                  The one dataset generator. Writes exactly the global
//                  index range shard I of N owns (default 0/1: the whole
//                  corpus); N merged shards are bitwise identical to one
//                  unsharded run.
//   dataset verify --inputs a.rnds,b.rnds,...
//                  Header-coherence + full per-record CRC check.
//   dataset merge  --inputs a.rnds,b.rnds,... --out FILE
int cmd_dataset(const std::string& sub, const Flags& flags);

// Trains RouteNet: --dataset FILE [--eval FILE] [--epochs N] [--batch N]
// [--lr F] [--dim N] [--iterations N] [--seed S] --out MODEL.
// The RNDS1 --dataset streams from disk (mmap); --eval loads into RAM.
int cmd_train(const Flags& flags);

// Evaluates a model on a dataset: --model FILE --dataset FILE
int cmd_eval(const Flags& flags);

// Predicts one scenario and prints/writes per-path KPIs:
// --model FILE --topology FILE --routing FILE --traffic FILE
// [--top N] [--out CSV]
int cmd_predict(const Flags& flags);

// The RNP/1 network server: --listen tcp:HOST:PORT|unix:PATH (required).
// Models come from --model FILE (named "default") and/or --models
// name=path[,...]; [--batch-max B] [--batch-deadline-ms D] [--queue-cap Q]
// tune each model's batcher, whose workers follow the global --threads;
// [--address-file PATH] publishes the bound address (ephemeral ports);
// [--read-timeout-s T] bounds stalled connections; [--slo-ms S] enables the
// p99-adaptive batching policy ([--policy-interval-ms I]
// [--deadline-min-ms A] [--deadline-max-ms B]).
// Runs until `routenet query --shutdown`.
int cmd_serve(const Flags& flags);

// RNP/1 client: --connect ADDR [--model-name NAME]. One of:
//   --shutdown                  ask the server to drain and exit
//   --reload                    hot-reload the named model from its path
//   --topology/--routing/--traffic [--top N]   one remote predict
//   ... with --requests N --clients C [--seed S]   closed-loop load
//       generator over C connections, opened before the clock starts
int cmd_query(const Flags& flags);

// Describes an artifact: --topology FILE | --dataset FILE | --model FILE
int cmd_info(const Flags& flags);

// What-if planning on a scenario with a trained model:
// --model FILE --topology FILE --routing FILE --traffic FILE
// [--upgrades K] [--factor F] [--failures K]
int cmd_whatif(const Flags& flags);

// Telemetry utilities (positional, not flag-based):
//   obs summarize <file.jsonl>  — validate and roll up a metrics file
//   obs trace <trace.json> [top_n] — roll up an exported trace
//   obs diff <a.json> <b.json> [--threshold pct] — bench-regression gate;
//     exits 1 when a direction-aware metric worsened past the threshold
// Every metrics line must parse as a {"ts","kind","fields"} JSON record;
// the first malformed line is an error, making this a telemetry-format
// check too.
int cmd_obs(const std::vector<std::string>& args);

}  // namespace rn::cli
