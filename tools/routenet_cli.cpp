// routenet — command-line interface to the library.
//
//   routenet make-topology --kind geant2 --out net.topo
//   routenet make-routing  --topology net.topo --k 3 --seed 2 --out net.routes
//   routenet make-traffic  --topology net.topo --routing net.routes
//                          --kind gravity --util 0.7 --out net.traffic
//   routenet simulate      --topology net.topo --routing net.routes
//                          --traffic net.traffic --out sim.csv
//   routenet dataset gen   --topology nsfnet --count 100 --out train.rnds
//   routenet train         --dataset train.rnds --eval eval.rnds
//                          --out net.model
//                          [--ckpt-state run.ckpt --ckpt-every 50
//                           --ckpt-keep 3 --resume run.ckpt]
//   routenet eval          --model net.model --dataset eval.rnds
//   routenet predict       --model net.model --topology net.topo
//                          --routing net.routes --traffic net.traffic --top 10
//   routenet whatif        --model net.model --topology net.topo
//                          --routing net.routes --traffic net.traffic
//   routenet info          --model net.model
//   routenet obs summarize m.jsonl
//
// Every flag command also accepts --metrics-out PATH (or the RN_METRICS_OUT
// env var) to stream JSONL telemetry; "-" streams to stderr. --threads N
// (or RN_THREADS) sets the worker-pool width for dataset generation and
// the training kernels; the default is one thread per hardware core.
#include "commands.h"

int main(int argc, char** argv) { return rn::cli::run(argc, argv); }
