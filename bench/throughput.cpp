// Throughput bench: dataset-generation samples/s and training step time at
// 1, 2, and N worker threads, plus the matmul kernels' 2-thread/1-thread
// ratio (per-backend GFLOP/s lives in bench/matmul_kernels). Writes
// BENCH_throughput.json so the perf trajectory (and the determinism
// contract) is tracked across PRs.
//
//   ./throughput [--metrics-out PATH] [--threads N]
//
// N defaults to RN_THREADS / hardware_concurrency; RN_BENCH_SCALE sizes the
// dataset-generation and training phases as usual.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "ag/tensor.h"
#include "bench_common.h"
#include "obs/event.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "par/thread_pool.h"
#include "util/rng.h"

namespace {

using rn::ag::Tensor;

std::vector<int> thread_sweep() {
  std::vector<int> t = {1, 2, rn::par::default_threads()};
  std::sort(t.begin(), t.end());
  t.erase(std::unique(t.begin(), t.end()), t.end());
  return t;
}

Tensor random_tensor(int rows, int cols, rn::Rng& rng) {
  Tensor t(rows, cols);
  for (int i = 0; i < t.size(); ++i) {
    t[static_cast<std::size_t>(i)] =
        static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return t;
}

// Times fn until it has run for at least min_wall_s; returns seconds/call.
template <typename Fn>
double time_per_call(const Fn& fn, double min_wall_s) {
  fn();  // warm caches and the pool
  int reps = 0;
  rn::obs::Stopwatch watch;
  do {
    fn();
    ++reps;
  } while (watch.elapsed_s() < min_wall_s);
  return watch.elapsed_s() / reps;
}

struct Series {
  std::vector<int> threads;
  std::vector<double> value;  // samples/s or step seconds

  std::string to_json(const char* value_key) const {
    std::string out = "{\"threads\":[";
    for (std::size_t i = 0; i < threads.size(); ++i) {
      if (i > 0) out += ',';
      out += std::to_string(threads[i]);
    }
    out += "],\"";
    out += value_key;
    out += "\":[";
    for (std::size_t i = 0; i < value.size(); ++i) {
      if (i > 0) out += ',';
      out += rn::obs::json_number(value[i]);
    }
    out += "]}";
    return out;
  }

  // value at max threads over value at 1 thread (or its inverse for
  // durations, chosen by the caller feeding "rate" values).
  double speedup() const {
    return value.front() > 0.0 ? value.back() / value.front() : 0.0;
  }
};

}  // namespace

int main(int argc, char** argv) {
  rn::bench::init_bench_telemetry(argc, argv);
  const rn::bench::ExperimentScale scale = rn::bench::scale_from_env();
  const std::vector<int> sweep = thread_sweep();
  rn::obs::Registry& reg = rn::obs::Registry::global();

  std::printf("== throughput bench (scale: %s, sweep:", scale.name.c_str());
  for (int t : sweep) std::printf(" %d", t);
  std::printf(" threads) ==\n");

  // --- Phase 1: dataset generation -------------------------------------
  const int gen_count = std::max(4, scale.eval_nsfnet);
  Series gen_series;
  bool gen_deterministic = true;
  std::vector<std::vector<double>> first_delays;
  for (int t : sweep) {
    rn::par::set_global_threads(t);
    rn::dataset::DatasetGenerator gen(
        rn::bench::paper_generator_config(scale), 101);
    rn::obs::Stopwatch watch;
    const std::vector<rn::dataset::Sample> samples =
        gen.generate_many(rn::bench::nsfnet_topology(), gen_count);
    const double wall_s = watch.elapsed_s();
    gen_series.threads.push_back(t);
    gen_series.value.push_back(wall_s > 0.0 ? gen_count / wall_s : 0.0);
    std::printf("  gen  %2d thread(s): %6.2f samples/s (%.2fs)\n", t,
                gen_series.value.back(), wall_s);
    if (first_delays.empty()) {
      for (const rn::dataset::Sample& s : samples) {
        first_delays.push_back(s.delay_s);
      }
    } else {
      for (std::size_t i = 0; i < samples.size(); ++i) {
        if (samples[i].delay_s != first_delays[i]) gen_deterministic = false;
      }
    }
  }
  std::printf("  gen  deterministic across thread counts: %s\n",
              gen_deterministic ? "yes" : "NO — BUG");

  // --- Phase 2: matmul parallel grain ----------------------------------
  // RouteNet-batch-shaped operands: thousands of path/link rows times
  // 32/64-wide states.
  const int m = 4096, k = 64, n = 64;
  rn::Rng rng(17);
  const Tensor a = random_tensor(m, k, rng);
  const Tensor b = random_tensor(k, n, rng);
  const Tensor at = random_tensor(k, m, rng);
  const Tensor bt = random_tensor(n, k, rng);

  // Multi-thread regression: adding a second worker must never cost
  // throughput. The shape-aware matmul grain gives 2 threads 2 halves
  // instead of dozens of tile-sized slivers; this assertion is what keeps
  // that property. Each ratio is the median of interleaved 1t/2t pairs —
  // pairing cancels the frequency drift that makes two separate sweep
  // points noisy — and the 0.90 bar tolerates CPU-quota parity while still
  // catching a real grain regression (slivers cost 2-3x, not 10%).
  const auto paired_2t_ratio = [&](auto&& fn) {
    std::vector<double> ratios;
    for (int rep = 0; rep < 5; ++rep) {
      rn::par::set_global_threads(1);
      const double t1 = time_per_call(fn, 0.1);
      rn::par::set_global_threads(2);
      const double t2 = time_per_call(fn, 0.1);
      ratios.push_back(t2 > 0.0 ? t1 / t2 : 0.0);
    }
    std::sort(ratios.begin(), ratios.end());
    return ratios[ratios.size() / 2];
  };
  const double scale_nn = paired_2t_ratio([&] { rn::ag::matmul(a, b); });
  const double scale_tn = paired_2t_ratio([&] { rn::ag::matmul_tn(at, b); });
  const double scale_nt = paired_2t_ratio([&] { rn::ag::matmul_nt(a, bt); });
  std::printf("  mm   2-thread/1-thread (median of pairs): nn %.2fx / "
              "tn %.2fx / nt %.2fx\n",
              scale_nn, scale_tn, scale_nt);
  int mm_violations = 0;
  for (const double s : {scale_nn, scale_tn, scale_nt}) {
    if (s < 0.90) ++mm_violations;
  }
  if (mm_violations > 0) {
    std::printf("WARNING: %d matmul kernel(s) slower at 2 threads than 1\n",
                mm_violations);
    if (std::getenv("RN_BENCH_ENFORCE") == nullptr) mm_violations = 0;
  }

  // --- Phase 3: training step time -------------------------------------
  rn::par::set_global_threads(sweep.front());
  rn::dataset::DatasetGenerator train_gen(
      rn::bench::paper_generator_config(scale), 303);
  const std::vector<rn::dataset::Sample> train =
      train_gen.generate_many(rn::bench::nsfnet_topology(), gen_count);
  Series step_series;
  for (int t : sweep) {
    rn::core::RouteNet model(rn::bench::paper_model_config());
    rn::core::TrainConfig tcfg;
    tcfg.epochs = 2;
    tcfg.batch_size = 4;
    tcfg.threads = t;
    rn::core::Trainer trainer(model, tcfg);
    rn::obs::Stopwatch watch;
    trainer.fit(train);
    const double wall_s = watch.elapsed_s();
    const int batches =
        tcfg.epochs * ((gen_count + tcfg.batch_size - 1) / tcfg.batch_size);
    step_series.threads.push_back(t);
    step_series.value.push_back(wall_s / batches);
    std::printf("  trn  %2d thread(s): %7.2f ms/step\n", t,
                1e3 * step_series.value.back());
  }
  const double train_speedup =
      step_series.value.back() > 0.0
          ? step_series.value.front() / step_series.value.back()
          : 0.0;

  // --- Report -----------------------------------------------------------
  reg.gauge("bench.throughput.gen_speedup").set(gen_series.speedup());
  reg.gauge("bench.throughput.train_step_speedup").set(train_speedup);
  reg.gauge("bench.throughput.gen_deterministic")
      .set(gen_deterministic ? 1.0 : 0.0);
  reg.gauge("bench.throughput.two_thread_ratio_nn").set(scale_nn);
  reg.gauge("bench.throughput.two_thread_ratio_tn").set(scale_tn);
  reg.gauge("bench.throughput.two_thread_ratio_nt").set(scale_nt);

  const std::string path =
      rn::bench::cache_dir() + "/BENCH_throughput.json";
  {
    std::ofstream out(path);
    if (out.good()) {
      out << "{\"bench\":\"throughput\",\"scale\":\""
          << rn::obs::json_escape(scale.name) << "\""
          << ",\"dataset_gen\":" << gen_series.to_json("samples_per_s")
          << ",\"dataset_gen_speedup\":"
          << rn::obs::json_number(gen_series.speedup())
          << ",\"dataset_gen_deterministic\":"
          << (gen_deterministic ? "true" : "false")
          << ",\"two_thread_speedup\":{\"nn\":"
          << rn::obs::json_number(scale_nn)
          << ",\"tn\":" << rn::obs::json_number(scale_tn)
          << ",\"nt\":" << rn::obs::json_number(scale_nt) << "}"
          << ",\"train_step_s\":" << step_series.to_json("seconds")
          << ",\"train_step_speedup\":" << rn::obs::json_number(train_speedup)
          << ",\"telemetry\":" << reg.snapshot().to_json() << "}\n";
    }
  }
  std::printf("\nspeedups at %d threads: gen %.2fx, train step %.2fx\n",
              sweep.back(), gen_series.speedup(), train_speedup);
  std::printf("telemetry -> %s\n", path.c_str());
  rn::obs::emit_registry_snapshot();
  rn::obs::EventSink::global().close();
  if (mm_violations > 0) {
    std::printf("RN_BENCH_ENFORCE set: failing on 2-thread regression\n");
    return 1;
  }
  return gen_deterministic ? 0 : 1;
}
