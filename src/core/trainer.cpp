#include "core/trainer.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>

#include "ag/optim.h"
#include "ag/serialize.h"
#include "obs/event.h"
#include "obs/timer.h"
#include "obs/trace.h"
#include "par/thread_pool.h"
#include "util/rng.h"

namespace rn::core {

namespace {

// Trend watchdog: a module whose grad/param norm ratio grows past this
// multiple of its first observed ratio emits `trainer.health.drift`.
constexpr double kHealthDriftFactor = 50.0;

// Set by the SIGINT/SIGTERM handler; polled once per batch, and only when
// fit() installed the handler, so a signal turns into "finish the batch,
// checkpoint, return" instead of a torn run.
std::atomic<bool> g_stop_requested{false};

void stop_signal_handler(int) { g_stop_requested.store(true); }

// Installs the stop handler for the duration of fit() and restores the
// previous disposition on exit. The flag is cleared on both ends, so a
// signal that stopped one fit() never stops the next one in the process.
class SignalGuard {
 public:
  explicit SignalGuard(bool enable) : enabled_(enable) {
    if (!enabled_) return;
    g_stop_requested.store(false);
    prev_int_ = std::signal(SIGINT, stop_signal_handler);
    prev_term_ = std::signal(SIGTERM, stop_signal_handler);
  }
  ~SignalGuard() {
    if (!enabled_) return;
    std::signal(SIGINT, prev_int_);
    std::signal(SIGTERM, prev_term_);
    g_stop_requested.store(false);
  }
  SignalGuard(const SignalGuard&) = delete;
  SignalGuard& operator=(const SignalGuard&) = delete;

 private:
  bool enabled_;
  void (*prev_int_)(int) = nullptr;
  void (*prev_term_)(int) = nullptr;
};

std::string engine_state(Rng& rng) {
  std::ostringstream os;
  os << rng.engine();
  return os.str();
}

void restore_engine(Rng& rng, const std::string& state) {
  std::istringstream is(state);
  is >> rng.engine();
  RN_CHECK(!is.fail(), "corrupt RNG stream state in checkpoint");
}

bool tensor_finite(const ag::Tensor& t) {
  const int n = t.size();
  for (int i = 0; i < n; ++i) {
    if (!std::isfinite(t[static_cast<std::size_t>(i)])) return false;
  }
  return true;
}

double tensor_l2(const ag::Tensor& t) {
  double sq = 0.0;
  const int n = t.size();
  for (int i = 0; i < n; ++i) {
    const double v = t[static_cast<std::size_t>(i)];
    sq += v * v;
  }
  return std::sqrt(sq);
}

// "routenet.path_gru.W_z" → "routenet.path_gru"; no dot → the whole name.
std::string module_of(const std::string& name) {
  const std::size_t dot = name.rfind('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

struct ModuleNorms {
  double param_sq = 0.0;
  double grad_sq = 0.0;
};

// Per-module squared-norm rollup of parameters and gradients, the health
// event's breakdown (sqrt applied at emission).
std::map<std::string, ModuleNorms> module_norms(
    const std::vector<ag::Parameter*>& params) {
  std::map<std::string, ModuleNorms> out;
  for (const ag::Parameter* p : params) {
    ModuleNorms& m = out[module_of(p->name)];
    const double pv = tensor_l2(p->value);
    const double gv = tensor_l2(p->grad);
    m.param_sq += pv * pv;
    m.grad_sq += gv * gv;
  }
  return out;
}

// First parameter whose gradient (then value) holds a non-finite entry;
// "loss" when every tensor checks out (the loss itself diverged).
std::string find_nonfinite_tensor(const std::vector<ag::Parameter*>& params) {
  for (const ag::Parameter* p : params) {
    if (!tensor_finite(p->grad)) return p->name + ".grad";
  }
  for (const ag::Parameter* p : params) {
    if (!tensor_finite(p->value)) return p->name;
  }
  return "loss";
}

}  // namespace

Trainer::Trainer(RouteNet& model, const TrainConfig& config)
    : model_(model), cfg_(config) {
  RN_CHECK(cfg_.epochs >= 1, "need at least one epoch");
  RN_CHECK(cfg_.batch_size >= 1, "batch size must be positive");
  RN_CHECK(cfg_.learning_rate > 0.0f, "learning rate must be positive");
  RN_CHECK(cfg_.lr_decay > 0.0f && cfg_.lr_decay <= 1.0f,
           "lr decay must be in (0,1]");
  RN_CHECK(cfg_.checkpoint_every_n_batches >= 0,
           "checkpoint_every_n_batches cannot be negative");
  RN_CHECK(cfg_.checkpoint_every_n_batches == 0 || !cfg_.state_path.empty(),
           "checkpoint_every_n_batches requires state_path");
  RN_CHECK(cfg_.keep_checkpoints >= 1, "keep_checkpoints must be positive");
  RN_CHECK(cfg_.max_batches >= 0, "max_batches cannot be negative");
  RN_CHECK(cfg_.inject_nan_at_batch >= 0,
           "inject_nan_at_batch cannot be negative");
  RN_CHECK(cfg_.inject_grad_scale > 0.0f,
           "inject_grad_scale must be positive");
}

double Trainer::evaluate_delay_mre(
    const RouteNet& model, const std::vector<dataset::Sample>& samples) {
  double total = 0.0;
  std::size_t count = 0;
  const std::vector<RouteNet::Prediction> preds =
      model.predict_batch(samples);
  for (std::size_t si = 0; si < samples.size(); ++si) {
    const dataset::Sample& s = samples[si];
    const RouteNet::Prediction& pred = preds[si];
    for (int idx = 0; idx < s.num_pairs(); ++idx) {
      if (!s.valid[static_cast<std::size_t>(idx)]) continue;
      const double truth = s.delay_s[static_cast<std::size_t>(idx)];
      const double est = pred.delay_s[static_cast<std::size_t>(idx)];
      total += std::abs(est - truth) / truth;
      ++count;
    }
  }
  return count == 0 ? 0.0 : total / static_cast<double>(count);
}

double Trainer::evaluate_jitter_mre(
    const RouteNet& model, const std::vector<dataset::Sample>& samples) {
  double total = 0.0;
  std::size_t count = 0;
  const std::vector<RouteNet::Prediction> preds =
      model.predict_batch(samples);
  for (std::size_t si = 0; si < samples.size(); ++si) {
    const dataset::Sample& s = samples[si];
    const RouteNet::Prediction& pred = preds[si];
    for (int idx = 0; idx < s.num_pairs(); ++idx) {
      if (!s.valid[static_cast<std::size_t>(idx)]) continue;
      const double truth = s.jitter_s[static_cast<std::size_t>(idx)];
      if (truth <= 0.0) continue;
      const double est = pred.jitter_s[static_cast<std::size_t>(idx)];
      total += std::abs(est - truth) / truth;
      ++count;
    }
  }
  return count == 0 ? 0.0 : total / static_cast<double>(count);
}

TrainReport Trainer::fit(const std::vector<dataset::Sample>& train,
                         const std::vector<dataset::Sample>* eval) {
  dataset::VectorSampleSource source(train);
  return fit(source, eval);
}

TrainReport Trainer::fit(dataset::SampleSource& train,
                         const std::vector<dataset::Sample>* eval) {
  RN_CHECK(train.size() > 0, "empty training set");
  // The epoch-order cursor (and RNCKPT2's on-disk form) indexes samples
  // with int32; sources beyond that need a sharded multi-run recipe.
  RN_CHECK(train.size() <= static_cast<std::uint64_t>(
                               std::numeric_limits<std::int32_t>::max()),
           "training source exceeds the int32 epoch cursor");
  obs::TraceSpan fit_span("trainer.fit");
  if (cfg_.threads > 0) par::set_global_threads(cfg_.threads);
  model_.set_normalizer(
      dataset::fit_normalizer(train, cfg_.log_space_targets));

  ag::Adam optimizer(model_.params(), cfg_.learning_rate);
  Rng shuffle_rng(cfg_.shuffle_seed);
  Rng dropout_rng(cfg_.shuffle_seed ^ 0xa5a5a5a5ull);

  std::vector<int> order(static_cast<std::size_t>(train.size()));
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<int>(i);
  }

  // Telemetry: the phase timings are always measured (a few steady_clock
  // reads per batch); structured events carrying them are only built when
  // a sink is attached, and the console line for verbose mode is rendered
  // from the same Event so both outputs share one code path.
  obs::EventSink& sink = obs::EventSink::global();

  TrainReport report;
  // Best-eval tracking lives in locals so a resumed run continues the
  // original run's best-model bookkeeping.
  double best_eval = -1.0;
  int best_epoch = -1;
  int start_epoch = 0;
  std::size_t resume_offset = 0;
  bool resume_epoch_pending = false;
  double resumed_loss_sum = 0.0;
  int resumed_batches = 0;
  std::uint64_t resumed_samples = 0;
  std::uint64_t total_batches = 0;
  std::uint64_t ckpt_seq = 0;

  if (!cfg_.state_path.empty()) {
    // Continue the rotation numbering of any files already present so a
    // resumed run never overwrites the checkpoint it restarted from.
    const std::vector<ag::CheckpointFile> existing =
        ag::list_checkpoints(cfg_.state_path);
    if (!existing.empty()) ckpt_seq = existing.front().seq;
  }

  if (!cfg_.resume_from.empty()) {
    obs::TraceSpan resume_span("ckpt.resume");
    obs::Stopwatch load_watch;
    std::string loaded_path;
    int fallbacks = 0;
    const ag::TrainCheckpoint st = ag::load_train_checkpoint_auto(
        cfg_.resume_from, &loaded_path, &fallbacks);
    ag::apply_named_tensors(st.params, optimizer.params(),
                            "checkpoint " + loaded_path);
    if (st.has_optimizer) {
      // The moment tensors travel by name; realign them with this model's
      // parameter order before handing them to Adam.
      std::vector<ag::Tensor> m, v;
      m.reserve(optimizer.params().size());
      v.reserve(optimizer.params().size());
      for (const ag::Parameter* p : optimizer.params()) {
        const auto it = std::find_if(
            st.adam_m.begin(), st.adam_m.end(),
            [&](const auto& e) { return e.first == p->name; });
        RN_CHECK(it != st.adam_m.end(),
                 "checkpoint " + loaded_path +
                     " is missing optimizer state for parameter '" +
                     p->name + "'");
        const std::size_t idx =
            static_cast<std::size_t>(it - st.adam_m.begin());
        m.push_back(it->second);
        v.push_back(st.adam_v[idx].second);
      }
      optimizer.set_state(st.adam_step, std::move(m), std::move(v));
      optimizer.set_lr(st.lr);
    }
    for (const auto& [name, state] : st.rng_streams) {
      if (name == "shuffle") restore_engine(shuffle_rng, state);
      if (name == "dropout") restore_engine(dropout_rng, state);
    }
    if (st.has_cursor) {
      RN_CHECK(st.order.size() == static_cast<std::size_t>(train.size()),
               "checkpoint " + loaded_path + " was trained on " +
                   std::to_string(st.order.size()) +
                   " samples but this dataset has " +
                   std::to_string(train.size()));
      start_epoch = st.epoch;
      resume_offset = static_cast<std::size_t>(st.next_index);
      order.assign(st.order.begin(), st.order.end());
      resume_epoch_pending = true;
      best_eval = st.best_eval_mre;
      best_epoch = st.best_epoch;
      resumed_loss_sum = st.epoch_loss_sum;
      resumed_batches = st.epoch_batches;
      resumed_samples = st.epoch_samples;
      total_batches = st.total_batches;
      report.resumed_epoch = start_epoch;
    }
    const double load_s = load_watch.elapsed_s();
    if (sink.enabled() || cfg_.verbose) {
      obs::Event ev("ckpt.resume");
      ev.f("path", loaded_path)
          .f("epoch", start_epoch)
          .f("batch_offset", resume_offset)
          .f("total_batches", total_batches)
          .f("fallbacks", fallbacks)
          .f("load_s", load_s);
      sink.emit(ev);
      if (cfg_.verbose) {
        const std::string line = ev.console_line();
        std::fwrite(line.data(), 1, line.size(), stdout);
        std::fputc('\n', stdout);
        std::fflush(stdout);
      }
    }
  }

  // Snapshots the entire training state (cursor pointing at `next_index`
  // within the current epoch), rotates old files, and reports telemetry.
  const auto save_state = [&](int epoch, std::size_t next_index,
                              double loss_sum, int batches,
                              std::uint64_t samples_seen) {
    if (cfg_.state_path.empty()) return;
    obs::TraceSpan save_span("ckpt.save");
    obs::Stopwatch save_watch;
    ag::TrainCheckpoint st;
    for (const ag::Parameter* p : optimizer.params()) {
      st.params.emplace_back(p->name, p->value);
    }
    st.has_optimizer = true;
    st.adam_step = optimizer.step_count();
    st.lr = optimizer.lr();
    const std::vector<ag::Parameter*>& params = optimizer.params();
    for (std::size_t i = 0; i < params.size(); ++i) {
      st.adam_m.emplace_back(params[i]->name, optimizer.moments_m()[i]);
      st.adam_v.emplace_back(params[i]->name, optimizer.moments_v()[i]);
    }
    st.rng_streams.emplace_back("shuffle", engine_state(shuffle_rng));
    st.rng_streams.emplace_back("dropout", engine_state(dropout_rng));
    st.has_cursor = true;
    st.epoch = epoch;
    st.next_index = static_cast<std::int64_t>(next_index);
    st.total_batches = total_batches;
    st.best_eval_mre = best_eval;
    st.best_epoch = best_epoch;
    st.epoch_loss_sum = loss_sum;
    st.epoch_batches = batches;
    st.epoch_samples = samples_seen;
    st.order.assign(order.begin(), order.end());

    ++ckpt_seq;
    const std::string path =
        ag::checkpoint_file_name(cfg_.state_path, ckpt_seq);
    const std::size_t bytes = ag::save_train_checkpoint(path, st);
    for (const ag::CheckpointFile& old :
         ag::list_checkpoints(cfg_.state_path)) {
      if (old.seq + static_cast<std::uint64_t>(cfg_.keep_checkpoints) <=
          ckpt_seq) {
        std::remove(old.path.c_str());
      }
    }
    const double save_s = save_watch.elapsed_s();
    if (sink.enabled()) {
      obs::Event ev("ckpt.save");
      ev.f("path", path)
          .f("seq", ckpt_seq)
          .f("epoch", epoch)
          .f("batch_offset", next_index)
          .f("total_batches", total_batches)
          .f("bytes", bytes)
          .f("save_s", save_s);
      sink.emit(ev);
    }
  };

  SignalGuard signal_guard(cfg_.handle_signals);
  bool stop_all = false;
  bool interrupted = false;
  // Minibatch staging, reused across batches. `chunk` holds pointers the
  // source keeps valid until its next materialize() call — exactly one
  // batch long, which is what bounds a streamed corpus's resident set.
  std::vector<std::uint64_t> batch_indices;
  std::vector<const dataset::Sample*> chunk;
  // First observed grad/param norm ratio per module — the reference the
  // drift watchdog compares every later epoch against.
  std::map<std::string, double> drift_baseline;

  for (int epoch = start_epoch; epoch < cfg_.epochs && !stop_all; ++epoch) {
    obs::TraceSpan epoch_span("trainer.epoch");
    epoch_span.arg("epoch", epoch);
    obs::Stopwatch epoch_watch;
    std::size_t first_offset = 0;
    double loss_sum = 0.0;
    int batches = 0;
    std::uint64_t samples_seen = 0;
    if (resume_epoch_pending) {
      // The resumed epoch's order and partial accumulators come from the
      // checkpoint; its shuffle already happened before the save.
      first_offset = resume_offset;
      loss_sum = resumed_loss_sum;
      batches = resumed_batches;
      samples_seen = resumed_samples;
      resume_epoch_pending = false;
    } else {
      // Fisher–Yates shuffle of the sample order.
      for (std::size_t i = order.size(); i > 1; --i) {
        const auto j = static_cast<std::size_t>(
            shuffle_rng.uniform_int(0, static_cast<int>(i) - 1));
        std::swap(order[i - 1], order[j]);
      }
    }

    for (std::size_t start = first_offset; start < order.size();
         start += static_cast<std::size_t>(cfg_.batch_size)) {
      obs::TraceSpan batch_span("trainer.batch");
      batch_span.arg("batch", batches);
      const std::size_t end = std::min(
          order.size(), start + static_cast<std::size_t>(cfg_.batch_size));
      batch_indices.clear();
      batch_indices.reserve(end - start);
      for (std::size_t i = start; i < end; ++i) {
        batch_indices.push_back(static_cast<std::uint64_t>(order[i]));
      }
      train.materialize(batch_indices.data(), batch_indices.size(), chunk);
      const GraphBatch batch = GraphBatch::from_samples(
          chunk, model_.normalizer(), /*with_targets=*/true);
      if (batch.valid_paths.empty()) continue;  // nothing to learn from

      obs::Stopwatch phase;
      ag::Tape tape;
      obs::TraceSpan forward_span("trainer.forward");
      const RouteNet::Output out =
          model_.forward(tape, batch, &dropout_rng);
      const ag::ValueId delay_sel =
          tape.gather_rows(out.delay, batch.valid_paths);
      ag::ValueId loss = tape.mse(delay_sel, batch.delay_targets);
      if (cfg_.jitter_loss_weight > 0.0f) {
        const ag::ValueId jitter_sel =
            tape.gather_rows(out.jitter, batch.valid_paths);
        loss = tape.add(
            loss, tape.scale(tape.mse(jitter_sel, batch.jitter_targets),
                             cfg_.jitter_loss_weight));
      }
      forward_span.end();
      const double forward_s = phase.elapsed_s();

      phase.restart();
      obs::TraceSpan backward_span("trainer.backward");
      optimizer.zero_grad();
      tape.backward(loss);
      if (cfg_.inject_nan_at_batch > 0 &&
          total_batches + 1 ==
              static_cast<std::uint64_t>(cfg_.inject_nan_at_batch)) {
        optimizer.params().front()->grad[0] =
            std::numeric_limits<float>::quiet_NaN();
      }
      const double grad_norm =
          ag::clip_grad_norm(optimizer.params(), cfg_.clip_norm);
      if (cfg_.inject_grad_scale_at_epoch >= 0 &&
          epoch >= cfg_.inject_grad_scale_at_epoch &&
          cfg_.inject_grad_scale != 1.0f) {
        // After clipping, so the scale survives into the norms the drift
        // detector reads at epoch end.
        for (ag::Parameter* p : optimizer.params()) {
          const std::size_t n = static_cast<std::size_t>(p->grad.size());
          for (std::size_t i = 0; i < n; ++i) {
            p->grad[i] *= cfg_.inject_grad_scale;
          }
        }
      }
      backward_span.end();
      const double backward_s = phase.elapsed_s();

      const double batch_loss = tape.value(loss).at(0, 0);
      if (!std::isfinite(batch_loss) || !std::isfinite(grad_norm)) {
        // Watchdog: the check runs before the optimizer step, so the
        // parameters (and Adam moments) are still finite — the emergency
        // checkpoint is a valid resume point at this batch's start.
        const std::string offender =
            find_nonfinite_tensor(optimizer.params());
        if (sink.enabled() || cfg_.verbose) {
          obs::Event ev("trainer.health");
          ev.f("status", "nan_detected")
              .f("epoch", epoch)
              .f("batch", batches)
              .f("total_batches", total_batches)
              .f("loss_finite", std::isfinite(batch_loss) ? 1 : 0)
              .f("grad_norm_finite", std::isfinite(grad_norm) ? 1 : 0)
              .f("tensor", offender);
          for (const auto& [module, norms] :
               module_norms(optimizer.params())) {
            ev.f("param_norm." + module, std::sqrt(norms.param_sq))
                .f("grad_norm." + module, std::sqrt(norms.grad_sq));
          }
          sink.emit(ev);
          if (cfg_.verbose) {
            const std::string line = ev.console_line();
            std::fwrite(line.data(), 1, line.size(), stdout);
            std::fputc('\n', stdout);
            std::fflush(stdout);
          }
        }
        save_state(epoch, start, loss_sum, batches, samples_seen);
        throw std::runtime_error(
            "training-health watchdog: non-finite " +
            std::string(std::isfinite(batch_loss) ? "gradient norm"
                                                  : "loss") +
            " at epoch " + std::to_string(epoch) + ", batch " +
            std::to_string(batches) + " — offending tensor '" + offender +
            "'" +
            (cfg_.state_path.empty()
                 ? " (no state_path: nothing checkpointed)"
                 : "; emergency checkpoint saved under " + cfg_.state_path));
      }

      phase.restart();
      obs::TraceSpan step_span("trainer.step");
      optimizer.step();
      step_span.end();
      const double step_s = phase.elapsed_s();

      loss_sum += batch_loss;
      ++batches;
      samples_seen += end - start;
      ++total_batches;
      if (sink.enabled()) {
        obs::Event ev("trainer.batch");
        ev.f("epoch", epoch)
            .f("batch", batches - 1)
            .f("samples", end - start)
            .f("loss", batch_loss)
            .f("grad_norm", grad_norm)
            .f("grad_norm_clipped",
               std::min(grad_norm, static_cast<double>(cfg_.clip_norm)))
            .f("lr", static_cast<double>(optimizer.lr()))
            .f("forward_s", forward_s)
            .f("backward_s", backward_s)
            .f("step_s", step_s);
        sink.emit(ev);
      }

      if (cfg_.max_batches > 0 &&
          total_batches >= static_cast<std::uint64_t>(cfg_.max_batches)) {
        // Crash-simulation hook: stop cold, deliberately NOT saving, so
        // tests resume from whatever checkpoint a real kill would leave.
        interrupted = true;
        stop_all = true;
        break;
      }
      if (cfg_.checkpoint_every_n_batches > 0 &&
          total_batches %
                  static_cast<std::uint64_t>(
                      cfg_.checkpoint_every_n_batches) ==
              0) {
        save_state(epoch, end, loss_sum, batches, samples_seen);
      }
      if (cfg_.handle_signals && g_stop_requested.load()) {
        save_state(epoch, end, loss_sum, batches, samples_seen);
        interrupted = true;
        stop_all = true;
        break;
      }
    }
    if (stop_all) break;

    EpochLog log;
    log.epoch = epoch;
    log.train_loss = batches > 0 ? loss_sum / batches : 0.0;
    log.eval_delay_mre = -1.0;
    if (eval != nullptr && !eval->empty()) {
      obs::TraceSpan eval_span("trainer.eval");
      log.eval_delay_mre = evaluate_delay_mre(model_, *eval);
      eval_span.end();
      if (best_epoch < 0 || log.eval_delay_mre < best_eval) {
        best_eval = log.eval_delay_mre;
        best_epoch = epoch;
        if (!cfg_.checkpoint_path.empty()) {
          model_.save(cfg_.checkpoint_path);
        }
      }
    }
    const double epoch_s = epoch_watch.elapsed_s();
    if (sink.enabled() || cfg_.verbose) {
      obs::Event ev("trainer.epoch");
      ev.f("epoch", epoch)
          .f("loss", log.train_loss)
          .f("lr", static_cast<double>(optimizer.lr()))
          .f("batches", batches)
          .f("threads", par::global_threads())
          .f("epoch_s", epoch_s)
          .f("samples_per_s",
             epoch_s > 0.0 ? static_cast<double>(samples_seen) / epoch_s
                           : 0.0);
      if (log.eval_delay_mre >= 0.0) ev.f("eval_mre", log.eval_delay_mre);
      sink.emit(ev);
      if (cfg_.verbose) {
        const std::string line = ev.console_line();
        std::fwrite(line.data(), 1, line.size(), stdout);
        std::fputc('\n', stdout);
        std::fflush(stdout);
      }
    }
    if (sink.enabled() || cfg_.verbose) {
      // Per-module norm breakdown once per epoch: cheap relative to an
      // epoch, and gives divergence trends before anything goes non-finite.
      const std::map<std::string, ModuleNorms> norms_by_module =
          module_norms(optimizer.params());
      obs::Event health("trainer.health");
      health.f("status", "ok").f("epoch", epoch).f("total_batches",
                                                   total_batches);
      for (const auto& [module, norms] : norms_by_module) {
        health.f("param_norm." + module, std::sqrt(norms.param_sq))
            .f("grad_norm." + module, std::sqrt(norms.grad_sq));
      }
      sink.emit(health);
      // Trend watchdog: a module whose grad/param ratio has grown past
      // baseline × factor is diverging even while every value is still
      // finite — warn now, while a checkpoint is still worth keeping.
      for (const auto& [module, norms] : norms_by_module) {
        const double param_norm = std::sqrt(norms.param_sq);
        const double grad_norm_m = std::sqrt(norms.grad_sq);
        if (param_norm <= 0.0 || grad_norm_m <= 0.0) continue;
        const double ratio = grad_norm_m / param_norm;
        const auto [it, inserted] = drift_baseline.emplace(module, ratio);
        if (inserted) continue;
        if (ratio > kHealthDriftFactor * it->second) {
          obs::Event drift("trainer.health.drift");
          drift.f("module", module)
              .f("epoch", epoch)
              .f("ratio", ratio)
              .f("baseline_ratio", it->second)
              .f("factor", kHealthDriftFactor);
          sink.emit(drift);
          if (cfg_.verbose) {
            const std::string line = drift.console_line();
            std::fwrite(line.data(), 1, line.size(), stdout);
            std::fputc('\n', stdout);
            std::fflush(stdout);
          }
        }
      }
    }
    report.epochs.push_back(log);
    report.final_train_loss = log.train_loss;
    optimizer.set_lr(optimizer.lr() * cfg_.lr_decay);
  }

  report.best_eval_mre = best_eval;
  report.best_epoch = best_epoch;
  report.interrupted = interrupted;
  if (!interrupted) {
    // Final state checkpoint: a finished run can be resumed later with a
    // higher epoch budget, and tests can compare optimizer state bitwise.
    save_state(cfg_.epochs, 0, 0.0, 0, 0);
  }
  if (sink.enabled()) {
    if (interrupted) {
      obs::Event ev("trainer.interrupted");
      ev.f("total_batches", total_batches)
          .f("state_saved", cfg_.state_path.empty() ? 0 : 1);
      sink.emit(ev);
    }
    obs::Event done("trainer.done");
    done.f("epochs", report.epochs.size())
        .f("final_train_loss", report.final_train_loss)
        .f("best_epoch", report.best_epoch)
        .f("best_eval_mre", report.best_eval_mre)
        .f("interrupted", interrupted ? 1 : 0);
    sink.emit(done);
  }
  return report;
}

}  // namespace rn::core
