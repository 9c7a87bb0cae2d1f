// servebench — one workload of the serving benchmark, measured from outside.
//
// Usage:
//   servebench --workload W --seed N --seconds S --trace 0|1
//              [--trace-file PATH] [--cache-dir DIR] [--corrupt-probe]
//
// Workloads (see servebench/METRICS.md for why each exists):
//   resnet_interactive       ResNet20 w=0.25 f32, one server worker, pool 1,
//                            open-loop exponential arrivals on a rate ladder
//   resnet_offline_b16       ResNet20 w=0.5 f32, closed-loop infer_batch(16),
//                            no server, pool 2
//   mobilenet_int8_overload  MobileNet depth 8 w=0.5 int8, two workers from
//                            an EngineFactory, bounded kShedOldest queue with
//                            deadlines, open loop at ~2x capacity, pool 1
//
// Every engine runs with the RPi 3 device profile injected into its TEE
// session. The program only calls the public API of runtime/, tee/, nn/ and
// tensor/; models/ and data/ only build the inputs.
//
// With --trace 0 the run is uninstrumented and reports the end-to-end
// metrics. With --trace 1 the run records spans from this file (request,
// server queue, engine.infer_batch with a synthetic tee.injected_stall child,
// and per-stage nn spans from a faithful replay of the engine's frozen
// blocks) into memory and writes them at exit as Chrome trace-event JSON;
// run.py derives the per-layer self times from that file.
//
// Correctness checks run before any measurement; a failed check prints
// "CHECK FAILED: <name>" on stderr and exits 3 without a result.
//
// Output: one JSON object on the last stdout line:
//   {"checks": {...}, "metrics": {name: [value, unit]}, "record": {...},
//    "attempted": N, "failed": N}

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/knowledge_transfer.h"
#include "core/two_branch.h"
#include "data/synthetic_cifar.h"
#include "models/model_zoo.h"
#include "models/trainer.h"
#include "nn/fuse.h"
#include "nn/quant.h"
#include "nn/sequential.h"
#include "runtime/deployed.h"
#include "runtime/measurements.h"
#include "runtime/server.h"
#include "tee/device_profile.h"
#include "tee/optee_api.h"
#include "tensor/execution_context.h"
#include "tensor/ops.h"
#include "tensor/rng.h"
#include "tensor/simd.h"
#include "tensor/threadpool.h"

#ifndef SERVEBENCH_BUILD_TYPE
#define SERVEBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace tbnet;
using Clock = std::chrono::steady_clock;
using runtime::InferenceResult;
using runtime::InferenceServer;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

[[noreturn]] void check_failed(const std::string& name,
                               const std::string& detail) {
  std::fprintf(stderr, "CHECK FAILED: %s: %s\n", name.c_str(), detail.c_str());
  std::exit(3);
}

/// Nearest-rank percentile of an unsorted sample (0 when empty).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const size_t idx = static_cast<size_t>(
      std::clamp(rank, 1.0, static_cast<double>(v.size()))) - 1;
  return v[idx];
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

size_t idx(int i) { return static_cast<size_t>(i); }

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", std::isfinite(v) ? v : 0.0);
  return buf;
}

/// Microseconds with nanosecond digits: span nesting is decided from these.
std::string micros(double us) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", us);
  return buf;
}

// ---------------------------------------------------------------- tracing --
// Spans live in memory and are written once at exit as Chrome trace-event
// JSON (viewable in Perfetto / chrome://tracing). Off by default; every call
// site checks enabled() first, so the untraced run pays one branch.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  /// A complete ("X") span on track `tid`; `args` is a JSON object body.
  void complete(const std::string& name, int tid, Clock::time_point start,
                Clock::time_point end, const std::string& args = "") {
    add(Event{name, 'X', tid, 0, us(start), us(end) - us(start), args});
  }

  /// An async span (its own "b"/"e" pair keyed by `id`) for overlapping
  /// intervals such as requests.
  void async(const std::string& name, uint64_t id, Clock::time_point start,
             Clock::time_point end, const std::string& args = "") {
    add(Event{name, 'b', 0, id, us(start), 0.0, args});
    add(Event{name, 'e', 0, id, us(end), 0.0, ""});
  }

  void write(const std::string& path) const {
    std::ofstream os(path);
    if (!os) throw std::runtime_error("cannot write trace file " + path);
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < events_.size(); ++i) {
      const Event& e = events_[i];
      os << "{\"name\":\"" << json_escape(e.name) << "\",\"ph\":\"" << e.ph
         << "\",\"pid\":1,\"tid\":" << e.tid << ",\"ts\":" << micros(e.ts_us);
      if (e.ph == 'X') os << ",\"dur\":" << micros(e.dur_us);
      if (e.ph != 'X') os << ",\"cat\":\"request\",\"id\":" << e.id;
      os << ",\"args\":{" << e.args << "}}"
         << (i + 1 < events_.size() ? ",\n" : "\n");
    }
    os << "]}\n";
  }

 private:
  struct Event {
    std::string name;
    char ph;
    int tid;
    uint64_t id;
    double ts_us;
    double dur_us;
    std::string args;
  };

  double us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - t0_).count();
  }

  void add(Event e) {
    std::lock_guard<std::mutex> lock(mu_);
    events_.push_back(std::move(e));
  }

  const bool enabled_;
  const Clock::time_point t0_;
  mutable std::mutex mu_;
  std::vector<Event> events_;
};

// --------------------------------------------------------------- workloads --
struct Ladder {
  double rate_imgs_per_s;
  double share;  ///< of the measured seconds
};

struct Workload {
  std::string name;
  models::ModelConfig model;
  int pool_threads = 1;  ///< TBNET_THREADS: the kernel pool's width
  bool int8 = false;
  bool server = true;
  int workers = 1;
  /// The server's max_batch, or the closed loop's batch size.
  int64_t max_batch = 16;
  int64_t queue_capacity = 0;
  runtime::AdmissionPolicy admission = runtime::AdmissionPolicy::kReject;
  std::chrono::microseconds deadline{0};
  /// Open-loop rungs in run order. The first is the reference: its requests
  /// give the headline latency and the server-layer numbers.
  std::vector<Ladder> ladder;
  /// Latency limit: p99 of requests (server workloads) or p90 of batches
  /// (offline) that counts as meeting the service level.
  double slo_ms = 0.0;
};

models::ModelConfig zoo(models::Family family, int depth, double width) {
  models::ModelConfig cfg;
  cfg.family = family;
  cfg.depth = depth;
  cfg.classes = 10;
  cfg.width_mult = width;
  cfg.seed = 17;
  return cfg;
}

Workload make_workload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "resnet_interactive") {
    w.model = zoo(models::Family::kResNet, 20, 0.25);
    w.pool_threads = 1;
    w.workers = 1;
    w.max_batch = 16;
    // Fixed absolute rates bracketing today's single-worker capacity, in
    // ascending order. The first rung is the reference operating point: it
    // gets 70% of the run (~2500 requests in 30 s) because its p99 is
    // gated, and a p99 of Poisson arrivals needs many samples to hold still.
    // The other rungs (~600-900 requests) only feed the recorded ladder.
    w.ladder = {{120.0, 0.70}, {180.0, 0.10}, {240.0, 0.10}, {300.0, 0.10}};
    w.slo_ms = 40.0;
  } else if (name == "resnet_offline_b16") {
    w.model = zoo(models::Family::kResNet, 20, 0.5);
    w.pool_threads = 2;
    w.server = false;
    w.workers = 1;
    w.max_batch = 16;
    w.slo_ms = 100.0;
  } else if (name == "mobilenet_int8_overload") {
    w.model = zoo(models::Family::kMobileNet, 8, 0.5);
    w.pool_threads = 1;
    w.int8 = true;
    w.workers = 2;
    w.max_batch = 16;
    w.queue_capacity = 64;
    w.admission = runtime::AdmissionPolicy::kShedOldest;
    // The deadline sits above the ~55 ms a request can queue before 64
    // newer arrivals shed it, plus one ~52 ms batch: while the pool keeps
    // pace, requests are shed rather than expired, and expiry (and missed
    // deadlines) start as soon as batches or queueing slow down.
    w.deadline = std::chrono::milliseconds(150);
    w.ladder = {{1200.0, 1.0}};
    w.slo_ms = 150.0;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

// ------------------------------------------------------------------ inputs --
/// What a run feeds the engines. The probe (and the int8 calibration batch)
/// are fixed; the served images come from --seed.
struct Inputs {
  std::vector<Tensor> images;  ///< serving pool (CHW)
  Tensor probe;                ///< correctness probe batch (NCHW)
  Tensor calibration;          ///< int8 calibration batch (NCHW), or empty
};

Tensor stack(const std::vector<Tensor>& images, size_t first, size_t count) {
  const Shape chw = images.at(first).shape();
  Tensor batch(Shape{static_cast<int64_t>(count), chw.dim(0), chw.dim(1),
                     chw.dim(2)});
  const int64_t stride = chw.numel();
  for (size_t i = 0; i < count; ++i) {
    std::memcpy(batch.data() + static_cast<int64_t>(i) * stride,
                images.at(first + i).data(),
                static_cast<size_t>(stride) * sizeof(float));
  }
  return batch;
}

Tensor batch_slice(const Tensor& nchw, int64_t first, int64_t count) {
  const int64_t stride = nchw.numel() / nchw.dim(0);
  Tensor out(Shape{count, nchw.dim(1), nchw.dim(2), nchw.dim(3)});
  std::memcpy(out.data(), nchw.data() + first * stride,
              static_cast<size_t>(count * stride) * sizeof(float));
  return out;
}

constexpr uint64_t kDataSeed = 77;
constexpr int64_t kTrainImages = 512;
constexpr int64_t kFixedImages = 16 + 256;  ///< calibration + probe

/// The int8 workload's model: the victim is trained, then its two-branch
/// substitution goes through knowledge transfer, as the TBNet pipeline
/// deploys it. int8 top-1 agreement is only meaningful on a trained model:
/// random weights give near-tie logits whose argmax flips under any
/// rounding. The model is fixed (never seeded by --seed); it is trained once
/// per build directory and cached, and every run loads it from the cache
/// file so a cold and a warm run serve the same bytes.
core::TwoBranchModel trained_model(const models::ModelConfig& cfg,
                                   const std::string& cache_dir) {
  std::string stem = cfg.name();
  for (char& c : stem) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '.') c = '_';
  }
  const std::string path = cache_dir + "/" + stem + "-trained.tbn";
  if (!std::ifstream(path, std::ios::binary)) {
    auto [train, test] = data::SyntheticCifar::make_split(
        cfg.classes, kTrainImages, kFixedImages, kDataSeed);
    nn::Sequential victim = models::build_victim(cfg);
    // Training is input building, not measurement: it may use up to four
    // threads, on a pool that is gone before serving starts.
    ThreadPool trainer_pool(static_cast<int>(
        std::clamp(std::thread::hardware_concurrency(), 1u, 4u)));
    ThreadPool::set_global_for_testing(&trainer_pool);
    struct Restore {
      ~Restore() { ThreadPool::set_global_for_testing(nullptr); }
    } restore;
    models::TrainConfig tc;
    tc.epochs = 3;
    tc.batch_size = 32;
    tc.augment = false;
    models::train_classifier(victim, train, test, tc);
    core::TwoBranchModel model = models::build_two_branch(victim, cfg);
    core::TransferConfig kt;
    kt.epochs = 3;
    kt.batch_size = 32;
    kt.augment = false;
    core::knowledge_transfer(model, models::prune_points(cfg), train, test, kt);
    const std::string tmp = path + ".tmp";
    {
      std::ofstream os(tmp, std::ios::binary);
      core::save_two_branch(os, model);
      if (!os) throw std::runtime_error("cannot write " + tmp);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
      throw std::runtime_error("cannot rename " + tmp);
    }
  }
  std::ifstream is(path, std::ios::binary);
  return core::load_two_branch(is);
}

// ------------------------------------------------------------------ engines --
/// One deployed engine with its own secure world and TEE context, as one
/// dispatch worker owns it.
struct Engine {
  std::unique_ptr<tee::SecureWorld> world;
  std::unique_ptr<tee::TeeContext> ctx;
  std::unique_ptr<runtime::DeployedTBNet> tbnet;
};

Engine deploy(const core::TwoBranchModel& model, const Tensor& calibration,
              int64_t max_batch, const tee::DeviceProfile& profile,
              const std::string& uuid) {
  Engine e;
  e.world = std::make_unique<tee::SecureWorld>(profile.secure_mem_budget);
  e.ctx = std::make_unique<tee::TeeContext>(*e.world);
  runtime::DeployedTBNet::Options opt;
  opt.max_batch = max_batch;
  opt.calibration = calibration;
  e.tbnet = std::make_unique<runtime::DeployedTBNet>(model, *e.ctx, uuid, opt);
  e.tbnet->session().simulate_timing(profile);
  return e;
}

/// Deploys `count` engines and runs one warm batch of `warm` through each:
/// the workload's set-up, as a user pays it before serving the first
/// request. Returns the engines and the seconds it took.
std::pair<std::vector<Engine>, double> set_up(
    const core::TwoBranchModel& model, const Tensor& calibration,
    int64_t max_batch, const tee::DeviceProfile& profile, int count,
    const Tensor& warm, int attempt) {
  const auto t0 = Clock::now();
  std::vector<Engine> engines;
  for (int i = 0; i < count; ++i) {
    engines.push_back(deploy(model, calibration, max_batch, profile,
                             "servebench-" + std::to_string(attempt) + "-" +
                                 std::to_string(i)));
    engines.back().tbnet->infer_batch(warm);
  }
  return {std::move(engines), ms_between(t0, Clock::now()) / 1e3};
}

// ------------------------------------------------------------------- replay --
/// The engine's frozen blocks, rebuilt exactly as DeployedTBNet freezes them:
/// Layer::clone, BN folded when fast kernels are on, int8-quantized over the
/// same calibration batch and REE/TEE/gather+add dataflow, then
/// prepare_inference. Each branch runs on its own world-tagged context on
/// the workload's kernel pool.
class Replay {
 public:
  Replay(const core::TwoBranchModel& model, const Tensor& calibration)
      : model_(model),
        ree_ctx_(tee::World::kNormal),
        tee_ctx_(tee::World::kSecure) {
    for (int i = 0; i < model.num_stages(); ++i) {
      const core::FusionStage& s = model.stage(i);
      secure_.push_back(freeze(*s.secure));
      exposed_.push_back(s.fused ? freeze(*s.exposed) : nullptr);
    }
    if (calibration.numel() > 0) {
      // DeployedTBNet calibrates both branches on its REE context.
      Tensor ree = calibration;
      Tensor tee = calibration;
      for (int i = 0; i < model.num_stages(); ++i) {
        const core::FusionStage& s = model.stage(i);
        Tensor t_out = nn::quantize_for_inference(*secure_[idx(i)], ree_ctx_,
                                                  tee);
        if (s.fused) {
          ree = nn::quantize_for_inference(*exposed_[idx(i)], ree_ctx_, ree);
          Tensor aligned = core::gather_channels(ree, s.channel_map);
          add(ree_ctx_, t_out, aligned, t_out);
        }
        tee = std::move(t_out);
      }
    }
    for (int i = 0; i < model.num_stages(); ++i) {
      secure_[idx(i)]->prepare_inference(tee_ctx_);
      if (exposed_[idx(i)]) exposed_[idx(i)]->prepare_inference(ree_ctx_);
    }
  }

  struct StageTimes {
    std::vector<double> ree_ms;
    std::vector<double> tee_ms;
  };

  /// Runs the two-branch dataflow on `batch`; returns the fused logits and
  /// the per-stage REE (exposed block) and TEE (secure block + gather+add)
  /// compute times.
  Tensor run(const Tensor& batch, StageTimes* times) {
    const int n = model_.num_stages();
    if (times) {
      times->ree_ms.assign(static_cast<size_t>(n), 0.0);
      times->tee_ms.assign(static_cast<size_t>(n), 0.0);
    }
    Tensor ree = batch;
    Tensor tee = batch;
    for (int i = 0; i < n; ++i) {
      const core::FusionStage& s = model_.stage(i);
      if (s.fused) {
        const auto r0 = Clock::now();
        ree = exposed_[idx(i)]->forward(ree_ctx_, ree, false);
        if (times) times->ree_ms[idx(i)] = ms_between(r0, Clock::now());
      }
      const auto t0 = Clock::now();
      Tensor out = secure_[idx(i)]->forward(tee_ctx_, tee, false);
      if (s.fused) {
        Tensor aligned = core::gather_channels(ree, s.channel_map);
        add(tee_ctx_, out, aligned, out);
      }
      tee = std::move(out);
      if (times) times->tee_ms[idx(i)] = ms_between(t0, Clock::now());
    }
    return tee;
  }

  int64_t ree_arena_bytes() const { return ree_ctx_.arena().capacity_bytes(); }

 private:
  static std::unique_ptr<nn::Layer> freeze(const nn::Layer& block) {
    std::unique_ptr<nn::Layer> copy = block.clone();
    if (simd::fast_kernels_enabled()) {
      if (auto* seq = dynamic_cast<nn::Sequential*>(copy.get())) {
        nn::fold_batchnorm_inference(*seq);
      }
    }
    return copy;
  }

  const core::TwoBranchModel& model_;
  ExecutionContext ree_ctx_;
  ExecutionContext tee_ctx_;
  std::vector<std::unique_ptr<nn::Layer>> secure_;
  std::vector<std::unique_ptr<nn::Layer>> exposed_;
};

/// Replays `batch` through the frozen blocks and records an nn.replay span
/// with its per-stage REE and TEE spans laid end to end inside it, in the
/// order the replay ran them.
void trace_replay(Replay& replay, const Tensor& batch, Tracer& tracer,
                  const runtime::TwoBranchFootprint& fp, int tid) {
  const int64_t n = batch.dim(0);
  Replay::StageTimes times;
  const auto t0 = Clock::now();
  replay.run(batch, &times);
  const auto t1 = Clock::now();
  tracer.complete("nn.replay", tid, t0, t1, "\"n\":" + std::to_string(n));
  auto at = t0;
  for (size_t s = 0; s < times.ree_ms.size(); ++s) {
    for (int side = 0; side < 2; ++side) {
      const double ms = side == 0 ? times.ree_ms[s] : times.tee_ms[s];
      const auto e = at + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double, std::milli>(ms));
      char name[32];
      std::snprintf(name, sizeof(name), "nn.stage%02zu.%s", s,
                    side == 0 ? "ree" : "tee");
      const int64_t macs =
          side == 0 ? fp.stages[s].exposed_macs : fp.stages[s].secure_macs;
      tracer.complete(name, tid, at, e,
                      "\"n\":" + std::to_string(n) + ",\"macs\":" +
                          std::to_string(macs * n));
      at = e;
    }
  }
}

// ------------------------------------------------------------------ checks --
/// Largest |a - b| over the largest |b|: the relative error the engine's
/// documented ~1e-6 tolerance is stated in.
double rel_error(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return INFINITY;
  double diff = 0.0, scale = 0.0;
  for (int64_t i = 0; i < a.numel(); ++i) {
    if (!std::isfinite(a[i])) return INFINITY;
    diff = std::max(diff, static_cast<double>(std::fabs(a[i] - b[i])));
    scale = std::max(scale, static_cast<double>(std::fabs(b[i])));
  }
  return diff / std::max(scale, 1e-30);
}

double top1_agreement(const Tensor& a, const Tensor& b) {
  const std::vector<int64_t> la = argmax_rows(a);
  const std::vector<int64_t> lb = argmax_rows(b);
  int64_t agree = 0;
  for (size_t i = 0; i < la.size(); ++i) agree += la[i] == lb[i] ? 1 : 0;
  return static_cast<double>(agree) / static_cast<double>(la.size());
}

Tensor infer_in_chunks(runtime::DeployedTBNet& engine, const Tensor& nchw,
                       int64_t chunk) {
  std::vector<Tensor> parts;
  for (int64_t i = 0; i < nchw.dim(0); i += chunk) {
    parts.push_back(engine.infer_batch(
        batch_slice(nchw, i, std::min(chunk, nchw.dim(0) - i))));
  }
  const int64_t classes = parts.front().dim(1);
  Tensor out(Shape{nchw.dim(0), classes});
  int64_t at = 0;
  for (const Tensor& p : parts) {
    std::memcpy(out.data() + at, p.data(),
                static_cast<size_t>(p.numel()) * sizeof(float));
    at += p.numel();
  }
  return out;
}

// ---------------------------------------------------------------- open loop --
/// One answer kept for checking against the replay after the run.
struct Served {
  Tensor input;   ///< NCHW
  Tensor logits;  ///< [N, classes]
};

/// [start, end) in seconds from a measurement's start.
struct Interval {
  double start;
  double end;
};

struct Request {
  double due_s = 0.0;  ///< scheduled send time, from the rung's start
  size_t image = 0;    ///< index into the serving pool
};

/// The whole arrival schedule, built from the seed before the run starts:
/// exponential inter-arrivals at each rung's rate.
std::vector<std::vector<Request>> build_schedule(
    const std::vector<Ladder>& ladder, double seconds, Rng& rng, size_t pool) {
  std::vector<std::vector<Request>> rungs;
  for (const Ladder& l : ladder) {
    std::vector<Request> reqs;
    const double span = seconds * l.share;
    double t = 0.0;
    for (;;) {
      t += -std::log(1.0 - rng.uniform()) / l.rate_imgs_per_s;
      if (t >= span) break;
      reqs.push_back(Request{t, static_cast<size_t>(rng.uniform_int(
                                    static_cast<int64_t>(pool)))});
    }
    rungs.push_back(std::move(reqs));
  }
  return rungs;
}

struct RungResult {
  double rate = 0.0;
  double wall_s = 0.0;
  int64_t submitted = 0;
  int64_t ok = 0;
  /// Service interval (claimed by a worker -> answered) of Ok requests, in
  /// seconds from the rung's start, and of those within the latency limit.
  std::vector<Interval> ok_served;
  std::vector<Interval> slo_served;
  std::vector<Served> samples;  ///< ~16 Ok answers spread over the rung
  int64_t unresolved = 0;
  int64_t engine_errors = 0;  ///< kEngineError + kIntegrityError answers
  double drain_s = 0.0;  ///< backlog left when the rung's schedule ended
  double p99_ms = 0.0;   ///< every request; a failed one counts as infinite
  bool meets_slo = false;
  std::vector<double> latency_ms;  ///< Ok requests, from due time
  std::vector<double> lag_ms;      ///< send - due, every request
  std::vector<double> queue_ms;    ///< InferenceResult::queue_s, Ok requests
  runtime::ServingStats stats;
};

/// Engine-side counters sampled around each BatchFn call (traced runs only).
struct BatchSample {
  int worker;
  int64_t n;
  Clock::time_point start, end;
  int64_t switches;
  int64_t bytes;
  double stall_ms;
};

class BatchLog {
 public:
  void add(const BatchSample& s) {
    std::lock_guard<std::mutex> lock(mu_);
    samples_.push_back(s);
  }
  std::vector<BatchSample> take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(samples_);
  }

 private:
  std::mutex mu_;
  std::vector<BatchSample> samples_;
};

/// Traced runs replay every kReplayEvery-th batch on the worker that served
/// it, right after the engine call and outside its span: the replay then
/// runs on the same core, in the same state and at the same time as the
/// engine compute it is compared with. Every 4th keeps the extra load small.
constexpr int kReplayEvery = 4;

/// Wraps an engine in the BatchFn the server calls. With tracing on, every
/// call is a span carrying the world-switch, channel-byte and injected-stall
/// deltas as counts, and every kReplayEvery-th batch is replayed on `replay`.
InferenceServer::BatchFn batch_fn(Engine& e, int worker, Tracer& tracer,
                                  BatchLog& log, Replay& replay,
                                  const runtime::TwoBranchFootprint& fp) {
  runtime::DeployedTBNet* eng = e.tbnet.get();
  tee::TeeContext* ctx = e.ctx.get();
  if (!tracer.enabled()) {
    return [eng](const Tensor& nchw) { return eng->infer_batch(nchw); };
  }
  return [eng, ctx, worker, &log, &tracer, &replay, &fp,
          calls = 0](const Tensor& nchw) mutable {
    const int64_t sw0 = eng->world_switches();
    const int64_t by0 = ctx->channel().bytes_into_tee();
    const double st0 = eng->session().simulated_overhead_s();
    const auto t0 = Clock::now();
    Tensor out = eng->infer_batch(nchw);
    const auto t1 = Clock::now();
    log.add(BatchSample{worker, nchw.dim(0), t0, t1,
                        eng->world_switches() - sw0,
                        ctx->channel().bytes_into_tee() - by0,
                        (eng->session().simulated_overhead_s() - st0) * 1e3});
    if (calls++ % kReplayEvery == 0) {
      trace_replay(replay, nchw, tracer, fp, 200 + worker);
    }
    return out;
  };
}

constexpr auto kGeneratorSpin = std::chrono::microseconds(500);

RungResult run_rung(InferenceServer& server, const std::vector<Request>& reqs,
                    const Ladder& rung, double seconds,
                    const std::vector<Tensor>& pool, double slo_ms,
                    Tracer& tracer, uint64_t* next_id) {
  RungResult r;
  r.rate = rung.rate_imgs_per_s;
  const runtime::ServingStats before = server.stats();
  std::vector<std::future<InferenceResult>> futures;
  std::vector<Clock::time_point> due(reqs.size()), sent(reqs.size());
  futures.reserve(reqs.size());
  const auto t0 = Clock::now() + std::chrono::milliseconds(2);
  for (size_t i = 0; i < reqs.size(); ++i) {
    due[i] = t0 + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(reqs[i].due_s));
    // Sleep until shortly before the due time, then spin: a sleeping vCPU
    // can take milliseconds to wake, and that lag would count as latency.
    std::this_thread::sleep_until(due[i] - kGeneratorSpin);
    while (Clock::now() < due[i]) {
    }
    sent[i] = Clock::now();
    // Admission never blocks: every server workload uses kReject or
    // kShedOldest, so a full queue cannot stall the generator.
    futures.push_back(server.submit(pool[reqs[i].image]));
  }
  const auto last_due = Clock::now();
  server.drain();
  const auto drained = Clock::now();
  r.wall_s = ms_between(t0, drained) / 1e3;
  const auto scheduled_end =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(rung.share * seconds));
  r.drain_s = ms_between(std::max(last_due, scheduled_end), drained) / 1e3;
  const runtime::ServingStats after = server.stats();
  r.submitted = static_cast<int64_t>(futures.size());
  for (size_t i = 0; i < futures.size(); ++i) {
    const double lag = ms_between(due[i], sent[i]);
    r.lag_ms.push_back(lag);
    if (futures[i].wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready) {
      ++r.unresolved;
      continue;
    }
    const InferenceResult res = futures[i].get();
    const double latency = lag + res.total_s * 1e3;
    if (res.status == runtime::Status::kEngineError ||
        res.status == runtime::Status::kIntegrityError) {
      ++r.engine_errors;
    }
    if (res.ok()) {
      ++r.ok;
      const double sent_s = reqs[i].due_s + lag / 1e3;
      const Interval served{sent_s + res.queue_s, sent_s + res.total_s};
      r.ok_served.push_back(served);
      if (latency <= slo_ms) r.slo_served.push_back(served);
      r.latency_ms.push_back(latency);
      r.queue_ms.push_back(res.queue_s * 1e3);
      if (i % std::max<size_t>(reqs.size() / 16, 1) == 0) {
        const Tensor& img = pool[reqs[i].image];
        r.samples.push_back(
            {img.reshaped(Shape{1, img.dim(0), img.dim(1), img.dim(2)}),
             res.logits.reshaped(Shape{1, res.logits.numel()})});
      }
    }
    if (tracer.enabled()) {
      const uint64_t id = (*next_id)++;
      const auto resolved =
          sent[i] + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(res.total_s));
      const auto claimed =
          sent[i] + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(res.queue_s));
      tracer.async("request", id, due[i], resolved,
                   "\"status\":\"" +
                       std::string(runtime::status_name(res.status)) +
                       "\",\"lag_ms\":" + num(lag) + ",\"batch\":" +
                       std::to_string(res.batch_size));
      tracer.async("server.queue", id, sent[i], claimed,
                   "\"queue_ms\":" + num(res.queue_s * 1e3));
    }
  }
  // Per-rung deltas of the cumulative server counters.
  r.stats = after;
  r.stats.requests -= before.requests;
  r.stats.batches -= before.batches;
  r.stats.rejected -= before.rejected;
  r.stats.shed -= before.shed;
  r.stats.expired -= before.expired;
  r.stats.engine_errors -= before.engine_errors;
  r.stats.integrity_errors -= before.integrity_errors;
  for (size_t w = 0; w < r.stats.per_worker.size(); ++w) {
    r.stats.per_worker[w].busy_s -= before.per_worker[w].busy_s;
  }
  const int64_t identity = r.stats.requests + r.stats.rejected +
                           r.stats.shed + r.stats.expired;
  if (identity != r.submitted) {
    check_failed("accounting_identity",
                 "submitted " + std::to_string(r.submitted) +
                     " != requests + rejected + shed + expired = " +
                     std::to_string(identity));
  }
  std::vector<double> all = r.latency_ms;
  all.resize(static_cast<size_t>(r.submitted), INFINITY);
  r.p99_ms = percentile(all, 99.0);
  // No growing backlog: the queue drains within a few batches of the last
  // arrival.
  r.meets_slo = r.p99_ms <= slo_ms && r.drain_s < 0.25;
  if (r.unresolved != 0) {
    check_failed("futures_resolved",
                 std::to_string(r.unresolved) +
                     " futures unresolved after drain");
  }
  return r;
}

// ------------------------------------------------------------------- output --
struct Output {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::pair<std::string, std::string>> record;  ///< raw JSON
  std::vector<std::pair<std::string, bool>> checks;
  int64_t attempted = 0;
  int64_t failed = 0;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void rec(const std::string& key, const std::string& json) {
    record.push_back({key, json});
  }
  void rec_str(const std::string& key, const std::string& s) {
    rec(key, "\"" + json_escape(s) + "\"");
  }

  void print() const {
    std::ostringstream os;
    os << "{\"attempted\":" << attempted << ",\"failed\":" << failed
       << ",\"checks\":{";
    for (size_t i = 0; i < checks.size(); ++i) {
      os << (i ? "," : "") << "\"" << checks[i].first
         << "\":" << (checks[i].second ? "true" : "false");
    }
    os << "},\"metrics\":{";
    for (size_t i = 0; i < metrics.size(); ++i) {
      os << (i ? "," : "") << "\"" << metrics[i].first << "\":["
         << num(metrics[i].second.first) << ",\"" << metrics[i].second.second
         << "\"]";
    }
    os << "},\"record\":{";
    for (size_t i = 0; i < record.size(); ++i) {
      os << (i ? "," : "") << "\"" << record[i].first
         << "\":" << record[i].second;
    }
    os << "}}";
    std::printf("%s\n", os.str().c_str());
  }
};

// --------------------------------------------------------------- measure --
struct Measurement {
  bool server = true;
  std::vector<Ladder> ladder;
  double seconds = 0.0;
  std::vector<RungResult> rungs;  ///< server workloads, one per rung
  std::vector<double> batch_ms;   ///< offline: every batch
  std::vector<Interval> batch_span;  ///< offline: each batch, from t0
  std::vector<Served> offline_samples;  ///< offline: every 64th batch
  double offline_wall_s = 0.0;
  int64_t offline_images = 0;
  std::vector<BatchSample> batches;  ///< traced runs: every engine call

  const RungResult& ref() const { return rungs.front(); }
  /// The headline median: per request from due time, or per batch.
  double headline_p50_ms() const {
    return server ? percentile(ref().latency_ms, 50.0)
                  : percentile(batch_ms, 50.0);
  }
};

/// Serves one ladder (or the closed loop) on the built engines; engine w
/// replays on replays[w] when tracing.
Measurement measure(const Workload& w, const std::vector<Ladder>& ladder,
                    double seconds, std::vector<Engine>& engines,
                    std::vector<std::unique_ptr<Replay>>& replays,
                    const runtime::TwoBranchFootprint& fp,
                    const std::vector<Tensor>& images, Rng& rng,
                    Tracer& tracer) {
  Measurement m;
  m.server = w.server;
  m.ladder = ladder;
  m.seconds = seconds;
  BatchLog log;
  if (w.server) {
    InferenceServer::Config cfg;
    cfg.max_batch = w.max_batch;
    cfg.queue_capacity = w.queue_capacity;
    cfg.admission = w.admission;
    cfg.default_deadline = w.deadline;
    cfg.input_chw = Shape{3, 32, 32};
    cfg.min_workers = w.workers;
    cfg.max_workers = w.workers;
    // The engines are built and warm; the factory hands them out.
    InferenceServer::EngineFactory factory = [&](int worker) {
      return std::make_pair(
          batch_fn(engines.at(idx(worker)), worker, tracer, log,
                   *replays.at(idx(worker)), fp),
          InferenceServer::RecoverFn{});
    };
    const auto schedule = build_schedule(ladder, seconds, rng, images.size());
    InferenceServer server(factory, cfg);
    uint64_t next_id = 1;
    for (size_t i = 0; i < ladder.size(); ++i) {
      m.rungs.push_back(run_rung(server, schedule[i], ladder[i], seconds,
                                 images, w.slo_ms, tracer, &next_id));
    }
    server.shutdown();
  } else {
    std::vector<Tensor> batches;
    const auto b = static_cast<size_t>(w.max_batch);
    for (size_t i = 0; i + b <= images.size(); i += b) {
      batches.push_back(stack(images, i, b));
    }
    InferenceServer::BatchFn fn =
        batch_fn(engines.front(), 0, tracer, log, *replays.front(), fp);
    const auto t0 = Clock::now();
    const auto end = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
    for (size_t i = 0; Clock::now() < end; ++i) {
      const auto b0 = Clock::now();
      const Tensor logits = fn(batches[i % batches.size()]);
      const auto b1 = Clock::now();
      m.batch_ms.push_back(ms_between(b0, b1));
      m.batch_span.push_back(
          {ms_between(t0, b0) / 1e3, ms_between(t0, b1) / 1e3});
      if (i % 64 == 0) {
        m.offline_samples.push_back({batches[i % batches.size()], logits});
      }
      m.offline_images += w.max_batch;
    }
    m.offline_wall_s = ms_between(t0, Clock::now()) / 1e3;
  }
  m.batches = log.take();
  return m;
}

/// Work per second as the median over the run's whole one-second windows,
/// so a transient stall in one window cannot move it. Each item of work
/// (an image, or a batch worth `per_item` images) is spread evenly over the
/// interval it was being served in, which keeps the rate continuous instead
/// of counting whole batches. Falls back to the plain rate when the run is
/// shorter than three windows.
double windowed_rate(const std::vector<Interval>& served, double span_s,
                     double per_item) {
  const auto windows = static_cast<size_t>(span_s);
  if (windows < 3) {
    return static_cast<double>(served.size()) * per_item / span_s;
  }
  std::vector<double> work(windows, 0.0);
  for (const Interval& iv : served) {
    const double len = std::max(iv.end - iv.start, 1e-9);
    for (auto k = static_cast<size_t>(std::max(iv.start, 0.0));
         k < windows && static_cast<double>(k) < iv.end; ++k) {
      const double overlap = std::min(iv.end, static_cast<double>(k + 1)) -
                             std::max(iv.start, static_cast<double>(k));
      if (overlap > 0.0) work[k] += per_item * overlap / len;
    }
  }
  return median(work);
}

/// End-to-end metrics and the server-layer counters of one measurement.
void report(const Workload& w, const Measurement& m, Output& out) {
  if (w.server) {
    int64_t submitted = 0, ok = 0, errors = 0;
    std::vector<double> lag_all;
    for (const RungResult& r : m.rungs) {
      submitted += r.submitted;
      ok += r.ok;
      errors += r.engine_errors;
      lag_all.insert(lag_all.end(), r.lag_ms.begin(), r.lag_ms.end());
    }
    out.attempted = submitted;
    out.failed = errors;
    const RungResult& ref = m.ref();
    // The tail is p99, with at least ten samples beyond it.
    const double p99 = percentile(ref.latency_ms, 99.0);
    int64_t beyond = 0;
    for (double v : ref.latency_ms) beyond += v > p99 ? 1 : 0;
    const double span = m.ladder.front().share * m.seconds;
    out.metric("throughput_imgs_per_s", windowed_rate(ref.ok_served, span, 1.0),
               "imgs/s");
    out.rec("goodput_over_wall_imgs_per_s",
            num(static_cast<double>(ref.ok) / ref.wall_s));
    out.metric("latency_p50_ms", percentile(ref.latency_ms, 50.0), "ms");
    out.metric("latency_tail_ms", p99, "ms");
    out.metric("ok_share",
               static_cast<double>(ok) / static_cast<double>(submitted),
               "share");
    const double slo_goodput = windowed_rate(ref.slo_served, span, 1.0);
    out.metric("slo_goodput_imgs_per_s", slo_goodput, "imgs/s");
    // Highest ladder rate whose p99 meets the limit with no backlog left at
    // the rung's end, interpolated linearly in p99 towards the first rung
    // that misses it. A failed request counts as a miss (infinite latency).
    // Recorded, not gated: near capacity the p99 of ~1000 Poisson arrivals
    // on a shared host moves it by a third between identical runs.
    std::string ladder_json = "[";
    double max_rate = 0.0;
    bool passing = true;
    for (size_t i = 0; i < m.rungs.size(); ++i) {
      const RungResult& r = m.rungs[i];
      ladder_json += std::string(i ? "," : "") + "{\"rate\":" + num(r.rate) +
                     ",\"p50_ms\":" + num(percentile(r.latency_ms, 50.0)) +
                     ",\"p99_ms\":" + num(r.p99_ms) + ",\"goodput\":" +
                     num(static_cast<double>(r.ok) / r.wall_s) +
                     ",\"mean_batch\":" + num(r.stats.mean_batch_size()) +
                     ",\"samples\":" + std::to_string(r.latency_ms.size()) +
                     ",\"drain_s\":" + num(r.drain_s) + ",\"meets_slo\":" +
                     (r.meets_slo ? "true" : "false") + "}";
      if (!passing) continue;
      if (r.meets_slo) {
        max_rate = r.rate;
        continue;
      }
      passing = false;
      if (i > 0) {
        const RungResult& lo = m.rungs[i - 1];
        const double hi_p99 = std::min(r.p99_ms, 4.0 * w.slo_ms);
        const double f =
            std::clamp((w.slo_ms - lo.p99_ms) /
                           std::max(hi_p99 - lo.p99_ms, 1e-9),
                       0.0, 1.0);
        max_rate += f * (r.rate - lo.rate);
      }
    }
    ladder_json += "]";
    out.rec("ladder", ladder_json);
    if (m.rungs.size() > 1) out.rec("max_rate_at_slo_imgs_per_s", num(max_rate));
    out.rec("latency_tail_percentile", "99");
    out.rec("latency_tail_samples_beyond", std::to_string(beyond));
    out.rec("latency_samples", std::to_string(ref.latency_ms.size()));
    if (beyond < 10) {
      std::fprintf(stderr, "warning: only %lld samples beyond p99\n",
                   static_cast<long long>(beyond));
    }
    double busy = 0.0;
    for (const auto& ws : ref.stats.per_worker) busy += ws.busy_s;
    out.metric("server.queue_wait_p50_ms", percentile(ref.queue_ms, 50.0),
               "ms");
    out.metric("server.queue_wait_p99_ms", percentile(ref.queue_ms, 99.0),
               "ms");
    out.metric("server.mean_batch_size", ref.stats.mean_batch_size(), "imgs");
    out.metric("server.worker_busy_share",
               busy / (ref.wall_s * static_cast<double>(w.workers)), "share");
    out.metric("server.shed", static_cast<double>(ref.stats.shed), "count");
    out.metric("server.expired", static_cast<double>(ref.stats.expired),
               "count");
    out.metric("server.rejected", static_cast<double>(ref.stats.rejected),
               "count");
    out.metric("server.max_queue_depth",
               static_cast<double>(ref.stats.max_queue_depth), "count");
    out.metric("loadgen.lag_p99_ms", percentile(lag_all, 99.0), "ms");
    return;
  }
  out.attempted = static_cast<int64_t>(m.batch_ms.size());
  out.failed = 0;
  const double p90 = percentile(m.batch_ms, 90.0);
  std::vector<Interval> within;
  double busy_ms = 0.0;
  for (size_t i = 0; i < m.batch_ms.size(); ++i) {
    if (m.batch_ms[i] <= w.slo_ms) within.push_back(m.batch_span[i]);
    busy_ms += m.batch_ms[i];
  }
  const auto per_batch = static_cast<double>(w.max_batch);
  const double tput = windowed_rate(m.batch_span, m.seconds, per_batch);
  out.metric("throughput_imgs_per_s", tput, "imgs/s");
  out.rec("throughput_over_wall_imgs_per_s",
          num(static_cast<double>(m.offline_images) / m.offline_wall_s));
  out.metric("latency_p50_ms", percentile(m.batch_ms, 50.0), "ms");
  out.metric("latency_tail_ms", p90, "ms");
  out.metric("ok_share", 1.0, "share");
  out.metric("slo_goodput_imgs_per_s",
             windowed_rate(within, m.seconds, per_batch), "imgs/s");
  out.rec("latency_tail_percentile", "90");
  out.rec("latency_samples", std::to_string(m.batch_ms.size()));
  // No server and no queue: a batch is due when the previous one returns,
  // and the only wait is the caller's own gap before the next engine call.
  std::vector<double> gap_ms;
  for (size_t i = 1; i < m.batch_span.size(); ++i) {
    gap_ms.push_back((m.batch_span[i].start - m.batch_span[i - 1].end) * 1e3);
  }
  out.metric("server.queue_wait_p50_ms", percentile(gap_ms, 50.0), "ms");
  out.metric("server.queue_wait_p99_ms", percentile(gap_ms, 99.0), "ms");
  out.metric("server.mean_batch_size", static_cast<double>(w.max_batch),
             "imgs");
  out.metric("server.worker_busy_share", busy_ms / 1e3 / m.offline_wall_s,
             "share");
  out.metric("server.shed", 0.0, "count");
  out.metric("server.expired", 0.0, "count");
  out.metric("server.rejected", 0.0, "count");
  out.metric("server.max_queue_depth", 0.0, "count");
  out.metric("loadgen.lag_p99_ms", percentile(gap_ms, 99.0), "ms");
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_file;
  bool corrupt_probe = false;
  std::string cache_dir = ".";
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(k + " needs a value");
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = value();
    } else if (k == "--seed") {
      a.seed = std::stoull(value());
    } else if (k == "--seconds") {
      a.seconds = std::stod(value());
    } else if (k == "--trace") {
      a.trace = value() != "0";
    } else if (k == "--trace-file") {
      a.trace_file = value();
    } else if (k == "--cache-dir") {
      a.cache_dir = value();
    } else if (k == "--corrupt-probe") {
      a.corrupt_probe = true;
    } else {
      throw std::invalid_argument("unknown argument " + k);
    }
  }
  if (a.workload.empty() || a.seconds <= 0.0) {
    throw std::invalid_argument("--workload and a positive --seconds needed");
  }
  if (a.trace && a.trace_file.empty()) {
    throw std::invalid_argument("--trace 1 needs --trace-file");
  }
  return a;
}

int run(const Args& args) {
  const Workload w = make_workload(args.workload);
  // The kernel pool's width is part of the workload's definition; it must be
  // fixed before anything touches ThreadPool::global().
  setenv("TBNET_THREADS", std::to_string(w.pool_threads).c_str(), 1);
  const tee::DeviceProfile profile = tee::DeviceProfile::rpi3();
  Tracer tracer(args.trace);
  Output out;

  // ---- inputs (models/ and data/: built, never measured) ----------------
  Rng rng(args.seed * 0x9E3779B97F4A7C15ull + 1);
  core::TwoBranchModel model;
  Inputs in;
  if (w.int8) {
    model = trained_model(w.model, args.cache_dir);
    // Calibration and probe are fixed; the served images come from a split
    // of the seed's own.
    auto [train, test] = data::SyntheticCifar::make_split(
        w.model.classes, kTrainImages, kFixedImages, kDataSeed);
    std::vector<Tensor> fixed;
    for (int64_t i = 0; i < test.size(); ++i) fixed.push_back(test.get(i).image);
    in.calibration = stack(fixed, 0, 16);
    in.probe = stack(fixed, 16, fixed.size() - 16);
    auto [serve, unused] = data::SyntheticCifar::make_split(
        w.model.classes, 256, 1, kDataSeed + args.seed);
    for (int64_t i = 0; i < serve.size(); ++i) {
      in.images.push_back(serve.get(i).image);
    }
  } else {
    model = models::build_two_branch(models::build_victim(w.model), w.model);
    Rng fixed_rng(kDataSeed);
    in.probe = Tensor::randn(Shape{16, 3, 32, 32}, fixed_rng);
    for (int i = 0; i < 64; ++i) {
      in.images.push_back(Tensor::randn(Shape{3, 32, 32}, rng));
    }
  }

  // ---- set-up, repeated; the median is setup_s --------------------------
  const Tensor warm = stack(in.images, 0, static_cast<size_t>(w.max_batch));
  const int setups = 5;
  std::vector<double> setup_s;
  std::vector<Engine> engines;
  for (int k = 0; k < setups; ++k) {
    auto [built, s] = set_up(model, in.calibration, w.max_batch, profile,
                             w.workers, warm, k);
    setup_s.push_back(s);
    if (k + 1 == setups) engines = std::move(built);
  }

  // ---- correctness -------------------------------------------------------
  runtime::DeployedTBNet& e0 = *engines.front().tbnet;
  Tensor engine_logits = infer_in_chunks(e0, in.probe, w.max_batch);
  if (args.corrupt_probe) engine_logits[0] += 1.0f + std::fabs(engine_logits[0]);
  if (!w.int8) {
    const double err =
        rel_error(engine_logits, model.forward(in.probe, false));
    out.checks.push_back({"engine_matches_forward", err <= 1e-5});
    if (err > 1e-5) {
      check_failed("engine_matches_forward",
                   "relative error " + num(err) + " > 1e-5");
    }
  } else {
    Engine f32 = deploy(model, Tensor(), w.max_batch, profile, "servebench-f32");
    const Tensor f32_logits = infer_in_chunks(*f32.tbnet, in.probe, w.max_batch);
    const double err =
        rel_error(f32_logits, model.forward(in.probe, false));
    const double agree = top1_agreement(engine_logits, f32_logits);
    out.rec("int8_top1_agreement", num(agree));
    if (err > 1e-5) {
      check_failed("engine_matches_forward",
                   "f32 engine relative error " + num(err) + " > 1e-5");
    }
    if (agree < 0.99) {
      check_failed("int8_top1_agreement",
                   "int8 vs f32 top-1 agreement " + num(agree) + " < 0.99");
    }
    out.checks.push_back({"engine_matches_forward", true});
    out.checks.push_back({"int8_top1_agreement", true});
  }
  const runtime::TwoBranchFootprint fp =
      runtime::measure_two_branch(model, Shape{3, 32, 32});
  // One replay per worker: a replay, like an engine, runs on one thread.
  std::vector<std::unique_ptr<Replay>> replays;
  for (int i = 0; i < w.workers; ++i) {
    replays.push_back(std::make_unique<Replay>(model, in.calibration));
  }
  Replay& replay = *replays.front();
  {
    const Tensor replay_logits = replay.run(in.probe, nullptr);
    const double err = rel_error(replay_logits, engine_logits);
    if (err > 1e-5) {
      check_failed("replay_matches_engine",
                   "replay relative error " + num(err) + " > 1e-5");
    }
    out.checks.push_back({"replay_matches_engine", true});
  }

  // Memory after set-up: every engine has run a max_batch warm batch.
  int64_t secure_peak = 0, workspace = 0, ta_image = 0;
  for (const Engine& e : engines) {
    secure_peak += e.world->memory().peak_bytes();
    workspace += e.tbnet->workspace_bytes();
    ta_image += e.tbnet->ta_image_bytes();
  }

  // ---- measurement -------------------------------------------------------
  // The end-to-end run walks the whole ladder untraced. The traced run
  // serves the reference rung (or the closed loop) twice on the same
  // engines, untraced then traced, half the seconds each. The difference
  // between the halves is the tracing overhead (which includes the
  // replays); the server-layer counters come from the untraced half.
  Measurement m;
  Measurement plain;
  double overhead_share = 0.0;
  if (!args.trace) {
    Tracer off(false);
    m = measure(w, w.ladder, args.seconds, engines, replays, fp, in.images,
                rng, off);
  } else {
    std::vector<Ladder> ref;
    if (w.server) ref.push_back({w.ladder.front().rate_imgs_per_s, 1.0});
    Tracer off(false);
    plain = measure(w, ref, args.seconds / 2, engines, replays, fp, in.images,
                    rng, off);
    m = measure(w, ref, args.seconds / 2, engines, replays, fp, in.images, rng,
                tracer);
    overhead_share = m.headline_p50_ms() / plain.headline_p50_ms() - 1.0;
  }

  // ---- served answers match the replay ------------------------------------
  std::vector<const Served*> served;
  for (const Served& s : m.offline_samples) served.push_back(&s);
  for (const RungResult& r : m.rungs) {
    for (const Served& s : r.samples) served.push_back(&s);
  }
  for (const Served* s : served) {
    const double err = rel_error(s->logits, replay.run(s->input, nullptr));
    if (err > 1e-5) {
      check_failed("served_logits_match",
                   "a served answer differs from the replay by " + num(err));
    }
  }
  out.checks.push_back({"served_logits_match", true});
  out.rec("served_answers_checked", std::to_string(served.size()));

  // ---- leaks -------------------------------------------------------------
  for (const Engine& e : engines) {
    if (e.ctx->channel().leaked_bytes() != 0) {
      check_failed("no_leaked_bytes",
                   std::to_string(e.ctx->channel().leaked_bytes()) +
                       " bytes left the TEE");
    }
  }
  out.checks.push_back({"no_leaked_bytes", true});
  if (w.server) {
    out.checks.push_back({"futures_resolved", true});
    out.checks.push_back({"accounting_identity", true});
  }

  out.metric("setup_s", median(setup_s), "s");
  out.metric("secure_peak_bytes", static_cast<double>(secure_peak), "bytes");
  out.metric("ree_workspace_bytes", static_cast<double>(workspace), "bytes");
  out.metric("ta_image_bytes", static_cast<double>(ta_image), "bytes");
  report(w, args.trace ? plain : m, out);
  if (args.trace) {
    // The traced half's requests were attempted too.
    Output traced;
    report(w, m, traced);
    out.attempted += traced.attempted;
    out.failed += traced.failed;
  }

  // ---- traced run: engine spans + the nn replay --------------------------
  if (tracer.enabled()) {
    const std::vector<BatchSample>& samples = m.batches;
    for (const BatchSample& s : samples) {
      const std::string args_json =
          "\"n\":" + std::to_string(s.n) + ",\"switches\":" +
          std::to_string(s.switches) + ",\"bytes\":" + std::to_string(s.bytes) +
          ",\"stall_ms\":" + num(s.stall_ms);
      tracer.complete("engine.infer_batch", 100 + s.worker, s.start, s.end,
                      args_json);
      // Synthetic child: the injected stall is spread over the call's TA
      // invocations; it is drawn as one block at the span's start.
      tracer.complete(
          "tee.injected_stall", 100 + s.worker, s.start,
          s.start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::milli>(s.stall_ms)),
          "\"stall_ms\":" + num(s.stall_ms));
    }
    std::string stage_macs = "[";
    for (size_t i = 0; i < fp.stages.size(); ++i) {
      stage_macs += std::string(i ? "," : "") +
                    std::to_string(fp.stages[i].exposed_macs) + "," +
                    std::to_string(fp.stages[i].secure_macs);
    }
    stage_macs += "]";
    out.metric("tensor.ree_arena_bytes",
               static_cast<double>(engines.front().tbnet->workspace_bytes()),
               "bytes");
    out.rec("replay_ree_arena_bytes", std::to_string(replay.ree_arena_bytes()));
    out.rec("stage_macs_per_image", stage_macs);
    out.metric("trace.overhead_share", overhead_share, "share");
    out.rec("tracing_overhead_share", num(overhead_share));
    tracer.write(args.trace_file);
  }

  // ---- run record --------------------------------------------------------
  out.rec_str("workload", w.name);
  out.rec("seed", std::to_string(args.seed));
  out.rec("seconds", num(args.seconds));
  out.rec("nproc", std::to_string(std::thread::hardware_concurrency()));
  out.rec_str("isa", simd::isa_name());
  out.rec_str("int8_isa", simd::int8_isa_name());
  out.rec("pool_threads", std::to_string(ThreadPool::global().num_threads()));
  out.rec("server_workers", std::to_string(w.server ? w.workers : 0));
  out.rec_str("build_type", SERVEBENCH_BUILD_TYPE);
  out.rec("device_profile",
          "{\"name\":\"" + profile.name + "\",\"world_switch_s\":" +
              num(profile.world_switch_s) + ",\"invoke_overhead_s\":" +
              num(profile.invoke_overhead_s) + ",\"channel_bytes_per_s\":" +
              num(profile.channel_bytes_per_s) + ",\"secure_mem_budget\":" +
              std::to_string(profile.secure_mem_budget) + "}");
  out.rec_str("model", w.model.name() + (w.int8 ? " int8" : " f32"));
  out.rec("stages", std::to_string(model.num_stages()));
  out.rec("slo_ms", num(w.slo_ms));
  std::string setups_json = "[";
  for (size_t i = 0; i < setup_s.size(); ++i) {
    setups_json += std::string(i ? "," : "") + num(setup_s[i]);
  }
  out.rec("setup_s_all", setups_json + "]");
  out.print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servebench: %s\n", e.what());
    return 2;
  }
}
