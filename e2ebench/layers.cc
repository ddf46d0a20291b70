// Per-layer probes: each times calls into one module's public functions,
// from outside, on the calling workload's data and model shapes.

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/fixed_arch_model.h"
#include "core/search_model.h"
#include "io/serialize.h"
#include "models/cross_embedding.h"
#include "models/prepared_batch.h"
#include "nn/mlp.h"
#include "tensor/kernels.h"
#include "train/trainer.h"
#include "workloads.h"

using namespace optinter;

namespace e2e {

namespace {

constexpr size_t kPhaseSteps = 24;

double Mean(const std::vector<double>& xs) {
  return xs.empty() ? 0.0
                    : std::accumulate(xs.begin(), xs.end(), 0.0) /
                          static_cast<double>(xs.size());
}

void FillRandom(Tensor* t, Rng* rng) {
  for (size_t i = 0; i < t->size(); ++i) {
    (*t)[i] = static_cast<float>(rng->Uniform() - 0.5);
  }
}

Batch BatchAt(const ProbeInput& in, size_t step) {
  const size_t bs = in.hp.batch_size;
  const size_t nb = std::max<size_t>(1, in.rows.size() / bs);
  Batch b;
  b.data = in.data;
  b.rows = in.rows.data() + (step % nb) * bs;
  b.size = std::min(bs, in.rows.size());
  return b;
}

// Median microseconds of `reps` calls of fn, after `warm` untimed calls.
template <typename Fn>
double MedianCallUs(size_t warm, size_t reps, Fn&& fn) {
  for (size_t i = 0; i < warm; ++i) fn(i);
  std::vector<double> us;
  us.reserve(reps);
  for (size_t i = 0; i < reps; ++i) {
    const double t0 = NowSec();
    fn(warm + i);
    us.push_back((NowSec() - t0) * 1e6);
  }
  return Median(us);
}

// Microseconds of one wall-clock read plus one process-CPU read, the pair
// the phase probe takes at every phase boundary.
double ClockPairUs() {
  constexpr int kPairs = 2000;
  volatile double sink = 0;
  const double t0 = NowSec();
  for (int i = 0; i < kPairs; ++i) sink = sink + NowSec() + ProcessCpuSec();
  return (NowSec() - t0) * 1e6 / kPairs;
}

// Median microseconds of one train step (the three phases, as the
// pipelined executor calls them) of `model` over kPhaseSteps steps, after
// three untimed ones.
double StepUs(CtrModel* model, const ProbeInput& in) {
  PreparedBatch prep;
  std::vector<double> us;
  for (size_t step = 0; step < 3 + kPhaseSteps; ++step) {
    const Batch b = BatchAt(in, step);
    const double t0 = NowSec();
    model->PrepareBatch(b, &prep);
    model->ForwardBackward(prep);
    model->ApplyGrads();
    if (step >= 3) us.push_back((NowSec() - t0) * 1e6);
  }
  return Median(us);
}

double TestPassSeconds(CtrModel* model, const ProbeInput& in) {
  const double t0 = NowSec();
  EvaluateModel(model, *in.data, in.test);
  return NowSec() - t0;
}

}  // namespace

void ProbeTrainPhases(const ProbeInput& in, Result* out) {
  for (size_t threads : {1, 2, 4}) {
    ThreadPool::SetGlobalThreads(threads);
    FixedArchModel model(*in.data, in.arch, in.hp, "probe");
    PreparedBatch prep;
    std::vector<double> prep_us, fb_us, apply_us;
    std::vector<double> prep_cpu, fb_cpu, apply_cpu;
    constexpr size_t kWarm = 3;
    for (size_t step = 0; step < kWarm + kPhaseSteps; ++step) {
      const Batch b = BatchAt(in, step);
      const double t0 = NowSec(), c0 = ProcessCpuSec();
      model.PrepareBatch(b, &prep);
      const double t1 = NowSec(), c1 = ProcessCpuSec();
      model.ForwardBackward(prep);
      const double t2 = NowSec(), c2 = ProcessCpuSec();
      model.ApplyGrads();
      const double t3 = NowSec(), c3 = ProcessCpuSec();
      if (step < kWarm) continue;
      prep_us.push_back((t1 - t0) * 1e6);
      fb_us.push_back((t2 - t1) * 1e6);
      apply_us.push_back((t3 - t2) * 1e6);
      prep_cpu.push_back((c1 - c0) * 1e6);
      fb_cpu.push_back((c2 - c1) * 1e6);
      apply_cpu.push_back((c3 - c2) * 1e6);
    }
    const std::string t = ".t" + std::to_string(threads);
    out->Set("train.prepare_us" + t, Median(prep_us), "us");
    out->Set("train.fwdbwd_us" + t, Median(fb_us), "us");
    out->Set("train.apply_us" + t, Median(apply_us), "us");
    if (threads == 4) {
      out->Set("train.prepare_cpu_us.t4", Median(prep_cpu), "us");
      out->Set("train.fwdbwd_cpu_us.t4", Median(fb_cpu), "us");
      out->Set("train.apply_cpu_us.t4", Median(apply_cpu), "us");
    }
    if (threads == in.threads && in.pipelined_step_us > 0) {
      // Serial phase time per step over the pipelined trainer's step wall:
      // above 1 means the executor hides work (prepare overlap), below 1
      // means its steps stall on something the phases do not cover.
      out->Set("train.overlap",
               (Mean(prep_us) + Mean(fb_us) + Mean(apply_us)) /
                   in.pipelined_step_us,
               "ratio");
    }
    if (threads == in.threads) {
      // What the probe's own timing adds to the step it times: four clock
      // pairs per step. A traced run's end-to-end job makes the same calls
      // as an untraced one (its layer figures come from probes like this
      // one, run after it), so this is what tracing adds to any figure.
      out->Set("obs.overhead_pct",
               100.0 * 4.0 * ClockPairUs() /
                   (Median(prep_us) + Median(fb_us) + Median(apply_us)),
               "%");
    }
  }
  ThreadPool::SetGlobalThreads(in.threads);
}

JobLayers MeasureJobLayers(const ProbeInput& in) {
  JobLayers l;
  const double t0 = NowSec();
  SearchModel search(*in.data, in.hp);
  FixedArchModel fixed(*in.data, in.arch, in.hp, "probe");
  l.build_ms = (NowSec() - t0) * 1e3;
  l.search_step_us = StepUs(&search, in);
  l.search_eval_s = TestPassSeconds(&search, in);
  l.step_us = StepUs(&fixed, in);
  l.eval_s = TestPassSeconds(&fixed, in);
  return l;
}

void ProbeSearchModel(const ProbeInput& in, Result* out) {
  const JobLayers l = MeasureJobLayers(in);
  out->Set("core.build_ms", l.build_ms, "ms");
  out->Set("core.search_step_us", l.search_step_us, "us");
  out->Set("core.search_eval_s", l.search_eval_s, "s");
}

void ProbeKernels(const ProbeInput& in, Result* out) {
  // Shapes of the workload's own first MLP layer.
  FixedArchModel model(*in.data, in.arch, in.hp, "probe");
  const MlpConfig cfg = model.mlp().config();
  const size_t m = in.hp.batch_size;
  const size_t k = model.mlp().in_dim();
  const size_t n = cfg.hidden.empty() ? cfg.out_dim : cfg.hidden[0];
  Rng rng(in.hp.seed);
  Tensor x({m, k}), dy({m, n}), w({n, k}), dx({m, k}), dw({k, n});
  FillRandom(&x, &rng);
  FillRandom(&dy, &rng);
  FillRandom(&w, &rng);
  const double flops = 2.0 * static_cast<double>(m * k * n);
  for (size_t threads : {1, 4}) {
    ThreadPool::SetGlobalThreads(threads);
    const std::string t = ".t" + std::to_string(threads);
    // Backward-data GEMM dX = dY * W and weight-gradient dW = X^T * dY.
    const double nn_us = MedianCallUs(5, 60, [&](size_t) {
      GemmNN(dy.data(), w.data(), dx.data(), m, n, k);
    });
    const double tn_us = MedianCallUs(5, 60, [&](size_t) {
      GemmTN(x.data(), dy.data(), dw.data(), m, k, n);
    });
    out->Set("tensor.gemm_nn_us" + t, nn_us, "us");
    out->Set("tensor.gemm_tn_us" + t, tn_us, "us");
    // Computed from the shape (2mkn flops), not counted by hardware.
    out->Set("tensor.gemm_nn_gflops" + t, flops / (nn_us * 1e3), "GFLOP/s");
    out->Set("tensor.gemm_tn_gflops" + t, flops / (tn_us * 1e3), "GFLOP/s");
  }
  ThreadPool::SetGlobalThreads(in.threads);

  Mlp mlp("probe", k, cfg, &rng);
  MlpWorkspace ws, ws1;
  Tensor y, dmlp({m, cfg.out_dim}), x1({1, k}), y1;
  FillRandom(&dmlp, &rng);
  FillRandom(&x1, &rng);
  out->Set("nn.mlp_fwd_us",
           MedianCallUs(3, 40, [&](size_t) { mlp.Forward(x, &y, &ws); }),
           "us");
  std::vector<double> bwd_us;
  for (size_t i = 0; i < 43; ++i) {
    mlp.Forward(x, &y, &ws);
    const double t0 = NowSec();
    mlp.Backward(dmlp, &dx, &ws);
    if (i >= 3) bwd_us.push_back((NowSec() - t0) * 1e6);
  }
  out->Set("nn.mlp_bwd_us", Median(bwd_us), "us");
  out->Set("nn.mlp_fwd_us.b1",
           MedianCallUs(50, 2000, [&](size_t) { mlp.Forward(x1, &y1, &ws1); }),
           "us");
}

void ProbeEmbedding(const ProbeInput& in, Result* out) {
  // The workload's memorized cross tables (all pairs when it has none).
  std::vector<size_t> pairs;
  for (size_t p = 0; p < in.arch.size(); ++p) {
    if (in.arch[p] == InterMethod::kMemorize) pairs.push_back(p);
  }
  if (pairs.empty()) {
    pairs.resize(in.arch.size());
    std::iota(pairs.begin(), pairs.end(), 0);
  }
  Rng rng(in.hp.seed);
  CrossEmbedding emb(*in.data, pairs, in.hp.cross_embed_dim, in.hp.lr_cross,
                     in.hp.l2_cross, &rng, in.hp.cross_backend);
  Tensor emb_out, d_out;
  std::vector<double> gather_us, scatter_us, adam_us;
  for (size_t step = 0; step < 3 + kPhaseSteps; ++step) {
    const Batch b = BatchAt(in, step);
    const double t0 = NowSec();
    emb.Forward(b, &emb_out);
    const double t1 = NowSec();
    if (d_out.size() != emb_out.size()) {
      d_out.Resize({emb_out.rows(), emb_out.cols()});
      FillRandom(&d_out, &rng);
    }
    const double t2 = NowSec();
    emb.Backward(d_out);
    const double t3 = NowSec();
    emb.Step();
    const double t4 = NowSec();
    if (step < 3) continue;
    gather_us.push_back((t1 - t0) * 1e6);
    scatter_us.push_back((t3 - t2) * 1e6);
    adam_us.push_back((t4 - t3) * 1e6);
  }
  out->Set("models.gather_us", Median(gather_us), "us");
  out->Set("models.scatter_us", Median(scatter_us), "us");
  out->Set("nn.sparse_adam_us", Median(adam_us), "us");
}

void ProbeIo(const ProbeInput& in, Result* out) {
  FixedArchModel model(*in.data, in.arch, in.hp, "probe");
  for (size_t step = 0; step < 3; ++step) model.TrainStep(BatchAt(in, step));
  const std::string path = in.work_dir + "/probe.ckpt";
  std::vector<double> save_ms, load_ms;
  for (int rep = 0; rep < 3; ++rep) {
    double t0 = NowSec();
    if (!SaveModel(&model, path).ok()) {
      out->Fail("probe checkpoint save");
      return;
    }
    save_ms.push_back((NowSec() - t0) * 1e3);
    FixedArchModel loaded(*in.data, in.arch, in.hp, "probe");
    t0 = NowSec();
    if (!LoadModel(&loaded, path).ok()) {
      out->Fail("probe checkpoint load");
      return;
    }
    load_ms.push_back((NowSec() - t0) * 1e3);
  }
  struct stat st {};
  ::stat(path.c_str(), &st);
  std::remove(path.c_str());
  out->Set("io.save_ms", Median(save_ms), "ms");
  out->Set("io.load_ms", Median(load_ms), "ms");
  out->Set("io.ckpt_mb", static_cast<double>(st.st_size) / (1024.0 * 1024.0),
           "MiB");
}

}  // namespace e2e
