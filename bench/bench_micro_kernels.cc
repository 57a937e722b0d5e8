// Micro-kernel throughput snapshot for the deterministic work pool (PR:
// perf_opt).  Measures the three ported hot paths — Conv2d im2col+GEMM
// forward/backward, the fused SEASGD elastic exchange (eqs. 5+6), and the
// SMB server-side accumulate (eq. 7) — each at pool widths 1 and 4, plus a
// scalar reference implementation of the pre-pool conv GEMM (row-at-a-time,
// per-call scratch) so the speedup of the tiled kernels is visible in the
// numbers themselves.
//
// Output is one JSON document.  Timings vary run to run, but the layout is
// fixed and every kernel row carries a `checksum` computed from the kernel's
// float outputs in a fixed order — the t1 and t4 rows of a kernel must agree
// on it bit-for-bit (the work pool's determinism contract; asserted here).
// `tools/check.sh bench` snapshots the document into BENCH_kernels.json and
// refuses to overwrite the baseline on a >20% throughput regression unless
// forced.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string_view>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/simd.h"
#include "core/seasgd_math.h"
#include "dl/layers.h"
#include "smb/server.h"

namespace {

using namespace shmcaffe;
using Clock = std::chrono::steady_clock;

// Conv geometry: ShmCaffe-A-sized block (16 -> 32 channels, 3x3, 16x16
// feature map, batch 8).  2 * kk * oc * columns * N ~ 19 MFLOP per pass.
constexpr int kBatch = 8;
constexpr int kInC = 16;
constexpr int kOutC = 32;
constexpr int kSide = 16;
constexpr int kFwdReps = 40;
constexpr int kBwdReps = 20;
// SEASGD / SMB span: 4M floats (a ShmCaffe-B-scale parameter buffer).
constexpr std::size_t kSpan = 4U << 20;
constexpr int kSpanReps = 12;
constexpr double kSpanBytes = static_cast<double>(kSpan) * sizeof(float);

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Every row is timed as best-of-N batches, not one long window: on a shared
// (often single-core) box a scheduler hiccup inside the window would poison
// the whole row, while the fastest batch approximates the machine's
// uncontended rate.  The checksum contract is unaffected — every batch runs
// the same work.
constexpr int kTimingBatches = 6;

template <typename Body>
double best_of(int reps_per_batch, Body&& body) {
  double best = std::numeric_limits<double>::infinity();
  for (int batch = 0; batch < kTimingBatches; ++batch) {
    const auto start = Clock::now();
    for (int i = 0; i < reps_per_batch; ++i) body();
    best = std::min(best, seconds_since(start));
  }
  return best;
}

/// Fixed-order float checksum; bitwise identical inputs give identical sums.
double checksum(const float* data, std::size_t n) {
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) sum += static_cast<double>(data[i]);
  return sum;
}

struct Row {
  const char* name;
  int threads;
  double ms;          // per iteration
  double throughput;  // GFLOP/s for conv, Gelem/s for span kernels
  const char* units;
  double gb_per_s;    // memory-stream rate: bytes touched per iteration / time
  double check;
};

std::vector<Row> rows;

void emit(const char* name, int threads, double total_seconds, int reps, double work,
          const char* units, double bytes, double check) {
  const double per_iter = total_seconds / reps;
  rows.push_back(Row{name, threads, per_iter * 1e3, work / per_iter * 1e-9, units,
                     bytes / per_iter * 1e-9, check});
}

/// Throughput of the named row, or 0 if absent.
double throughput_of(std::string_view name, int threads) {
  for (const Row& r : rows) {
    if (std::string_view(r.name) == name && r.threads == threads) return r.throughput;
  }
  return 0.0;
}

// --- scalar reference: the pre-pool conv GEMM ------------------------------
// Row-at-a-time products with the data-dependent zero-skip and a fresh dcol
// allocation per backward call, exactly as the engine looked before the
// tiling port.  Kept here (not in the library) purely as the bench baseline.

struct RefConv {
  int in_c, out_c, k, stride, pad, oh, ow;
  std::vector<float> col;

  void im2col(const dl::Tensor& x, int n) {
    const int columns = oh * ow;
    col.assign(static_cast<std::size_t>(in_c) * k * k * columns, 0.0F);
    std::size_t row = 0;
    for (int ic = 0; ic < in_c; ++ic) {
      for (int ky = 0; ky < k; ++ky) {
        for (int kx = 0; kx < k; ++kx, ++row) {
          float* dst = col.data() + row * static_cast<std::size_t>(columns);
          for (int y = 0; y < oh; ++y) {
            const int iy = y * stride + ky - pad;
            if (iy < 0 || iy >= x.h()) {
              dst += ow;
              continue;
            }
            for (int xo = 0; xo < ow; ++xo, ++dst) {
              const int ix = xo * stride + kx - pad;
              if (ix >= 0 && ix < x.w()) *dst = x.at(n, ic, iy, ix);
            }
          }
        }
      }
    }
  }

  void forward(const dl::Tensor& x, const float* w, const float* bias, dl::Tensor& top) {
    const int columns = oh * ow;
    const int kk = in_c * k * k;
    for (int n = 0; n < x.n(); ++n) {
      im2col(x, n);
      float* out = top.data() + static_cast<std::size_t>(n) * out_c * columns;
      for (int oc = 0; oc < out_c; ++oc) {
        float* orow = out + static_cast<std::size_t>(oc) * columns;
        std::fill(orow, orow + columns, bias[oc]);
        const float* wrow = w + static_cast<std::size_t>(oc) * kk;
        for (int r = 0; r < kk; ++r) {
          const float wv = wrow[r];
          if (wv == 0.0F) continue;
          const float* crow = col.data() + static_cast<std::size_t>(r) * columns;
          for (int c = 0; c < columns; ++c) orow[c] += wv * crow[c];
        }
      }
    }
  }

  void backward(const dl::Tensor& x, const dl::Tensor& gout_t, const float* w, float* dw,
                float* db, dl::Tensor* dx) {
    const int columns = oh * ow;
    const int kk = in_c * k * k;
    std::vector<float> dcol(static_cast<std::size_t>(kk) * columns);
    for (int n = 0; n < x.n(); ++n) {
      im2col(x, n);
      const float* gout =
          gout_t.data() + static_cast<std::size_t>(n) * out_c * columns;
      std::fill(dcol.begin(), dcol.end(), 0.0F);
      for (int oc = 0; oc < out_c; ++oc) {
        const float* grow = gout + static_cast<std::size_t>(oc) * columns;
        float bias_acc = 0.0F;
        for (int c = 0; c < columns; ++c) bias_acc += grow[c];
        db[oc] += bias_acc;
        float* dwrow = dw + static_cast<std::size_t>(oc) * kk;
        const float* wrow = w + static_cast<std::size_t>(oc) * kk;
        for (int r = 0; r < kk; ++r) {
          const float* crow = col.data() + static_cast<std::size_t>(r) * columns;
          float acc = 0.0F;
          for (int c = 0; c < columns; ++c) acc += grow[c] * crow[c];
          dwrow[r] += acc;
          if (dx != nullptr && wrow[r] != 0.0F) {
            float* drow = dcol.data() + static_cast<std::size_t>(r) * columns;
            for (int c = 0; c < columns; ++c) drow[c] += wrow[r] * grow[c];
          }
        }
      }
      if (dx == nullptr) continue;
      std::size_t row = 0;
      for (int ic = 0; ic < in_c; ++ic) {
        for (int ky = 0; ky < k; ++ky) {
          for (int kx = 0; kx < k; ++kx, ++row) {
            const float* drow = dcol.data() + row * static_cast<std::size_t>(columns);
            for (int y = 0; y < oh; ++y) {
              const int iy = y * stride + ky - pad;
              if (iy < 0 || iy >= x.h()) continue;
              for (int xo = 0; xo < ow; ++xo) {
                const int ix = xo * stride + kx - pad;
                if (ix >= 0 && ix < x.w()) dx->at(n, ic, iy, ix) += drow[y * ow + xo];
              }
            }
          }
        }
      }
    }
  }
};

// --- kernels ----------------------------------------------------------------

void bench_conv(int threads) {
  common::parallel::set_thread_count(threads);
  dl::Conv2d conv("c", kInC, kOutC, 3, 1, 1);
  common::Rng rng(7);
  conv.init_params(rng);
  dl::Tensor x({kBatch, kInC, kSide, kSide});
  for (float& v : x.span()) v = static_cast<float>(rng.uniform(-1, 1));
  dl::Tensor top;
  conv.setup({&x}, top);
  conv.forward({&x}, top, true);  // size the arenas outside the timed loop

  const double columns = static_cast<double>(kSide) * kSide;
  const double kk = static_cast<double>(kInC) * 9;
  const double flops = 2.0 * kk * kOutC * columns * kBatch;

  const double fwd_best = best_of(kFwdReps, [&] { conv.forward({&x}, top, true); });
  emit("conv_fwd", threads, fwd_best, kFwdReps, flops, "gflops",
       flops / 2.0 * sizeof(float), checksum(top.data(), top.size()));

  dl::Tensor top_grad;
  top_grad.reshape(top.shape());
  for (float& v : top_grad.span()) v = static_cast<float>(rng.uniform(-0.01, 0.01));
  dl::Tensor x_grad;
  x_grad.reshape(x.shape());
  std::vector<dl::Tensor*> bottom_grads{&x_grad};
  conv.backward({&x}, top, top_grad, bottom_grads);  // size dcol_
  const double bwd_best = best_of(kBwdReps, [&] {
    x_grad.zero();
    conv.backward({&x}, top, top_grad, bottom_grads);
  });
  // dW, dcol and col2im each stream the full GEMM volume: ~3x forward work.
  emit("conv_bwd", threads, bwd_best, kBwdReps, 3.0 * flops, "gflops",
       3.0 * flops / 2.0 * sizeof(float), checksum(x_grad.data(), x_grad.size()));
}

void bench_conv_scalar_reference() {
  dl::Conv2d init("c", kInC, kOutC, 3, 1, 1);
  common::Rng rng(7);
  init.init_params(rng);
  dl::Tensor x({kBatch, kInC, kSide, kSide});
  for (float& v : x.span()) v = static_cast<float>(rng.uniform(-1, 1));
  dl::Tensor top;
  init.setup({&x}, top);

  RefConv ref{kInC, kOutC, 3, 1, 1, top.h(), top.w(), {}};
  const float* w = init.params()[0]->value.data();
  const float* b = init.params()[1]->value.data();
  const double columns = static_cast<double>(kSide) * kSide;
  const double kk = static_cast<double>(kInC) * 9;
  const double flops = 2.0 * kk * kOutC * columns * kBatch;

  ref.forward(x, w, b, top);
  const double fwd_best = best_of(kFwdReps, [&] { ref.forward(x, w, b, top); });
  emit("conv_fwd_scalar_ref", 1, fwd_best, kFwdReps, flops, "gflops",
       flops / 2.0 * sizeof(float), checksum(top.data(), top.size()));

  dl::Tensor top_grad;
  top_grad.reshape(top.shape());
  for (float& v : top_grad.span()) v = static_cast<float>(rng.uniform(-0.01, 0.01));
  dl::Tensor x_grad;
  x_grad.reshape(x.shape());
  std::vector<float> dw(init.params()[0]->value.size());
  std::vector<float> db(init.params()[1]->value.size());
  const double bwd_best = best_of(kBwdReps, [&] {
    x_grad.zero();
    ref.backward(x, top_grad, w, dw.data(), db.data(), &x_grad);
  });
  emit("conv_bwd_scalar_ref", 1, bwd_best, kBwdReps, 3.0 * flops, "gflops",
       3.0 * flops / 2.0 * sizeof(float), checksum(x_grad.data(), x_grad.size()));
}

void bench_seasgd(int threads) {
  common::parallel::set_thread_count(threads);
  common::Rng rng(11);
  std::vector<float> local(kSpan);
  std::vector<float> global(kSpan);
  std::vector<float> delta(kSpan);
  for (float& v : local) v = static_cast<float>(rng.uniform(-1, 1));
  for (float& v : global) v = static_cast<float>(rng.uniform(-1, 1));
  const std::vector<float> local0 = local;

  core::elastic_exchange_parallel(local, global, 0.25F, delta);  // warm pool
  const double elapsed = best_of(kSpanReps, [&] {
    std::copy(local0.begin(), local0.end(), local.begin());
    core::elastic_exchange_parallel(local, global, 0.25F, delta);
  });
  emit("seasgd_exchange", threads, elapsed, kSpanReps,
       static_cast<double>(kSpan), "gelems", 4.0 * kSpanBytes,
       checksum(delta.data(), delta.size()));
}

void bench_smb_accumulate(int threads) {
  common::parallel::set_thread_count(threads);
  smb::SmbServerOptions options;
  options.capacity_bytes = 256LL << 20;
  smb::SmbServer server(options);
  const smb::Handle src = server.create_floats(1, kSpan);
  const smb::Handle dst = server.create_floats(2, kSpan);
  common::Rng rng(13);
  std::vector<float> delta(kSpan);
  for (float& v : delta) v = static_cast<float>(rng.uniform(-0.01, 0.01));
  server.write(src, delta);

  server.accumulate(src, dst);  // warm pool + scratch
  const double elapsed = best_of(kSpanReps, [&] { server.accumulate(src, dst); });
  std::vector<float> out(kSpan);
  server.read(dst, out);
  emit("smb_accumulate", threads, elapsed, kSpanReps, static_cast<double>(kSpan),
       "gelems", 3.0 * kSpanBytes, checksum(out.data(), out.size()));
}

// Copy read against the epoch-pinned zero-copy read of the same 4M-float
// segment.  The copy row streams the segment into a staging vector; the
// pinned row only pins/unpins the storage epoch — no bytes move, which is
// the entire point (its gb_per_s column reports delivered *view* bytes).
void bench_smb_read() {
  common::parallel::set_thread_count(1);
  smb::SmbServerOptions options;
  options.capacity_bytes = 256LL << 20;
  smb::SmbServer server(options);
  const smb::Handle handle = server.create_floats(1, kSpan);
  common::Rng rng(19);
  std::vector<float> data(kSpan);
  for (float& v : data) v = static_cast<float>(rng.uniform(-1, 1));
  server.write(handle, data);

  std::vector<float> out(kSpan);
  server.read(handle, out);
  const double copy_best = best_of(kSpanReps, [&] { server.read(handle, out); });
  emit("smb_read_copy", 1, copy_best, kSpanReps, static_cast<double>(kSpan),
       "gelems", 2.0 * kSpanBytes, checksum(out.data(), out.size()));

  double pinned_check = 0.0;
  { auto warm = server.read_pinned(handle, kSpan); pinned_check = checksum(warm.data(), warm.size()); }
  // A pin is ~100ns, so the row needs far more reps per batch than the
  // streaming kernels for the batch time to dwarf timer jitter.
  constexpr int kPinnedReps = 4096;
  const double pinned_best = best_of(kPinnedReps, [&] {
    smb::PinnedFloats view = server.read_pinned(handle, kSpan);
    // Touch the ends so the pin cannot be optimised into nothing.
    if (view.data()[0] != data[0] || view.data()[kSpan - 1] != data[kSpan - 1]) std::exit(1);
  });
  emit("smb_read_pinned", 1, pinned_best, kPinnedReps, static_cast<double>(kSpan),
       "gelems", kSpanBytes, pinned_check);

  if (pinned_check != checksum(out.data(), out.size())) {
    std::fprintf(stderr, "pinned read checksum differs from copy read\n");
    std::exit(1);
  }
}

}  // namespace

int main() {
  for (const int threads : {1, 2, 4}) {
    bench_conv(threads);
    bench_seasgd(threads);
    bench_smb_accumulate(threads);
  }
  bench_conv_scalar_reference();
  bench_smb_read();
  common::parallel::shutdown();

  // The determinism contract, enforced where the numbers are produced: a
  // kernel's checksum must not depend on the pool width.  (The accumulate
  // rows intentionally differ — each run adds into the same destination —
  // so they are exempt.)
  for (const Row& a : rows) {
    for (const Row& b : rows) {
      if (std::string_view(a.name) != b.name || a.threads >= b.threads) continue;
      if (std::string_view(a.name) == "smb_accumulate") continue;
      if (a.check != b.check) {
        std::fprintf(stderr, "checksum mismatch for %s: t%d=%.17g t%d=%.17g\n", a.name,
                     a.threads, a.check, b.threads, b.check);
        return 1;
      }
    }
  }

  // Speedup of each tuned kernel over its in-bench reference, folded into
  // one number: the geometric mean keeps any single ratio from dominating.
  const std::pair<const char*, const char*> pairs[] = {
      {"conv_fwd", "conv_fwd_scalar_ref"},
      {"conv_bwd", "conv_bwd_scalar_ref"},
      {"smb_read_pinned", "smb_read_copy"},
  };
  double log_sum = 0.0;
  int pair_count = 0;
  for (const auto& [tuned, ref] : pairs) {
    const double a = throughput_of(tuned, 1);
    const double b = throughput_of(ref, 1);
    if (a > 0 && b > 0) {
      log_sum += std::log(a / b);
      ++pair_count;
    }
  }
  const double geomean = pair_count > 0 ? std::exp(log_sum / pair_count) : 0.0;

  std::printf("{\n  \"schema\": \"bench_micro_kernels/v2\",\n");
  std::printf("  \"simd\": \"%s\",\n", common::simd::dispatch_name());
  std::printf("  \"conv\": {\"batch\": %d, \"in_c\": %d, \"out_c\": %d, \"side\": %d},\n",
              kBatch, kInC, kOutC, kSide);
  std::printf("  \"span_elements\": %zu,\n", kSpan);
  std::printf("  \"geomean_speedup_vs_ref\": %.4f,\n", geomean);
  std::printf("  \"kernels\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::printf("    {\"name\": \"%s_t%d\", \"threads\": %d, \"ms_per_iter\": %.4f, "
                "\"throughput\": %.4f, \"units\": \"%s\", \"gb_per_s\": %.4f, "
                "\"checksum\": %.9g}%s\n",
                r.name, r.threads, r.threads, r.ms, r.throughput, r.units, r.gb_per_s,
                r.check, i + 1 < rows.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
  return 0;
}
