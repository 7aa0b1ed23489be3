// mandel_hetero: the paper's §5 experiment on the live runtime. A
// Mandelbrot image (kernel=auto, S_f = 4 sampled reordering) is
// scheduled with dtfss over TCP loopback on three worker threads: two
// fast PEs and one slow one (the paper's 3:1 speed ratio), with one
// fast PE, chosen by the seed, carrying two external processes for the
// whole loop (LoadScript::constant(2), the paper's placement). Every
// chunk ships its columns home through result_into; the master
// assembles the image in on_result and the benchmark bit-compares it
// against a single-thread scalar reference.
#include <cstring>
#include <iostream>

#include "decorators.hpp"
#include "loop_runner.hpp"
#include "lss/api/scheduler.hpp"
#include "lss/cluster/acp.hpp"
#include "lss/mp/message.hpp"
#include "lss/support/prng.hpp"
#include "lss/workload/mandelbrot.hpp"
#include "lss/workload/sampling.hpp"
#include "workloads.hpp"

namespace lb {

namespace {

constexpr int kWorkers = 3;
constexpr int kSamplingFrequency = 4;
constexpr std::uint16_t kUnset = 0xffff;  // never a valid escape count

class MandelWorkload final : public LoopWorkload {
 public:
  explicit MandelWorkload(const Args& args) : smoke_(args.smoke) {
    params_ = lss::MandelbrotParams::paper(smoke_ ? 400 : kWidth,
                                           smoke_ ? 200 : kHeight);
    params_.kernel = lss::MandelbrotKernel::Auto;
    // The seed shifts the window by a sub-pixel offset, so each seed
    // renders (and checks) a different image of the same shape.
    lss::Xoshiro256 rng(args.seed);
    const double dx = (params_.x_max - params_.x_min) / params_.width;
    const double dy = (params_.y_max - params_.y_min) / params_.height;
    const double ox = rng.next_double() * dx, oy = rng.next_double() * dy;
    params_.x_min += ox;
    params_.x_max += ox;
    params_.y_min += oy;
    params_.y_max += oy;
    loaded_ = static_cast<int>(rng.next_int(0, 1));  // one of the fast PEs
    std::cout << "mandel_hetero: loaded PE " << loaded_ << ", window offset ("
              << ox / dx << ", " << oy / dy << ") px\n";
    reference_ = scalar_reference(params_);
    assembled_.assign(reference_.size(), kUnset);
    perm_ = lss::sampling_permutation(params_.width, kSamplingFrequency);
  }

  std::string name() const override { return "mandel_hetero"; }
  FleetConfig fleet() const override { return {"tcp", kWorkers, false}; }
  int sessions() const override { return smoke_ ? 2 : 5; }
  int warmup() const override { return smoke_ ? 1 : 3; }

  void construct() override {
    const Clock::time_point t0 = Clock::now();
    base_ = std::make_shared<lss::MandelbrotWorkload>(params_);
    construct_s_.push_back(seconds_between(t0, Clock::now()));
    workload_ = std::make_shared<ReorderedWorkload>(base_, perm_);
  }

  LoopSpec spec() override {
    LoopSpec s;
    s.scheduler = lss::SchedulerDesc("dtfss");
    s.workload = workload_;
    s.speeds = {1.0, 1.0, 1.0 / 3.0};  // fast, fast, slow
    s.loads.assign(kWorkers, lss::cluster::LoadScript{});
    s.loads[static_cast<std::size_t>(loaded_)] =
        lss::cluster::LoadScript::constant(2);
    s.acps = acps();
    const int h = params_.height;
    s.result_into = [base = base_.get(), perm = &perm_, h](
                        lss::Range chunk, lss::mp::PayloadWriter& out) {
      const auto& img = base->image();
      for (lss::Index k = chunk.begin; k < chunk.end; ++k)
        out.put_raw(img.data() + column_offset((*perm)[static_cast<std::size_t>(k)], h),
                    static_cast<std::size_t>(h) * sizeof(std::uint16_t));
    };
    s.on_result = [this, h](int, lss::Range chunk,
                            std::span<const std::byte> blob) {
      const std::size_t col_bytes = static_cast<std::size_t>(h) * 2;
      if (blob.size() != static_cast<std::size_t>(chunk.size()) * col_bytes) {
        bad_blob_ = true;
        return;
      }
      for (lss::Index k = chunk.begin; k < chunk.end; ++k)
        std::memcpy(assembled_.data() +
                        column_offset(perm_[static_cast<std::size_t>(k)], h),
                    blob.data() + static_cast<std::size_t>(k - chunk.begin) * col_bytes,
                    col_bytes);
    };
    return s;
  }

  void before_loop() override {
    std::fill(assembled_.begin(), assembled_.end(), kUnset);
    bad_blob_ = false;
  }

  bool check(const LoopRun&, std::string& why) override {
    if (bad_blob_) {
      why = "a result blob had the wrong size";
      return false;
    }
    if (assembled_ == reference_) return true;
    std::size_t i = 0;
    while (assembled_[i] == reference_[i]) ++i;
    why = "image column " + std::to_string(i / params_.height) +
          " differs from the scalar reference";
    return false;
  }

  double run_layers(Report& report) override {
    std::vector<double> seq_s, plan_ns;
    for (int i = 0; i < 3; ++i) {
      const Clock::time_point t0 = Clock::now();
      for (lss::Index c = 0; c < base_->size(); ++c) base_->execute(c);
      seq_s.push_back(seconds_between(t0, Clock::now()));
    }
    const std::vector<double> a = acps();
    for (int i = 0; i < 200; ++i) {
      const Clock::time_point t0 = Clock::now();
      lss::Scheduler sched = lss::make_scheduler("dtfss", params_.width, kWorkers);
      sched.initialize(a);
      long long chunks = 0;
      for (int pe = 0; !sched.done(); pe = (pe + 1) % kWorkers)
        chunks += sched.next(pe, a[static_cast<std::size_t>(pe)]).size() > 0;
      plan_ns.push_back(seconds_between(t0, Clock::now()) * 1e9 /
                        static_cast<double>(chunks));
    }
    double iters = 0.0;
    for (std::uint16_t v : reference_) iters += v;
    const double seq = median(seq_s);
    const double pixels = static_cast<double>(reference_.size());
    report.metric("workload.ns_per_pixel", seq * 1e9 / pixels, "ns");
    report.metric("workload.seq_loop_s", seq, "s");
    report.metric("workload.escape_iters", iters, "count");
    report.metric("workload.construct_s", median(construct_s_), "s");
    report.metric("sched.plan_ns_per_chunk", median(plan_ns), "ns");
    return seq;
  }

 private:
  static constexpr int kWidth = 4000;
  static constexpr int kHeight = 2000;

  static std::size_t column_offset(lss::Index col, int height) {
    return static_cast<std::size_t>(col) * static_cast<std::size_t>(height);
  }

  /// Escape counts of every pixel centre, one point at a time with the
  /// scalar kernel — independent of the kernel under test.
  static std::vector<std::uint16_t> scalar_reference(
      const lss::MandelbrotParams& p) {
    std::vector<std::uint16_t> img(static_cast<std::size_t>(p.width) *
                                   static_cast<std::size_t>(p.height));
    for (int c = 0; c < p.width; ++c) {
      const double cx = p.x_min + (p.x_max - p.x_min) *
                                      (static_cast<double>(c) + 0.5) /
                                      static_cast<double>(p.width);
      for (int r = 0; r < p.height; ++r) {
        const double cy = p.y_min + (p.y_max - p.y_min) *
                                        (static_cast<double>(r) + 0.5) /
                                        static_cast<double>(p.height);
        img[column_offset(c, p.height) + static_cast<std::size_t>(r)] =
            static_cast<std::uint16_t>(lss::mandelbrot_escape(cx, cy, p.max_iter));
      }
    }
    return img;
  }

  /// ACP per PE: virtual powers 3:3:1, the loaded PE's run queue 3.
  std::vector<double> acps() const {
    const double vpower[kWorkers] = {3.0, 3.0, 1.0};
    std::vector<double> out;
    for (int w = 0; w < kWorkers; ++w)
      out.push_back(lss::cluster::compute_acp(
          vpower[w], w == loaded_ ? 3 : 1, lss::cluster::AcpPolicy::improved()));
    return out;
  }

  bool smoke_;
  lss::MandelbrotParams params_;
  int loaded_ = 0;
  std::vector<lss::Index> perm_;
  std::vector<std::uint16_t> reference_;
  std::vector<std::uint16_t> assembled_;
  bool bad_blob_ = false;
  std::vector<double> construct_s_;
  std::shared_ptr<lss::MandelbrotWorkload> base_;
  std::shared_ptr<lss::Workload> workload_;
};

}  // namespace

void run_mandel_hetero(const Args& args, Report& report) {
  MandelWorkload w(args);
  drive(w, args, report);
}

}  // namespace lb
